"""The vectorised %.17g of the table writers against Python's own, value by value."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geouio import _dtoa
from geouio._dtoa import decimal, fields, join
from geouio.report import _trajectory_source

from test_report import SPECIAL


def _format(values, sep):
    return join(fields(values), sep)


def _reference(values, sep):
    return "".join(sep.join("%.17g" % v for v in row) + "\n"
                   for row in values.tolist()).encode()


def _check(flat, width, sep):
    flat = np.asarray(flat, dtype=np.float64)
    values = np.resize(flat, (-(-len(flat) // width), width))
    assert _format(values, sep) == _reference(values, sep)


_FLOATS = st.one_of(st.floats(), st.floats(-1e44, 1e44), st.floats(-1e3, 1e3),
                    st.floats(-1e-3, 1e-3), st.floats(-1e-8, 1e-8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_FLOATS, min_size=1, max_size=80),
       st.sampled_from([1, 2, 35]), st.sampled_from([",", " "]))
def test_any_floats_format_as_percent(flat, width, sep):
    _check(flat, width, sep)


def _ties():
    """Values m * 2**-e whose exact decimal expansion has 18 significant
    digits, the last a 5: '%.17g' rounds them half to even."""
    ties = []
    for e in range(10, 70, 3):
        for m in range(1, 400, 2):
            x = m * 2.0 ** -e
            digits = Decimal(x).normalize().as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(x)
    return ties


def _adversarial():
    powers = np.array([10.0 ** e for e in range(-40, 26)])
    near, below, above = [powers], powers, powers
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        near += [below, above]
    edges = [1e-5, 1e-4, 1e16, 1e17]
    edges += [np.nextafter(e, 0.0) for e in edges] + [np.nextafter(e, np.inf) for e in edges]
    wide = [1e100, -1e-100, 1.2345678901234567e-250, 9.999999999999999e299,
            5e-324, 1.7976931348623157e308, 2.2250738585072014e-308]
    just_below = [9999999999999998.0, 99999999999999984.0, 9999999999999999e-5,
                  99999999999999.99, 0.99999999999999989, 0.099999999999999992]
    values = np.concatenate([*near, edges, wide, just_below, _ties(), SPECIAL])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("width", [1, 2, 35])
@pytest.mark.parametrize("sep", [",", " "])
def test_adversarial_values_format_as_percent(width, sep):
    values = _adversarial()
    assert len(_ties()) > 100
    _check(values, width, sep)
    _check(values[::-1], width, sep)


@pytest.mark.parametrize("sep", [",", " "])
def test_tiny_values_format_as_percent(sep):
    # 1e-40 <= |v| <= 1e-8: below 1e-11 the fast path scales by two powers
    rng = np.random.default_rng(40)
    values = 10.0 ** rng.uniform(-40, -8, 40_000) * rng.choice([-1.0, 1.0], 40_000)
    _check(values, 35, sep)
    if _EXTENDED:  # the second power keeps nearly all from 1e-37 on off '%'
        assert decimal(values[np.abs(values) >= 1e-37])[2].mean() > 0.95


def test_ties_round_half_to_even_both_ways():
    text = _format(np.array(_ties())[:, None], ",").decode().split()
    last = [s.split("e")[0][-1] for s in text]
    assert {"2", "8"} <= set(last)  # ...25 rounds down, ...75 rounds up


_EXTENDED = np.finfo(_dtoa.WIDE).eps < np.finfo(np.float64).eps


def test_every_value_falls_back_where_long_double_is_double(monkeypatch):
    values = np.concatenate([_adversarial(),
                             np.random.default_rng(3).normal(size=500)])
    assert decimal(values)[2].any() == _EXTENDED
    monkeypatch.setattr(_dtoa, "WIDE", np.float64)
    assert not decimal(values)[2].any()
    for width in (1, 2, 35):
        _check(values, width, ",")


@pytest.mark.skipif(not _EXTENDED, reason="long double is plain double: "
                    "every value takes the '%' fallback")
@pytest.mark.parametrize("run", ["central", "dist"])
def test_few_demo_values_fall_back(run, central_runs, dist_run):
    """The fast path formats nearly every value of a demo trajectory: a band
    so wide that most values take '%' would not show in the bytes."""
    traj = (central_runs if run == "central" else dist_run)["traj"]
    rows, width, block = _trajectory_source(traj)
    settled = np.concatenate([decimal(block(a, min(a + 1024, rows)).ravel())[2]
                              for a in range(0, rows, 1024)])
    assert settled.size == rows * width
    assert 1 - settled.mean() < 0.05
