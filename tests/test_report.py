"""Artifact writers: byte-exact text against a per-value formatting reference."""

import numpy as np

from geouio.report import (_BLOCK_ROWS, _jsonable, write_plot_series,
                           write_trajectory_csv)
from geouio.simulate import Trajectory

SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
           np.nextafter(2.2250738585072014e-308, 0.0), 1.0, -3.0, 2.0 ** 53,
           1e22, 0.1, 1 / 3, -1.7976931348623157e308]


def _trajectory(rows: int) -> Trajectory:
    rng = np.random.default_rng(4)
    n = 3
    x = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-300, 300, (rows, n))
    x.flat[:len(SPECIAL)] = SPECIAL
    xhat = (x[::-1].copy(), -x)
    err = (np.asarray(SPECIAL * (rows // len(SPECIAL) + 1))[:rows],
           np.abs(x[:, 0]))
    return Trajectory(times=np.arange(rows) * 0.01, x=x, xhat=xhat,
                      err_norm=err, labels=("node1", "node2"),
                      quotient_err=(x, x), quotient_maps=(np.eye(1),) * 2)


def _reference_rows(columns, sep):
    data = np.hstack(columns)
    return "".join(sep.join(f"{v:.17g}" for v in row) + "\n" for row in data)


def test_writers_match_per_value_formatting(tmp_path):
    traj = _trajectory(2 * _BLOCK_ROWS + 5)  # a partial block at the end
    csv = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, csv)
    header, body = csv.read_text().split("\n", 1)
    assert header.split(",")[:2] == ["t", "x_1"]
    assert body == _reference_rows(
        [traj.times[:, None], traj.x, *traj.xhat,
         *(e[:, None] for e in traj.err_norm)], ",")
    paths = write_plot_series(traj, tmp_path)
    assert [p.name for p in paths] == ["plot_node1_err.dat",
                                       "plot_node2_err.dat"]
    for p, err in zip(paths, traj.err_norm):
        assert p.read_text() == _reference_rows(
            [traj.times[:, None], err[:, None]], " ")
    assert "-0," in body and "nan" in body and "-inf" in body
    assert "4.9406564584124654e-324" in body


def test_jsonable_spells_out_non_finite_values_in_one_pass():
    payload = {"M": np.array([[1.0, np.inf], [np.nan, -0.5]]),
               "I": np.array([1, 2]), "s": np.float64(-np.inf),
               "k": np.int64(3), "ok": np.bool_(True), "x": [np.float64(2.0)]}
    assert _jsonable(payload) == {"M": [[1.0, "inf"], ["nan", -0.5]],
                                  "I": [1, 2], "s": "-inf", "k": 3,
                                  "ok": True, "x": [2.0]}
