"""The lean SVD path against numpy's own wrappers, bit for bit.

``subspaces._svd`` calls the LAPACK gufunc behind ``numpy.linalg.svd``
directly, and ``subspaces.two_norm`` and ``subspaces._pinv`` take ||M||_2 and
the pseudoinverse through it; all must give exactly what numpy's wrappers
give, so no rank decision of the program moves.  ``subspaces._eigvals``
and ``subspaces._lstsq`` do the same for ``numpy.linalg.eigvals`` and
``numpy.linalg.lstsq``, ``subspaces._fro`` and ``subspaces._kron`` for
``numpy.linalg.norm`` and ``numpy.kron``, and ``subspaces._rank_cut`` reads
the singular values as a list with the cut of its numpy form.
"""

import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from geouio import subspaces, verify
from geouio.central import synthesize_centralized_uio
from geouio.distributed import synthesize_distributed
from geouio.subspaces import (_eigvals, _fro, _kron, _lstsq, _pinv,
                              _rank_cut, _svd, margin_monitor, note_margin,
                              two_norm)
from geouio.verify import invariant_checks, random_equivalence_battery

from test_distributed import covered_network


def _inputs():
    rng = np.random.default_rng(7)
    big = rng.standard_normal((9, 10))
    cases = {f"{r}x{c}": rng.standard_normal((r, c))
             for r, c in ((6, 3), (3, 6), (4, 4), (1, 5), (5, 1), (0, 4), (4, 0), (0, 0))}
    cases["fortran"] = np.asfortranarray(rng.standard_normal((5, 3)))
    cases["strided"] = big[1::2, ::3]
    cases["transposed"] = big[:4].T
    cases["rank-deficient"] = np.outer(rng.standard_normal(5), rng.standard_normal(4))
    cases["complex"] = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    cases["complex wide"] = (rng.standard_normal((2, 4))
                             + 1j * rng.standard_normal((2, 4)))
    return cases


INPUTS = _inputs()


def _assert_like_numpy(M):
    for full in (True, False):
        got = _svd(M, full=full)
        want = np.linalg.svd(M, full_matrices=full)
        assert all(np.array_equal(g, w) and g.dtype == w.dtype
                   for g, w in zip(got, want, strict=True))
    s = _svd(M, uv=False)
    want = np.linalg.svd(M, compute_uv=False)
    assert np.array_equal(s, want) and s.dtype == want.dtype
    norm = two_norm(M)
    assert type(norm) is float and norm == float(np.linalg.norm(M, 2))


@pytest.mark.parametrize("name", INPUTS)
def test_svd_and_two_norm_equal_numpy(name):
    _assert_like_numpy(INPUTS[name])


def _pinv_inputs():
    rng = np.random.default_rng(11)
    cases = {name: M for name, M in INPUTS.items() if M.dtype.kind == "f"}
    # singular values straddling the 1e-15 cut, and an exact zero matrix
    U, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    cases["cut"] = (U * [1.0, 1e-3, 2e-15, 5e-16]) @ V.T
    cases["zero"] = np.zeros((3, 2))
    cases["rank-deficient wide"] = cases["rank-deficient"].T.copy()
    cases["6x0"] = np.zeros((6, 0))
    return cases


PINV_INPUTS = _pinv_inputs()


@pytest.mark.parametrize("name", PINV_INPUTS)
def test_pinv_equals_numpy(name):
    M = PINV_INPUTS[name]
    got, want = _pinv(M), np.linalg.pinv(M)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_failed_svd_raises(monkeypatch):
    def failing(gufunc):
        # what the gufunc returns when dgesdd does not converge: NaN
        def call(M, signature):
            out = gufunc(M, signature=signature)
            (out[1] if isinstance(out, tuple) else out)[-1] = np.nan
            return out
        return call

    monkeypatch.setattr(subspaces, "_SVD_GUFUNCS",
                        tuple(failing(g) for g in subspaces._SVD_GUFUNCS))
    for M in (INPUTS["6x3"], INPUTS["complex"]):
        for kwargs in ({}, {"full": False}, {"uv": False}):
            with pytest.raises(LinAlgError, match="SVD did not converge"):
                _svd(M, **kwargs)
        with pytest.raises(LinAlgError):
            two_norm(M)
        with pytest.raises(LinAlgError):
            subspaces.image(M.real)


def test_eigvals_equal_numpy():
    rng = np.random.default_rng(31)
    dtypes = set()
    for n in range(13):
        M = rng.standard_normal((n, n))
        for a in (M, M + M.T, np.triu(M), np.asfortranarray(M), M[::-1, ::-1]):
            got, want = _eigvals(a), np.linalg.eigvals(a)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            dtypes.add(got.dtype)
    # real spectra (symmetric, triangular, n < 2) and complex ones
    assert dtypes == {np.dtype(float), np.dtype(complex)}
    # every entry finite although the sum overflows: numpy's result
    big = np.diag([1e308, 1e308, -1.0])
    assert np.array_equal(_eigvals(big), np.linalg.eigvals(big))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigvals_reject_non_finite_input(bad):
    # the corner of a triangular matrix moves no eigenvalue: only a check of
    # the input can catch it
    a = np.triu(np.ones((3, 3)))
    a[0, 2] = bad
    for eigvals in (np.linalg.eigvals, _eigvals):
        with pytest.raises(LinAlgError, match="infs or NaNs"):
            eigvals(a)


def test_failed_eigensolve_raises(monkeypatch):
    def failing(a, signature):
        # what the gufunc returns when dgeev does not converge: NaN
        w = np.linalg._umath_linalg.eigvals(a, signature=signature)
        w[-1] = np.nan
        return w

    monkeypatch.setattr(subspaces, "_umath_linalg", SimpleNamespace(eigvals=failing))
    for a in (np.eye(3), np.random.default_rng(2).standard_normal((4, 4))):
        with pytest.raises(LinAlgError, match="did not converge"):
            _eigvals(a)


def _lstsq_matrices():
    rng = np.random.default_rng(13)
    big = rng.standard_normal((12, 12))
    return {"tall": rng.standard_normal((7, 3)),
            "wide": rng.standard_normal((3, 7)),
            "square": rng.standard_normal((5, 5)),
            "one row": rng.standard_normal((1, 4)),
            "rank-deficient": np.outer(rng.standard_normal(6),
                                       rng.standard_normal(4)),
            "rank-deficient wide": np.outer(rng.standard_normal(3),
                                            rng.standard_normal(5)),
            "fortran": np.asfortranarray(rng.standard_normal((6, 4))),
            "transposed": big[:4, :9].T,
            "strided": big[::2, 1::3]}


LSTSQ_MATRICES = _lstsq_matrices()


@pytest.mark.parametrize("name", LSTSQ_MATRICES)
def test_lstsq_equals_numpy(name):
    a = LSTSQ_MATRICES[name]
    m = a.shape[0]
    rng = np.random.default_rng(17)
    for b in (rng.standard_normal(m), rng.standard_normal((m, 1)),
              rng.standard_normal((m, 3)),
              np.asfortranarray(rng.standard_normal((m, 3))),
              rng.standard_normal((3, m)).T, np.eye(m)):
        got, want = _lstsq(a, b), np.linalg.lstsq(a, b, rcond=None)[0]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_failed_lstsq_raises_numpys_error_without_a_warning(bad):
    a = np.random.default_rng(19).standard_normal((5, 3))
    a[1, 2] = bad
    b = np.ones(5)
    errstate = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (lambda: np.linalg.lstsq(a, b, rcond=None)[0],
                      lambda: _lstsq(a, b)):
            with pytest.raises(LinAlgError) as exc:
                solve()
            assert str(exc.value) == "SVD did not converge in Linear Least Squares"
        # a non-finite right side fails no factorization: NaN, as numpy gives
        a[1, 2], b[0] = 0.0, bad
        got, want = _lstsq(a, b), np.linalg.lstsq(a, b)[0]
        assert np.isnan(got).all() and np.array_equal(got, want, equal_nan=True)
    assert np.geterr() == errstate


def test_fro_equals_numpy():
    M = np.random.default_rng(23).standard_normal((6, 5))
    for x in (M, np.asfortranarray(M), M.T, M[1::2, ::2], M[:, 3], M[2],
              np.zeros((0, 3)), np.zeros((4, 0)), np.zeros(0)):
        got = _fro(x)
        assert type(got) is float and got == float(np.linalg.norm(x))
    # a sum of squares past the largest double overflows in both, warning
    for norm in (_fro, np.linalg.norm):
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            assert norm(M * 1e200) == np.inf


def test_kron_equals_numpy():
    rng = np.random.default_rng(29)
    X, P = rng.standard_normal((3, 2)), rng.standard_normal((4, 6))
    for a, b in ((X.T, P), (X, P.T), (np.asfortranarray(X), P[::2]),
                 (X[:1], P), (np.zeros((0, 2)), P), (X, np.zeros((4, 0)))):
        got, want = _kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and np.array_equal(got, want)


def _rank_cut_numpy(s, shape, rel_tol, scale_floor=0.0):
    """The rank cut in numpy's array operations, as it was written before
    ``_rank_cut`` read the values as a list."""
    scale = max(float(s[0]) if s.size else 0.0, scale_floor)
    if scale == 0.0:
        return 0
    threshold = scale * max(shape) * rel_tol
    rank = int(np.count_nonzero(s > threshold))
    kept_min = float(s[rank - 1]) if rank > 0 else np.inf
    dropped_max = float(s[rank]) if rank < s.size else 0.0
    note_margin(kept_min - dropped_max)
    return rank


def _cut(rank_cut, *args):
    with margin_monitor() as rec:
        rank = rank_cut(*args)
    return rank, type(rank), rec.margins


def test_rank_cut_equals_its_numpy_form():
    rng = np.random.default_rng(37)
    on_cut = 2.0 * 4 * 1e-10  # a value exactly on the threshold
    cases = [(np.zeros(0), (0, 3), 1e-10, 0.0),
             (np.zeros(3), (4, 3), 1e-10, 0.0),
             (np.zeros(3), (4, 3), 1e-10, 1.0),
             (np.array([2.0, on_cut, on_cut / 2]), (4, 3), 1e-10, 0.0),
             (np.array([2.0, on_cut, 0.0]), (3, 4), 1e-10, 1.0),
             (np.array([1.0, 1e-3]), (2, 2), 1e-10, 1e8)]
    for _ in range(200):
        k = int(rng.integers(1, 8))
        s = np.sort(10.0 ** rng.uniform(-14, 2, k))[::-1]
        floor = float(rng.choice([0.0, s[0] / 2, s[0] * 1e3]))
        cases.append((s, (k, int(rng.integers(1, 9))), 1e-10, floor))
    for s, shape, rel_tol, floor in cases:
        got = _cut(_rank_cut, s, shape, rel_tol, floor)
        assert got == _cut(_rank_cut_numpy, s, shape, rel_tol, floor)
        assert got[1] is int
    assert _cut(_rank_cut, *cases[3])[:1] == (1,)


# ---------------------------------------------------------------------------
# Oracle: the whole pipeline with every lean entry through numpy's wrappers.


def _route_through_numpy(monkeypatch):
    """Rebind ``_svd``, ``two_norm``, ``_lstsq``, ``_fro``, ``_kron`` and
    ``_rank_cut`` in every geouio module to numpy's ``svd``, ``norm(M,
    2)``, ``lstsq``, ``norm``, ``kron`` and the numpy form of the cut."""
    refs = ((subspaces._svd, lambda M, full=True, uv=True: np.linalg.svd(
                M, full_matrices=full, compute_uv=uv)),
            (subspaces.two_norm, lambda M: float(np.linalg.norm(M, 2))),
            (subspaces._lstsq, lambda a, b: np.linalg.lstsq(a, b, rcond=None)[0]),
            (subspaces._fro, lambda M: float(np.linalg.norm(M))),
            (subspaces._kron, np.kron),
            (subspaces._rank_cut, _rank_cut_numpy))
    patched = 0
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "geouio" or name.startswith("geouio.")):
            for attr, val in list(vars(mod).items()):
                for original, ref in refs:
                    if val is original:
                        monkeypatch.setattr(mod, attr, ref)
                        patched += 1
    # _svd and two_norm in subspaces, synthesis, central and distributed;
    # _lstsq and _rank_cut in subspaces, synthesis and central; _fro in
    # those and verify; _kron in subspaces and synthesis
    assert patched == 8 + 3 + 3 + 4 + 2


def _pipeline(dist_cfg, central_cfg):
    """Every battery trial's margins and verdicts, the batteries' results,
    every invariant value of three designs and the networks' gains."""
    recorders, verdicts = [], []

    def monitor():
        recorders.append(subspaces.MarginRecorder())
        return recorders[-1]

    def recorded(fn):
        def call(*args, **kwargs):
            verdicts.append(fn(*args, **kwargs))
            return verdicts[-1]
        return call

    with pytest.MonkeyPatch.context() as mp:
        # one process, so that every trial's recorder is made here
        mp.setattr(verify, "_worker_count", lambda trials: 1)
        mp.setattr(verify, "margin_monitor", monitor)
        for name in ("check_uio_condition", "classical_rank_condition"):
            mp.setattr(verify, name, recorded(getattr(verify, name)))
        batteries = [random_equivalence_battery(50, seed) for seed in (0, 1, 2)]
    assert len(recorders) == 150  # one per trial
    out = {"margins": [r.margins for r in recorders],
           "min_margins": [r.min_margin for r in recorders],
           "verdicts": verdicts,
           "batteries": [(b.agreements, b.marginal, b.disagreements)
                         for b in batteries]}

    cfg = central_cfg
    obs = synthesize_centralized_uio(cfg.system, cfg.partition, cfg.spectral)
    designs = {"central": invariant_checks(obs, cfg.spectral.alpha, cfg.system,
                                           cfg.partition)}
    cfg = dist_cfg
    net = synthesize_distributed(cfg.system, cfg.node_specs, cfg.graph,
                                 cfg.spectral, u_bar_max=cfg.u_bar_max)
    designs["distributed"] = invariant_checks(net, cfg.spectral.alpha)
    sys_, specs, graph = covered_network(0)
    net16 = synthesize_distributed(sys_, specs, graph, u_bar_max=0.2)
    designs["covered N16"] = invariant_checks(net16, 0.0)
    out["gains"] = [(n.chi, n.gamma, n.sigma_min_Q) for n in (net, net16)]
    for name, checks in designs.items():
        out[name] = {k: (c.value, c.passed) for k, c in checks.items()}
    return out


def test_lean_path_moves_no_decision(monkeypatch, central_cfg, dist_cfg):
    lean = _pipeline(dist_cfg, central_cfg)
    _route_through_numpy(monkeypatch)
    reference = _pipeline(dist_cfg, central_cfg)
    assert sum(map(len, lean["margins"])) > 1000 and len(lean["covered N16"]) > 100
    for key in lean:
        assert lean[key] == reference[key], key
