"""The lean SVD path against numpy's own wrappers, bit for bit.

``subspaces._svd`` calls the LAPACK gufunc behind ``numpy.linalg.svd``
directly, and ``subspaces.two_norm`` and ``subspaces._pinv`` take ||M||_2 and
the pseudoinverse through it; all must give exactly what numpy's wrappers
give, so no rank decision of the program moves.  ``subspaces._eigvals``
does the same for ``numpy.linalg.eigvals``.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from geouio import subspaces, verify
from geouio.central import synthesize_centralized_uio
from geouio.distributed import synthesize_distributed
from geouio.subspaces import _eigvals, _pinv, _svd, two_norm
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


# ---------------------------------------------------------------------------
# Oracle: the whole pipeline with every SVD and 2-norm through numpy's wrappers.


def _route_through_numpy(monkeypatch):
    """Rebind ``_svd`` and ``two_norm`` in every geouio module to numpy's
    ``svd`` and ``norm(M, 2)``."""
    refs = ((subspaces._svd, lambda M, full=True, uv=True: np.linalg.svd(
                M, full_matrices=full, compute_uv=uv)),
            (subspaces.two_norm, lambda M: float(np.linalg.norm(M, 2))))
    patched = 0
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "geouio" or name.startswith("geouio.")):
            for attr, val in list(vars(mod).items()):
                for original, ref in refs:
                    if val is original:
                        monkeypatch.setattr(mod, attr, ref)
                        patched += 1
    assert patched == 8  # in subspaces, synthesis, central and distributed


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
