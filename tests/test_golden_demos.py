"""Basis-free golden values of both demos' designs.

``golden_demos.json`` holds quantities that no choice of orthonormal basis
can move: the projectors of W*, S* and W_g*, the sorted spectra of the
quotient maps, each gain's Frobenius norm and the network's consensus
gains.  A numerical change may re-base a chart, but these values must stay
within 1e-10 relative.  A change that moves one of them on purpose updates
the file and says by how much it moved.
"""

import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden_demos.json")
REL = 1e-10


def _spectrum(M) -> list:
    """Eigenvalues of M as [re, im] pairs, sorted by real then imaginary part
    to 9 decimals (a real part of rounding size, either sign, sorts as 0)."""
    return sorted(([float(v.real), float(v.imag)] for v in np.linalg.eigvals(M)),
                  key=lambda v: (round(v[0], 9) + 0.0, round(v[1], 9) + 0.0))


def _projectors(decomp) -> dict:
    return {name: (sub.basis @ sub.basis.T).tolist()
            for name, sub in (("W_star", decomp.W_star),
                              ("S_star", decomp.S_star),
                              ("W_g_star", decomp.W_g_star))}


def centralized_values(obs) -> dict:
    return {"L_fro": float(np.linalg.norm(obs.L)),
            "spectrum": _spectrum(obs.Abar_L),
            "projectors": _projectors(obs.decomp)}


def distributed_values(net) -> dict:
    nodes = []
    for nd in net.nodes:
        node = {"id": nd.node_id, "class": nd.node_class,
                "L_fro": float(np.linalg.norm(nd.L)),
                "spectrum": _spectrum(nd.Abarbar),
                "projectors": _projectors(nd.decomp)}
        if nd.Abar_L is not None:
            node["spectrum_W_star"] = _spectrum(nd.Abar_L)
        nodes.append(node)
    return {"chi": net.chi, "gamma": net.gamma,
            "sigma_min_Q": net.sigma_min_Q, "nodes": nodes}


def _assert_close(got, want, where: str):
    """Equal structure; numbers within REL of the largest entry they sit
    beside (a matrix is compared as a whole, a spectrum as a multiset)."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            close = _assert_same_spectrum if key.startswith("spectrum") else _assert_close
            close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, str):
        assert got == want, where
    elif isinstance(want, list) and want and isinstance(want[0], dict):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{k}]")
    else:
        g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert g.shape == w.shape, where
        scale = np.abs(w).max(initial=0.0)
        err = np.abs(g - w).max(initial=0.0)
        assert err <= REL * scale, f"{where}: off by {err:.2e} of {scale:.2e}"


def _assert_same_spectrum(got, want, where: str):
    """Each wanted eigenvalue within REL of the largest modulus from its own
    computed one, matched nearest first: the order of eigenvalues whose real
    parts tie does not matter."""
    left = [complex(*v) for v in got]
    assert len(left) == len(want), where
    scale = max((abs(complex(*v)) for v in want), default=0.0)
    for v in want:
        w = complex(*v)
        k = min(range(len(left)), key=lambda i: abs(left[i] - w))
        err = abs(left.pop(k) - w)
        assert err <= REL * scale, f"{where}: {w} off by {err:.2e} of {scale:.2e}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_centralized_demo_matches_its_basis_free_golden_values(central_obs, golden):
    _assert_close(centralized_values(central_obs[0]), golden["centralized"],
                  "centralized")


def test_distributed_demo_matches_its_basis_free_golden_values(dist_net, golden):
    values = distributed_values(dist_net[0])
    assert values["chi"] == pytest.approx(78.82641189381519, rel=REL)
    assert values["gamma"] == pytest.approx(0.7504665215717485, rel=REL)
    _assert_close(values, golden["distributed"], "distributed")


def test_the_golden_comparison_sees_a_moved_value(golden):
    want = golden["distributed"]
    moved = json.loads(json.dumps(want))
    moved["nodes"][0]["projectors"]["S_star"][0][0] += 1e-8
    with pytest.raises(AssertionError, match="S_star"):
        _assert_close(moved, want, "distributed")
    moved = json.loads(json.dumps(want))
    moved["nodes"][2]["spectrum"][0][1] += 1e-8
    with pytest.raises(AssertionError, match="spectrum"):
        _assert_close(moved, want, "distributed")
    # a conjugate pair listed in the other order is the same spectrum
    moved = json.loads(json.dumps(want))
    moved["nodes"][2]["spectrum"].reverse()
    _assert_close(moved, want, "distributed")
