"""W* and S* against exact rational arithmetic (tests/exact.py) on small
integer plants, where W* can lie exactly inside Ker C and products of
bases can be exactly rank-deficient: structure that float draws never
reach."""

import numpy as np
import pytest

from geouio.subspaces import image, kernel, margin_monitor
from geouio.synthesis import (infimal_conditioned_invariant,
                              infimal_unobservability_subspace)
from geouio.verify import MARGINAL_GAP

import exact


def _dims(A, C, B):
    """geouio's (dim W*, dim S*) and the least margin of the two recursions."""
    A, C, B = (np.asarray(M, dtype=float) for M in (A, C, B))
    KC, Bbar = kernel(C), image(B)
    with margin_monitor() as rec:
        W = infimal_conditioned_invariant(A, KC, Bbar)
        S = infimal_unobservability_subspace(A, KC, W)
    return (W.dim, S.dim), rec.min_margin


# Draws of exact.integer_plants, (seed, draw), with their exact (dim W*,
# dim S*).  On the first three W* lies inside Ker C and C⊥W* is rounding
# noise, 1e-16 to 1.5e-15; on the last C⊥W* has the singular values 1,
# 0.80 and 3.9e-15.  A rank cut of C⊥W* with no floor at ||C⊥|| ||W*|| = 1
# counts that noise as a measured direction.
PLANTS = {
    (0, 1058): ([[0, 0, 0, 0, 0],
                 [-1, 2, 1, 0, -1],
                 [0, -2, -1, 0, 0],
                 [0, -2, 2, 0, 1],
                 [-1, 0, -1, 1, 0]],
                [[-1, 0, 0, 0, 0]],
                [[0], [-2], [0], [0], [-2]],
                (4, 4)),
    (0, 1189): ([[-2, 0, 0, 0],
                 [0, 0, 0, 0],
                 [2, 0, 0, 0],
                 [0, -1, 0, 0]],
                [[0, 0, 0, 0],
                 [0, 0, -1, 0]],
                [[0, 0], [0, 1], [0, 0], [0, -1]],
                (2, 2)),
    (1, 1652): ([[0, 0, 0, 0, 2],
                 [1, -2, 2, 0, 2],
                 [0, 0, 0, 0, 0],
                 [1, 0, 0, 1, 0],
                 [0, -2, 0, 0, 0]],
                [[0, 0, -2, 0, 0]],
                [[-1], [0], [0], [2], [0]],
                (4, 4)),
    (0, 2128): ([[-2, -2, 0, 1, 0, 0],
                 [0, -2, 0, 0, 0, -2],
                 [1, -2, 2, 1, 0, 0],
                 [1, 0, 0, 0, 0, 0],
                 [0, -1, 0, 0, 0, 0],
                 [0, 0, 0, -1, 0, 0]],
                [[0, 0, 0, 0, 1, 0],
                 [0, 0, 0, 0, -2, 0],
                 [0, 1, 0, -2, 2, -2],
                 [0, 0, -1, 0, 0, 0],
                 [0, 0, -2, 0, -2, 1]],
                [[0, 0], [-2, 0], [0, 2], [-1, 2], [0, 0], [0, 0]],
                (3, 4)),
}


@pytest.mark.parametrize("key", list(PLANTS), ids=lambda k: f"seed{k[0]}-draw{k[1]}")
def test_wstar_and_sstar_of_exactly_structured_plants(key):
    A, C, B, dims = PLANTS[key]
    W = exact.w_star(A, C, B)
    assert (len(W), len(exact.s_star(A, C, W))) == dims
    got, margin = _dims(A, C, B)
    assert got == dims
    assert margin >= MARGINAL_GAP


def test_the_plants_are_the_recipes_draws():
    for (seed, draw), (A, C, B, _) in PLANTS.items():
        plants = exact.integer_plants(seed, draw + 1)
        got = next(p for p in plants if p[0] == draw)[1:]
        assert all(np.array_equal(M, g) for M, g in zip((A, C, B), got))


def test_recursions_meet_the_exact_dimensions_on_integer_plants():
    plants = marginal = 0
    wrong = []
    for draw, A, C, B in exact.integer_plants(0, 1000):
        W = exact.w_star(A, C, B)
        want = (len(W), len(exact.s_star(A, C, W)))
        got, margin = _dims(A, C, B)
        plants += 1
        if margin < MARGINAL_GAP:
            marginal += 1
        elif got != want:
            wrong.append((draw, got, want, margin))
    assert not wrong, wrong
    assert plants > 700 and marginal < plants // 50, (plants, marginal)
