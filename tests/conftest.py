"""Oracles shared by several test modules."""

import numpy as np
import pytest

from wml.filtration import level_means
from wml.linalg import spd_power, sym_inv
from wml.weights import ReducingPair


def _exact_p2_pair(space, W):
    """Reducing pair of (space, W, 2) from the exact p = 2 formulas: primal
    (E_n W)^{1/2} and dual (E_n W^{-1})^{1/2} on every atom of every level,
    in tiled order. A cross-check for the fitted reducers at p = 2."""
    d = W.dim
    stack = (space.depth + 1, space.n_leaves, d * d)

    def root_of_means(mats):
        means = level_means(space, np.broadcast_to(
            mats.reshape(space.n_leaves, -1), stack))
        return spd_power(means.reshape(-1, d, d), 0.5)

    primal, dual = root_of_means(W.mats), root_of_means(sym_inv(W.mats))
    return ReducingPair(
        space=space, weight=W, p=2.0, tiled_primal=primal, tiled_dual=dual,
        tiled_primal_inv=sym_inv(primal), tiled_dual_inv=sym_inv(dual),
        wp=spd_power(W.mats, 0.5), wm=spd_power(W.mats, -0.5),
        method="exact_p2")


@pytest.fixture
def exact_p2_pair():
    """The exact p = 2 reducing pair oracle, ``exact_p2_pair(space, W)``."""
    return _exact_p2_pair
