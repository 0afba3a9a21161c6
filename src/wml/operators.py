"""Square functions, maximal operators, sparse operators, weighted norms.

All operators return per-leaf arrays. The weighted square function of f
conjugates increments of g = W^{-1/p} f by the leaf value of W^{1/p}:

    (sum_k ||W^{1/p}(l) d_k g(l)||^2)^{1/2}.

The ``mode`` argument selects what the k = 1 summand is:

  * "increments"  (default): d_1 g = g_1 - g_0, the level-0 mean excluded;
  * "first_value": the full level-1 value g_1, so the jump from the
    artificial level-0 mean is not counted as fluctuation (the convention
    under which the stopping-time family dominates pointwise);
  * "with_mean":  increments plus a separate k = 0 term ||W^{1/p} g_0||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtration import FilteredSpace, cond_expect, martingale_of, lp_norm
from .linalg import ValidationError, matvec, spd_power
from .weights import as_weight

MODES = ("increments", "first_value", "with_mean")


def _diff_stack(mart, mode):
    if mode not in MODES:
        raise ValidationError(f"unknown square-function mode {mode!r}")
    if mode == "increments":
        return mart.diffs
    if mode == "first_value":
        return mart.first_value_diffs()
    return np.concatenate([mart.leaf_levels[:1], mart.diffs], axis=0)


def _leaf_l2(stack):
    """Per leaf the l2 norm over a (K, L, d) stack of increments."""
    return np.sqrt(np.sum(stack * stack, axis=(0, 2)))


def _conjugated_diffs(wp, mart, mode="increments"):
    """(K, L, d) stack W^{1/p}(l) d_k g(l) of the mode's increments of the
    martingale of g, conjugated by the leaf values wp of W^{1/p}.

    The product is summed column by column in index order; at d <= 2 this
    gives the values of ``einsum("lij,klj->kli")`` (a zero may differ in
    sign) at a fraction of its cost on small spaces.
    """
    diffs = _diff_stack(mart, mode)
    out = wp[:, :, 0] * diffs[..., :1]
    for j in range(1, wp.shape[-1]):
        out += wp[:, :, j] * diffs[..., j:j + 1]
    return out


def square_fn(space, mart, mode="increments"):
    """Unweighted square function: per leaf the l2 sum of increments."""
    return _leaf_l2(_diff_stack(mart, mode))


def weighted_square_fn(space, W, p, f, mode="increments"):
    """Matrix-weighted square function of the leaf function f."""
    W = as_weight(W)
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    mart = martingale_of(space, matvec(spd_power(W.mats, -1.0 / p), f))
    return _leaf_l2(_conjugated_diffs(spd_power(W.mats, 1.0 / p), mart, mode))


def reduced_maximal(an):
    """Maximal function of the reducer-normalized weighted average of the
    analysis context ``an``: per leaf, max over levels n of
    E_n ||dual_n^{-1} W^{-1/p} f||."""
    return an.level_averages()[an.space.tiled_labels()].max(axis=0)


@dataclass(frozen=True)
class SparseSet:
    """One member of a sparse family: a union of level-kappa2 atoms."""

    generation: int
    kappa1: int
    kappa2: int
    atoms: np.ndarray  # level-kappa2 atom indices, sorted

    def leaf_indices(self, space):
        off = space.offsets[self.kappa2]
        return np.concatenate([np.arange(off[a], off[a + 1]) for a in self.atoms])


@dataclass(frozen=True)
class SparseFamily:
    """A list of sparse sets over a common space."""

    space: FilteredSpace
    sets: tuple

    def __post_init__(self):
        for s in self.sets:
            if s.kappa1 >= s.kappa2:
                raise ValidationError("sparse set needs kappa1 < kappa2")
            if s.kappa2 > self.space.depth or np.any(
                    s.atoms >= self.space.n_atoms(s.kappa2)):
                raise ValidationError("sparse set atoms outside the space")

    @classmethod
    def whole_space(cls, space):
        """The single set Omega viewed at level 0 (kappa2 = 0)."""
        return cls(space, (SparseSet(1, -1, 0, np.array([0])),))


def sparse_operator(an, family, r):
    """Sparse operator T_{W,r} of the analysis context ``an`` over the
    family: per leaf (sum over containing sets of
      ||W^{1/p}(l) dual_{k2}||^r (E_{k2} ||dual_{k2}^{-1} W^{-1/p} f||)^r)^{1/r}."""
    if r < 1:
        raise ValidationError("r must be >= 1")
    acc = np.zeros(an.space.n_leaves)
    for s in family.sets:
        leaves = s.leaf_indices(an.space)
        acc[leaves] += an.set_term(s.kappa2, leaves) ** r
    return acc ** (1.0 / r)


def sparse_operator_scalar(space, w, p, family, r, f):
    """Scalar sparse operator:
    per leaf (sum over sets of w^{r/p}(l) (E_{k2} |w^{-1/p} f|)^r)^{1/r}."""
    w = np.asarray(w, dtype=float)
    f = np.asarray(f, dtype=float)
    if w.ndim != 1:
        raise ValidationError("scalar sparse operator needs a d = 1 weight")
    normalized = np.abs(w ** (-1.0 / p) * f)
    acc = np.zeros(space.n_leaves)
    cache = {}
    for s in family.sets:
        leaves = s.leaf_indices(space)
        if s.kappa2 not in cache:
            cache[s.kappa2] = cond_expect(space, normalized, s.kappa2)
        atom_of = space.atom_of_leaf[s.kappa2][leaves]
        acc[leaves] += w[leaves] ** (r / p) * cache[s.kappa2][atom_of] ** r
    return acc ** (1.0 / r)


def weighted_cond_expect(space, w, f, n):
    """Conditional expectation under the w-tilted measure:
    E_n(w f) / E_n(w), per level-n atom."""
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValidationError("weight must be positive")
    return cond_expect(space, w * np.asarray(f, dtype=float), n) / cond_expect(
        space, w, n)


def lp_weighted_norm(space, W, p, f):
    """(sum_leaves P(l) ||W^{1/p}(l) f(l)||^p)^{1/p}."""
    W = as_weight(W)
    wp = spd_power(W.mats, 1.0 / p)
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    return lp_norm(space, matvec(wp, f), p)
