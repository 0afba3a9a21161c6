"""Square functions, maximal operators, sparse operators, weighted norms.

All operators return per-leaf arrays. The weighted square function of f
conjugates increments of g = W^{-1/p} f by the leaf value of W^{1/p}:

    (sum_k ||W^{1/p}(l) d_k g(l)||^2)^{1/2},

with d_1 g = g_1 - g_0, so the level-0 mean is excluded. The analysis
context's ``square("first_value")`` takes the full level-1 value g_1 as
the k = 1 summand instead: the jump from the artificial level-0 mean is
then not counted as fluctuation, the convention under which the
stopping-time family dominates pointwise.

The conjugated increments are one ``linalg.matvec`` of the (L, d, d) leaf
powers W^{1/p} against the (K, L, d) stack of the increments.
"""

from __future__ import annotations

import numpy as np

from .filtration import cond_expect, lp_norm, martingale_of
from .linalg import ValidationError, matvec
from .weights import as_weight

def _leaf_l2(stack):
    """Per leaf the l2 norm over a (K, L, d) stack of increments."""
    return np.sqrt(np.sum(stack * stack, axis=(0, -1)))


def square_fn(space, mart):
    """Unweighted square function: per leaf the l2 sum of increments."""
    return _leaf_l2(mart.diffs)


def weighted_square_fn(space, W, p, f):
    """Matrix-weighted square function of the leaf function f."""
    W = as_weight(W)
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    mart = martingale_of(space, matvec(W.power(-1.0 / p), f))
    return _leaf_l2(matvec(W.power(1.0 / p), mart.diffs))


def sparse_operator(an, family, r):
    """Sparse operator T_{W,r} of the analysis context ``an`` over the
    family: per leaf (sum over containing sets of
      ||W^{1/p}(l) dual_{k2}||^r (E_{k2} ||dual_{k2}^{-1} W^{-1/p} f||)^r)^{1/r}.

    ``family`` needs only ``sets`` whose members carry ``kappa2`` and
    ``leaves``, the sorted leaf indices of a union of level-kappa2 atoms:
    a PrincipalFamily is one."""
    if r < 1:
        raise ValidationError("r must be >= 1")
    acc = np.zeros(an.space.n_leaves)
    for s in family.sets:
        acc[s.leaves] += an.set_term(s.kappa2, s.leaves) ** r
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
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    return lp_norm(space, matvec(W.power(1.0 / p), f), p)
