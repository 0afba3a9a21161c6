from types import SimpleNamespace

import numpy as np
import pytest

from wml.analysis import Analysis
from wml.filtration import (build_dyadic, build_from_tree, cond_expect,
                            cond_expect_leaf, lp_norm, martingale_of)
from wml.linalg import ValidationError
from wml.operators import (lp_weighted_norm, sparse_operator, square_fn,
                           weighted_cond_expect, weighted_square_fn)
from wml.weights import MatrixWeight, as_weight, build_reducing_pair


def _random_space(rng, depth=5):
    def node(mass, lvl):
        out = {"mass": mass}
        if lvl < depth and (lvl == 0 or rng.random() < 0.6):
            k = int(rng.integers(2, 4))
            frac = rng.dirichlet(np.ones(k) * 2.0)
            out["children"] = [node(mass * f, lvl + 1) for f in frac]
        return out
    return build_from_tree(node(1.0, 0))


def _family(space, *sets):
    """A family as sparse_operator reads it, from (kappa2, atoms) pairs:
    each set carries kappa2 and the sorted leaves of its level-kappa2 atoms."""
    def leaves(kappa2, atoms):
        off = space.offsets[kappa2]
        return np.concatenate([np.arange(off[a], off[a + 1]) for a in atoms])
    return SimpleNamespace(sets=tuple(
        SimpleNamespace(kappa2=k, leaves=leaves(k, atoms)) for k, atoms in sets))


def _sparse_operator_scalar(space, w, p, family, r, f):
    """d = 1 oracle of the sparse operator without reducers:
    per leaf (sum over sets of w^{r/p}(l) (E_{k2} |w^{-1/p} f|)^r)^{1/r}."""
    normalized = np.abs(w ** (-1.0 / p) * f)
    acc = np.zeros(space.n_leaves)
    for s in family.sets:
        avg = cond_expect_leaf(space, normalized, s.kappa2)[s.leaves]
        acc[s.leaves] += w[s.leaves] ** (r / p) * avg ** r
    return acc ** (1.0 / r)


def _reduced_maximal(an):
    """Per leaf, max over levels n of E_n ||dual_n^{-1} W^{-1/p} f||."""
    return an.level_averages()[an.space.tiled_labels].max(axis=0)


def test_square_fn_examples():
    sp = build_dyadic(2)
    assert np.max(square_fn(sp, martingale_of(sp, np.full(4, 2.0)))) == 0.0
    s = square_fn(sp, martingale_of(sp, np.array([1.0, 0.0, 0.0, 0.0])))
    assert s[0] == pytest.approx(np.sqrt(5.0) / 4.0, abs=1e-14)
    assert s[2] == pytest.approx(0.25, abs=1e-14)


def test_square_fn_pythagoras_oracle():
    rng = np.random.default_rng(0)
    sp = _random_space(rng)
    f = rng.standard_normal(sp.n_leaves)
    s = square_fn(sp, martingale_of(sp, f))
    mean = float(np.sum(sp.leaf_probs * f))
    lhs = lp_norm(sp, s, 2.0) ** 2 + mean ** 2
    assert lhs == pytest.approx(lp_norm(sp, f, 2.0) ** 2, rel=1e-12)


def test_square_fn_modes():
    # the analysis context holds the square-function modes; under the unit
    # weight its increments are those of f
    sp = build_dyadic(2)
    f = np.array([3.0, 1.0, -2.0, 0.5])
    m = martingale_of(sp, f)
    an = Analysis(build_reducing_pair(sp, as_weight(np.ones(4)), 2.0), f)
    inc = square_fn(sp, m)
    assert np.array_equal(an.square(), inc)
    fv = an.square("first_value")
    mean = np.sum(sp.leaf_probs * f)
    lvl1 = m.leaf_levels[1][:, 0]
    assert np.allclose(fv ** 2, inc ** 2 - (lvl1 - mean) ** 2 + lvl1 ** 2,
                       atol=1e-12)
    for mode in ("nope", "with_mean"):
        with pytest.raises(ValidationError, match="unknown square-function"):
            an.square(mode)


def test_weighted_square_fn_identity_weight_collapses():
    rng = np.random.default_rng(1)
    sp = _random_space(rng)
    f = rng.standard_normal((sp.n_leaves, 2))
    W = MatrixWeight.identity(sp.n_leaves, 2)
    sw = weighted_square_fn(sp, W, 3.0, f)
    s = square_fn(sp, martingale_of(sp, f))
    assert np.max(np.abs(sw - s)) < 1e-12
    assert np.max(weighted_square_fn(sp, W, 3.0, np.zeros_like(f))) == 0.0


def test_weighted_square_fn_conjugation_identity():
    rng = np.random.default_rng(2)
    sp = _random_space(rng)
    w = np.exp(rng.normal(0.0, 1.3, sp.n_leaves))
    h = rng.standard_normal(sp.n_leaves)
    for p in (1.5, 2.0, 3.0):
        lhs = weighted_square_fn(sp, as_weight(w), p, w ** (1.0 / p) * h)
        rhs = w ** (1.0 / p) * square_fn(sp, martingale_of(sp, h))
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        # norm version: ||S_w(w^{1/p} h)||_p equals the weighted norm of S h
        assert lp_norm(sp, lhs, p) == pytest.approx(
            lp_weighted_norm(sp, as_weight(w), p,
                             square_fn(sp, martingale_of(sp, h))), rel=1e-10)


def test_operator_homogeneity():
    rng = np.random.default_rng(3)
    sp = _random_space(rng)
    W = as_weight(np.exp(rng.normal(0.0, 1.0, sp.n_leaves)))
    pair = build_reducing_pair(sp, W, 2.0)
    f = rng.standard_normal((sp.n_leaves, 1))
    c = -3.7
    sw = weighted_square_fn(sp, W, 2.0, f)
    assert np.allclose(weighted_square_fn(sp, W, 2.0, c * f),
                       abs(c) * sw, rtol=1e-12)
    mx = _reduced_maximal(Analysis(pair, f))
    assert np.allclose(_reduced_maximal(Analysis(pair, c * f)),
                       abs(c) * mx, rtol=1e-12)


def test_reduced_maximal_is_doob_for_unweighted_scalar():
    rng = np.random.default_rng(4)
    sp = _random_space(rng)
    w = as_weight(np.ones(sp.n_leaves))
    pair = build_reducing_pair(sp, w, 2.0)
    f = rng.standard_normal(sp.n_leaves)
    got = _reduced_maximal(Analysis(pair, f))
    doob = np.max([cond_expect_leaf(sp, np.abs(f), n)
                   for n in range(sp.depth + 1)], axis=0)
    assert np.max(np.abs(got - doob)) < 1e-12


def test_reduced_maximal_exhaustive_oracle():
    rng = np.random.default_rng(5)
    sp = build_dyadic(3)
    q, _ = np.linalg.qr(rng.standard_normal((8, 2, 2)))
    lam = np.exp(rng.normal(0.0, 1.0, (8, 2)))
    W = MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))
    pair = build_reducing_pair(sp, W, 3.0)
    f = rng.standard_normal((8, 2))
    got = _reduced_maximal(Analysis(pair, f))
    h = np.einsum("lij,lj->li", pair.wm, f)
    for leaf in range(8):
        best = -np.inf
        for n in range(sp.depth + 1):
            a = sp.labels[n][leaf]
            lo, hi = sp.offsets[n][a], sp.offsets[n][a + 1]
            inv = pair.tiled_dual_inv[sp.atom_base[n] + a]
            num = sum(sp.leaf_probs[i] * np.linalg.norm(inv @ h[i])
                      for i in range(lo, hi))
            best = max(best, num / sp.atom_probs[n][a])
        assert got[leaf] == pytest.approx(best, rel=1e-12)


def test_constant_inputs_give_constant_maximal():
    sp = build_dyadic(2)
    W = MatrixWeight(np.tile(np.diag([2.0, 0.5]), (4, 1, 1)))
    pair = build_reducing_pair(sp, W, 2.0)
    f = np.tile([1.0, -1.0], (4, 1))
    vals = _reduced_maximal(Analysis(pair, f))
    assert np.ptp(vals) < 1e-10


def test_sparse_operator_whole_space_identity_weight():
    rng = np.random.default_rng(6)
    sp = _random_space(rng)
    W = MatrixWeight.identity(sp.n_leaves, 2)
    pair = build_reducing_pair(sp, W, 2.0)
    f = rng.standard_normal((sp.n_leaves, 2))
    fam = _family(sp, (0, [0]))   # Omega at level 0
    t = sparse_operator(Analysis(pair, f), fam, 2.0)
    target = float(np.sum(sp.leaf_probs * np.linalg.norm(f, axis=1)))
    assert np.allclose(t, target, rtol=0.1)   # reducers only fit-exact
    assert np.max(sparse_operator(Analysis(pair, np.zeros_like(f)), fam,
                                  2.0)) == 0.0


def test_sparse_operator_scalar_example():
    sp = build_dyadic(1)
    fam = _family(sp, (0, [0]))   # Omega at level 0
    w = np.array([4.0, 1.0])
    f = np.array([1.0, 0.0])
    # E|w^{-1/2} f| = 1/4; leaf 0 carries w^{r/p} = 4 -> value 1/2
    t = _sparse_operator_scalar(sp, w, 2.0, fam, 2.0, f)
    assert t == pytest.approx([0.5, 0.25], abs=1e-14)
    an = Analysis(build_reducing_pair(sp, as_weight(w), 2.0), f)
    assert sparse_operator(an, fam, 2.0) == pytest.approx([0.5, 0.25],
                                                          abs=1e-14)
    assert np.max(_sparse_operator_scalar(sp, w, 2.0, fam, 2.0,
                                          np.zeros(2))) == 0.0


def test_sparse_operator_scalar_matches_matrix_at_d1():
    rng = np.random.default_rng(7)
    sp = _random_space(rng)
    w = np.exp(rng.normal(0.0, 1.0, sp.n_leaves))
    pair = build_reducing_pair(sp, as_weight(w), 2.0)
    f = rng.standard_normal(sp.n_leaves)
    fam = _family(sp, (0, [0]), (1, range(len(sp.atom_probs[1]))),
                  (2, range(0, len(sp.atom_probs[2]), 2)))
    a = sparse_operator(Analysis(pair, f[:, None]), fam, 2.0)
    b = _sparse_operator_scalar(sp, w, 2.0, fam, 2.0, f)
    assert np.max(np.abs(a - b)) < 1e-10


def test_sparse_embedding_and_interpolation():
    rng = np.random.default_rng(8)
    sp = _random_space(rng)
    q, _ = np.linalg.qr(rng.standard_normal((sp.n_leaves, 2, 2)))
    lam = np.exp(rng.normal(0.0, 1.0, (sp.n_leaves, 2)))
    W = MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))
    f = rng.standard_normal((sp.n_leaves, 2))
    fam = _family(sp, (0, [0]), (2, range(len(sp.atom_probs[2]))),
                  (3, range(0, len(sp.atom_probs[3]), 2)))
    for p in (1.5, 2.0):
        an = Analysis(build_reducing_pair(sp, W, p), f)
        t2 = sparse_operator(an, fam, 2.0)
        tp = sparse_operator(an, fam, p)
        assert np.all(t2 <= tp + 1e-10)
    for p in (3.0, 4.0):
        an = Analysis(build_reducing_pair(sp, W, p), f)
        theta = p / (2.0 * p - 2.0)
        t1 = sparse_operator(an, fam, 1.0)
        t2 = sparse_operator(an, fam, 2.0)
        tp = sparse_operator(an, fam, p)
        rhs = t1 ** (1.0 - theta) * tp ** theta
        assert np.all(t2 <= rhs * (1.0 + 1e-12) + 1e-10)


def test_weighted_cond_expect_examples():
    sp = build_dyadic(1)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(2)
    assert np.allclose(weighted_cond_expect(sp, np.ones(2), f, 0),
                       cond_expect(sp, f, 0), atol=1e-15)
    val = weighted_cond_expect(sp, np.array([4.0, 1.0]),
                               np.array([1.0, 0.0]), 0)
    assert val[0] == pytest.approx(0.8, abs=1e-14)
    assert np.allclose(weighted_cond_expect(sp, np.array([4.0, 1.0]),
                                            np.full(2, 2.5), 0), 2.5)
    with pytest.raises(ValidationError):
        weighted_cond_expect(sp, np.array([1.0, -1.0]), f, 0)


def test_lp_weighted_norm_examples():
    sp = build_dyadic(1)
    rng = np.random.default_rng(10)
    f = rng.standard_normal((2, 2))
    W = MatrixWeight.identity(2, 2)
    assert lp_weighted_norm(sp, W, 3.0, f) == pytest.approx(
        lp_norm(sp, f, 3.0), rel=1e-12)
    val = lp_weighted_norm(sp, as_weight(np.array([4.0, 1.0])), 2.0,
                           np.ones(2))
    assert val == pytest.approx(np.sqrt(2.5), rel=1e-12)
    assert lp_weighted_norm(sp, W, 2.0, np.zeros((2, 2))) == 0.0
