"""Property-based tests: the whole d = 1 battery passes on random trees
(with chains and tiny masses), at extreme exponents, and on degenerate
leaf functions, and the d >= 2 battery reports every failure as a check;
the one-pass martingale, adjoint, level-mean and reducer-norm kernels
match conditioning one level at a time, their gathers and reductions keep
the bytes of fancy indexing, np.tile and np.sum, and the fluctuation-table
kernel matches building one base level at a time. The norm estimator's
operator gives the bytes of the public primitives it stands for, and its
adjoint step is the adjoint of its forward map. At p = 2 the reducers of a
matrix weight reproduce their norms exactly."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wml.analysis import Analysis
from wml.experiments import _Operator
from wml.filtration import (_lp_norm, build_dyadic, build_from_tree,
                            cond_expect, increment_adjoint, level_means,
                            martingale_of)
from wml.linalg import _eig_compose, matvec, spectral_norm
from wml.operators import _leaf_l2
from wml.principal import fluctuation_tables
from wml.suite import (SPLIT, Instance, instance_checks, random_instance,
                       random_space)
from wml.weights import (EIG_CLIP_RATIO, MatrixWeight, _lewis_fit,
                         _range_pairs, _range_sums, as_weight,
                         build_reducing_pair, conjugate, reducer_norms,
                         verify_reducing_bounds)

from directions import holdout_directions

MAX_DEPTH = 6
FRACTIONS = st.one_of(st.floats(0.05, 1.0), st.sampled_from([1e-9, 1e-6, 1e-3]))


@st.composite
def tree_specs(draw):
    """Nested tree spec: the root splits, deeper nodes have 0 to 3 children
    (a single child is a chain), child masses may be tiny."""

    def node(mass, level):
        out = {"mass": mass}
        k = draw(st.integers(2 if level == 0 else 0, 3)) if level < MAX_DEPTH else 0
        if k:
            fracs = draw(st.lists(FRACTIONS, min_size=k, max_size=k))
            total = sum(fracs)
            out["children"] = [node(mass * fr / total, level + 1)
                               for fr in fracs]
        return out

    return node(1.0, 0)


@st.composite
def instances(draw, ps, f_kinds):
    space = build_from_tree(draw(tree_specs()))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n = space.n_leaves
    weight = as_weight(np.exp(rng.normal(0.0, draw(st.floats(0.0, 1.5)), n)))
    kind = draw(st.sampled_from(f_kinds))
    f = np.zeros((n, 1))
    if kind == "leaf":
        f[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-2.5, 1e-6, 1.0]))
    elif kind == "gauss":
        f = rng.standard_normal((n, 1)) * np.exp(rng.normal(0.0, 1.5, (n, 1)))
    return Instance(index=0, seed=seed % 10_000, depth=space.depth, d=1,
                    p=draw(st.sampled_from(ps)), space=space, weight=weight,
                    f=f)


def _assert_all_pass(inst):
    results, _ = instance_checks(inst)
    failed = [(r.name, r.measured, r.bound) for r in results if not r.passed]
    assert not failed, (inst.p, inst.space.n_leaves, failed)


@settings(max_examples=40, deadline=None)
@given(instances(ps=(1.5, 2.0, 3.0, 4.0), f_kinds=("gauss",)))
def test_battery_passes_on_random_trees(inst):
    _assert_all_pass(inst)


@settings(max_examples=30, deadline=None)
@given(instances(ps=(1.05, 8.0), f_kinds=("gauss", "leaf")))
def test_battery_passes_at_extreme_exponents(inst):
    _assert_all_pass(inst)


@settings(max_examples=30, deadline=None)
@given(instances(ps=(1.05, 2.0, 8.0), f_kinds=("zero", "leaf")))
def test_battery_passes_on_zero_and_single_leaf_functions(inst):
    _assert_all_pass(inst)


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


def _level_on_leaves(space, f, n):
    """Per-level oracle: cond_expect at level n, repeated over atom sizes."""
    return np.repeat(cond_expect(space, f, n), np.diff(space.offsets[n]),
                     axis=0)


@settings(max_examples=100, deadline=None)
@given(tree_specs(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_one_pass_kernels_match_per_level_conditioning(spec, d, seed):
    space = build_from_tree(spec)
    depth, n = space.depth, space.n_leaves
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, d)) * np.exp(rng.normal(0.0, 2.0, (n, 1)))
    f[rng.random(n) < 0.2] = 0.0
    mart = martingale_of(space, f)
    leaf_levels = np.stack([_level_on_leaves(space, f, m)
                            for m in range(depth + 1)])
    for m in range(depth + 1):
        assert _bits(mart.leaf_levels[m][space.offsets[m][:-1]]) \
            == _bits(cond_expect(space, f, m))
    assert _bits(mart.leaf_levels) == _bits(leaf_levels)
    assert _bits(mart.diffs) == _bits(leaf_levels[1:] - leaf_levels[:-1])

    y = rng.standard_normal((depth, n, d))
    y[rng.random((depth, n, d)) < 0.2] = -0.0
    for stack in ((y, y[:, :, 0]) if d == 1 else (y,)):
        acc = np.zeros(stack.shape[1:])
        for k in range(1, depth + 1):
            acc += (_level_on_leaves(space, stack[k - 1], k)
                    - _level_on_leaves(space, stack[k - 1], k - 1))
        assert _bits(increment_adjoint(space, stack)) == _bits(acc)

    # the conjugation, one matvec of the leaf matrices against the
    # increment stack, gives einsum's values up to d = 2; at d = 3 they may
    # differ by the rounding of a three-term sum
    wp = rng.standard_normal((n, d, d))
    conj = matvec(wp, mart.diffs)
    reference = np.einsum("lij,klj->kli", wp, mart.diffs)
    if d <= 2:
        assert np.array_equal(conj, reference)
    else:
        scale = np.einsum("lij,klj->kli", np.abs(wp), np.abs(mart.diffs))
        eps = np.finfo(float).eps
        assert np.all(np.abs(conj - reference) <= 4 * eps * scale)


def _fancy_martingale(space, f):
    """``martingale_of``'s leaf levels and increments built by ``np.tile``
    and fancy indexing, the expressions ``take`` and ``repeat`` replaced."""
    atoms = np.add.reduceat(
        np.tile(space.leaf_probs[:, None] * f, (space.depth + 1, 1)),
        space.tiled_starts, axis=0) / space.tiled_atom_probs[:, None]
    leaf_levels = atoms[space.tiled_labels]
    return leaf_levels, leaf_levels[1:] - leaf_levels[:-1]


def _fancy_increment_adjoint(space, y):
    """``increment_adjoint`` of a (D, L, d) stack with fancy indexing."""
    depth, n = space.depth, space.n_leaves
    weighted = (space.leaf_probs[:, None] * y).reshape(depth * n, -1)
    starts, probs = space.tiled_starts, space.tiled_atom_probs[:, None]
    upper = np.add.reduceat(weighted, starts[1:] - n, axis=0) / probs[1:]
    lower = np.add.reduceat(weighted, starts[:-n], axis=0) / probs[:-n]
    at = space.tiled_labels
    terms = upper[at[1:] - 1] - lower[at[:-1]]
    return np.add.reduce(terms, axis=0, initial=0.0)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.integers(1, MAX_DEPTH), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_gathers_and_reductions_keep_their_bytes(dyadic, depth, d, seed):
    # martingale_of and increment_adjoint gather with take and tile with
    # repeat, and the norms reduce with np.add.reduce: the same bytes as
    # fancy indexing, np.tile and np.sum, on suite and dyadic trees
    rng = np.random.default_rng(seed)
    space = (build_dyadic(depth) if dyadic
             else random_space(rng, depth, *SPLIT[d]))
    n = space.n_leaves
    f = rng.standard_normal((n, d)) * np.exp(rng.normal(0.0, 2.0, (n, 1)))
    f[rng.random(n) < 0.2] = 0.0
    leaf_levels, diffs = _fancy_martingale(space, f)
    for g in ((f, f[:, 0]) if d == 1 else (f,)):
        mart = martingale_of(space, g)
        assert _bits(mart.leaf_levels) == _bits(leaf_levels)
        assert _bits(mart.diffs) == _bits(diffs)

    y = rng.standard_normal((space.depth, n, d))
    y[rng.random(y.shape) < 0.2] = -0.0
    ref = _fancy_increment_adjoint(space, y)
    assert _bits(increment_adjoint(space, y)) == _bits(ref)
    if d == 1:
        assert _bits(increment_adjoint(space, y[:, :, 0])) == _bits(ref[:, 0])

    mag = np.sqrt(np.sum(f * f, axis=1))
    for p in (1.5, 2.0, 3.0):
        assert _lp_norm(space, f, p) == float(np.sum(
            space.leaf_probs * mag ** p) ** (1.0 / p))
        assert _lp_norm(space, f[:, 0], p) == float(np.sum(
            space.leaf_probs * np.abs(f[:, 0]) ** p) ** (1.0 / p))
    assert _bits(_leaf_l2(diffs)) == _bits(
        np.sqrt(np.sum(diffs * diffs, axis=(0, -1))))


def _inner(space, a, b):
    """<a, b> in L2(P) of two (..., L, d) stacks, summed over the leading
    axis."""
    return float(np.sum(space.leaf_probs[:, None] * a * b))


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.integers(1, MAX_DEPTH), st.integers(1, 3),
       st.sampled_from((1.2, 1.5, 2.0, 3.0)), st.integers(0, 2 ** 32 - 1))
def test_estimator_operator_matches_the_public_primitives(dyadic, depth, d,
                                                          p, seed):
    # T f = (W^{1/p} d_k W^{-1/p} f)_k and its adjoint step W^{-1/p} T0*
    # (spow W^{2/p} d) give the bytes of matvec, martingale_of and
    # increment_adjoint composed, and <T f, y> = <f, T* y> for
    # y = spow W^{1/p} z, on suite and dyadic trees
    rng = np.random.default_rng(seed)
    space = (build_dyadic(depth) if dyadic
             else random_space(rng, depth, *SPLIT[d]))
    n = space.n_leaves
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    weight = MatrixWeight(_eig_compose(q, np.exp(rng.normal(0.0, 1.2,
                                                            (n, d)))))
    wp, wm = weight.power(1.0 / p), weight.power(-1.0 / p)
    w2p = wp @ wp
    op = _Operator(space, weight, p)
    f = rng.standard_normal((n, d)) * np.exp(rng.normal(0.0, 2.0, (n, 1)))
    f[rng.random(n) < 0.2] = 0.0

    diffs, s = op.point(f)
    ref = martingale_of(space, matvec(wm, f)).diffs
    tf = matvec(wp, ref)
    assert _bits(diffs) == _bits(ref)
    assert _bits(s) == _bits(np.sqrt(np.sum(tf * tf, axis=(0, 2))))
    with np.errstate(divide="ignore"):
        grad, phi = op.gradient(p, (diffs, s))
        spow = np.where(s > 1e-300, s ** (p - 2.0), 0.0)
    assert _bits(grad) == _bits(p * matvec(wm, increment_adjoint(
        space, spow[:, None] * matvec(w2p, ref))))
    assert phi == float(np.sum(space.leaf_probs * s ** p))

    z = rng.standard_normal((space.depth, n, d))
    spow = np.exp(rng.normal(0.0, 1.0, n))
    y = spow[:, None] * matvec(wp, z)
    t_star = op.adjoint(z, spow)
    assert _bits(t_star) == _bits(matvec(wm, increment_adjoint(
        space, spow[:, None] * matvec(w2p, z))))
    lhs, rhs = _inner(space, tf, y), _inner(space, f, t_star)
    scale = max(math.sqrt(_inner(space, tf, tf) * _inner(space, y, y)),
                math.sqrt(_inner(space, f, f) * _inner(space, t_star, t_star)))
    assert abs(lhs - rhs) <= 1e-12 * scale, (lhs, rhs, scale)


@settings(max_examples=100, deadline=None)
@given(tree_specs(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_level_kernels_match_per_level_loops(spec, d, seed):
    space = build_from_tree(spec)
    depth, n, base = space.depth, space.n_leaves, space.atom_base
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((depth + 1, n, d)) \
        * np.exp(rng.normal(0.0, 2.0, (depth + 1, n, 1)))
    stack[rng.random((depth + 1, n)) < 0.2] = 0.0
    means = level_means(space, stack)
    scalar = level_means(space, stack[..., 0])
    for m in range(depth + 1):
        level = slice(base[m], base[m + 1])
        assert _bits(means[level]) == _bits(cond_expect(space, stack[m], m))
        assert _bits(scalar[level]) == _bits(
            cond_expect(space, stack[m, :, 0], m))

    # one spectral_norm over every level: up to d = 3 it is a closed form
    # of each matrix alone, so it gives the bytes of one call per level
    leaf = rng.standard_normal((n, d, d))
    tiled = rng.standard_normal((base[-1], d, d))
    table = reducer_norms(space, leaf, tiled)
    for m in range(depth + 1):
        ref = spectral_norm(leaf @ space.expand(m, tiled[base[m]:base[m + 1]]))
        assert _bits(table[m]) == _bits(ref)


@settings(max_examples=100, deadline=None)
@given(tree_specs(), st.integers(0, 2 ** 32 - 1))
def test_range_sums_match_exactly_rounded_sums(spec, seed):
    # the Lewis fit's per-range sums over its (range, leaf) pairs: every
    # atom's leaf range is summed on its own from its own terms, so a range
    # of tiny mass after heavy leaves keeps its relative accuracy; a sum of
    # m positive terms in any order is within (m - 1) eps of the exactly
    # rounded math.fsum
    space = build_from_tree(spec)
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.normal(0.0, 2.0, (space.n_leaves, 24)))
    starts = np.concatenate([off[:-1] for off in space.offsets])
    stops = np.concatenate([off[1:] for off in space.offsets])
    leaf, first = _range_pairs(starts, stops)
    assert np.array_equal(leaf, np.concatenate(
        [np.arange(a, b) for a, b in zip(starts, stops)]))
    got = _range_sums(space.leaf_probs[leaf, None] * vals[leaf], first)
    masses = _range_sums(space.leaf_probs[leaf], first)
    eps = np.finfo(float).eps
    for row, mass, a, b in zip(got, masses, starts, stops):
        terms = space.leaf_probs[a:b, None] * vals[a:b]
        ref = np.array([math.fsum(col) for col in terms.T])
        assert np.all(np.abs(row - ref) <= (b - a - 1) * eps * ref)
        ref = math.fsum(space.leaf_probs[a:b])
        assert abs(mass - ref) <= (b - a - 1) * eps * ref


def _table_one_base(space, mart, dual_inv, average, base):
    """Per-base oracle: (den, diff_num, avg_num, ratio) of one base level,
    two einsum products and a norm per target level, given the level-base
    inverse dual reducers and level averages (one per atom)."""
    dual_inv = space.expand(base, dual_inv)
    depth, n_leaves = space.depth, space.n_leaves
    diff_num = np.zeros((depth + 1, n_leaves))
    avg_num = np.zeros((depth + 1, n_leaves))
    acc = np.zeros(n_leaves)
    for m in range(base + 1, depth + 1):
        acc = acc + np.sum(np.einsum("lij,lj->li", dual_inv, mart.diff(m))
                           ** 2, axis=1)
        diff_num[m] = np.sqrt(acc)
        avg_num[m] = np.linalg.norm(
            np.einsum("lij,lj->li", dual_inv, mart.leaf_levels[m]), axis=1)
    den = space.expand(base, average)
    live = den > 0.0
    num = np.maximum(diff_num, avg_num)
    ratio = np.where(live, num / np.where(live, den, 1.0), 0.0)
    return den, diff_num, avg_num, ratio


def _assert_tables_match_per_base(space, mart, tiled_dual_inv, averages):
    """fluctuation_tables against the per-base oracle at every base: bitwise
    at d = 1, within 1e-14 relative at d >= 2."""
    base = space.atom_base
    tables = fluctuation_tables(space, mart,
                                tiled_dual_inv[space.tiled_labels], averages)
    for n in range(space.depth):
        level = slice(base[n], base[n + 1])
        oracle = _table_one_base(space, mart, tiled_dual_inv[level],
                                 averages[level], n)
        for name, want in zip(("den", "diff_num", "avg_num", "ratio"), oracle):
            got = getattr(tables, name)[n]
            if mart.diffs.shape[2] == 1:
                assert _bits(got) == _bits(want), (n, name)
            else:
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), \
                    (n, name)


@settings(max_examples=100, deadline=None)
@given(tree_specs(), st.integers(1, 3), st.sampled_from(("gauss", "zero",
                                                        "constant")),
       st.integers(0, 2 ** 32 - 1))
def test_fluctuation_tables_match_per_base_loop(spec, d, kind, seed):
    space = build_from_tree(spec)
    n = space.n_leaves
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        g = rng.standard_normal((n, d)) * np.exp(rng.normal(0.0, 2.0, (n, 1)))
        g[rng.random(n) < 0.2] = 0.0
    else:
        g = np.full((n, d), 0.0 if kind == "zero" else rng.normal())
    # SPD inverse dual reducers of every atom of every level, in random
    # frames with log-eigenvalues of spread 2
    q, _ = np.linalg.qr(rng.standard_normal((space.atom_base[-1], d, d)))
    tiled = (q * np.exp(2.0 * rng.standard_normal((len(q), 1, d)))) \
        @ np.swapaxes(q, 1, 2)
    averages = level_means(space, np.linalg.norm(np.einsum(
        "klij,lj->kli", tiled[space.tiled_labels], g), axis=2))
    # a vanishing average over non-zero values (an underflowed sum) still
    # gives ratio 0
    averages[rng.random(averages.shape) < 0.1] = 0.0
    _assert_tables_match_per_base(space, martingale_of(space, g), tiled,
                                  averages)


def test_analysis_tables_match_per_base_loop():
    # the reducers of a fitted pair, d = 1, 2, 3, through the analysis
    # context, which reads the level averages from its own product
    for index in range(3):
        inst = random_instance(index, seed=7, depth_range=(7, 7))
        pair = build_reducing_pair(inst.space, inst.weight, inst.p)
        an = Analysis(pair, inst.f)
        averages = level_means(an.space, np.linalg.norm(np.einsum(
            "klij,lj->kli", pair.tiled_dual_inv[an.space.tiled_labels],
            an.g), axis=2))
        if inst.d == 1:
            assert _bits(an.level_averages()) == _bits(averages)
        else:
            assert np.all(np.abs(an.level_averages() - averages)
                          <= 1e-14 * averages)
        _assert_tables_match_per_base(an.space, an.mart, pair.tiled_dual_inv,
                                      an.level_averages())
        tables = an.tables()
        for n in range(an.space.depth):
            # the table of base n views row n of the tables of every base
            for name in ("den", "diff_num", "avg_num", "ratio"):
                got, row = getattr(an.table(n), name), getattr(tables, name)[n]
                assert got.__array_interface__ == row.__array_interface__


@st.composite
def matrix_weights(draw, spreads=st.floats(0.0, -np.log(EIG_CLIP_RATIO))):
    """A d = 2 or 3 weight on a random tree: leaf matrices in random frames
    whose log-eigenvalues spread up to the EIG_CLIP_RATIO clip (a spread
    drawn from ``spreads``), each leaf scaled over two decades either
    way."""
    space = build_from_tree(draw(tree_specs()))
    d = draw(st.sampled_from((2, 3)))
    spread = draw(spreads)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = space.n_leaves
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    lam = np.exp(-spread * rng.random((n, d)))
    lam[:, 0] = np.exp(-spread)
    lam *= 10.0 ** rng.uniform(-2.0, 2.0, (n, 1))
    with warnings.catch_warnings():
        # the full spread may round just past the clip
        warnings.simplefilter("ignore", RuntimeWarning)
        weight = MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))
    return space, weight


@settings(max_examples=200, deadline=None)
@given(matrix_weights(), st.sampled_from((1.05, 1.5, 3.0, 8.0)),
       st.integers(0, 2 ** 32 - 1))
def test_matrix_battery_reports_every_failure(case, p, seed):
    # every d >= 2 failure would be a reported check: instance_checks
    # returns on every draw, and no check fails. The sampled Loewner fit
    # failed its held-out certificate on 21 of 200 derandomized draws of
    # this strategy (12 at p = 1.05, 8 at 1.5, 1 at 3); the block Lewis
    # fit proves its certificate and stops inside the window on all 200
    space, W = case
    f = np.random.default_rng(seed).standard_normal((space.n_leaves, W.dim))
    inst = Instance(index=0, seed=seed % 10_000, depth=space.depth, d=W.dim,
                    p=p, space=space, weight=W, f=f)
    results, _ = instance_checks(inst)
    failed = [(r.name, r.measured, r.bound) for r in results if not r.passed]
    assert not failed, (p, space.n_leaves, failed)


def _multi_leaf_ranges(space):
    starts = np.concatenate([off[:-1] for off in space.offsets])
    stops = np.concatenate([off[1:] for off in space.offsets])
    keep = stops - starts > 1
    return np.unique(np.stack([starts[keep], stops[keep]], axis=1),
                     axis=0).T


@settings(max_examples=100, deadline=None)
@given(matrix_weights(st.sampled_from(
    (0.0, 4.0, 16.0, 23.0, -np.log(EIG_CLIP_RATIO)))),
    st.sampled_from((1.05, 1.5, 3.0, 8.0)))
def test_lewis_bounds_hold_on_a_dense_sample(case, p):
    # each atom's fit proves alpha ||M^{1/2} e|| <= rho(e) <= beta
    # ||M^{1/2} e|| for every e, so its reducer A = alpha M^{1/2} has
    # low <= ||A e|| / rho(e) <= 1 with its own low = alpha / beta. On a
    # dense sample both hold up to the rounding of the whitened blocks
    # A_l X, about eps cond(A) relative: A's condition number reaches 1e9
    # at p = 1.05 near the clip, where a sampled direction exceeded a
    # proved bound by 1.1e-7, or 2.0 eps cond(A), the most in 450 draws
    # of spreads 4, 16, 23 and the clip; the margin is 8 eps cond(A)
    space, W = case
    d, q = W.dim, conjugate(p)
    starts, stops = _multi_leaf_ranges(space)
    wp, wm = W.power(1.0 / p), W.power(-1.0 / p)
    fit, _, low = _lewis_fit(space.leaf_probs, starts, stops,
                             [(wp, wm, p), (wm, wp, q)], 1000)
    dirs = holdout_directions(d, 1000 * d, seed=space.n_leaves)
    eps = np.finfo(float).eps
    for s, (mats, r) in enumerate(((wp, p), (wm, q))):
        norms = np.linalg.norm(np.einsum("lij,nj->lni", mats, dirs), axis=2)
        for k, (a, b) in enumerate(zip(starts, stops)):
            pi = space.leaf_probs[a:b] / math.fsum(space.leaf_probs[a:b])
            top = norms[a:b].max(axis=0)
            rho = top * (pi @ (norms[a:b] / top) ** r) ** (1.0 / r)
            ratio = np.linalg.norm(dirs @ fit[s, k].T, axis=1) / rho
            margin = 8.0 * eps * np.linalg.cond(fit[s, k])
            assert low[s, k] <= 1.0
            assert ratio.max() <= 1.0 + margin, (s, k, ratio.max() - 1.0)
            assert ratio.min() >= low[s, k] * (1.0 - margin), \
                (s, k, 1.0 - ratio.min() / low[s, k])


@settings(max_examples=60, deadline=None)
@given(matrix_weights())
def test_p2_reducers_are_exact(case):
    # ||A e|| / rho(e) on held-out directions, rho(e)^2 = E_Q ||S^{1/2} e||^2
    # from a direct norm of the leaf powers S^{1/2} = W^{1/2} (primal) and
    # W^{-1/2} (dual) that the pair carries. The reducer is computed from
    # the averages of S, so the ratio is 1 up to the backward error of
    # jacobi_eigh, a few eps of the matrix norm (its sweeps stop below
    # 1e-14 of the Frobenius norm), on each leaf S and on each average
    # E_Q S. Against rho(e)^2 that error is scaled by kappa_e =
    # E_Q ||S|| / E_Q ||S^{1/2} e||^2, which is at most the largest leaf
    # condition number. So |ratio^2 - 1| <= 64 d^2 eps kappa_e, with d^2
    # covering the Frobenius-to-spectral norm factor; the worst of 300
    # draws was 4.6 d^2 eps kappa_e.
    space, W = case
    d = W.dim
    pair = build_reducing_pair(space, W, 2.0)
    assert pair.method == "exact_p2" and pair.certificate == {}
    dirs = holdout_directions(d, 200, seed=space.n_leaves)
    base = space.atom_base
    for leaf_root, tiled in ((pair.wp, pair.tiled_primal),
                             (pair.wm, pair.tiled_dual)):
        sq = np.linalg.norm(np.einsum("lij,nj->lni", leaf_root, dirs),
                            axis=2) ** 2
        top = np.linalg.norm(leaf_root, 2, axis=(1, 2)) ** 2
        for m in range(space.depth + 1):
            rho_sq = cond_expect(space, sq, m)
            kappa = cond_expect(space, top, m)[:, None] / rho_sq
            got = np.linalg.norm(np.einsum(
                "kij,nj->kni", tiled[base[m]:base[m + 1]], dirs), axis=2)
            err = np.abs(got ** 2 / rho_sq - 1.0)
            assert np.all(err <= 64.0 * d ** 2 * np.finfo(float).eps
                          * kappa), (m, float(err.max()), float(kappa.max()))
    rep = verify_reducing_bounds(pair)
    assert rep["primal_ok"] and rep["dual_ok"], rep
