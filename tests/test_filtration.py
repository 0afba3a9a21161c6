import math

import numpy as np
import pytest

from wml.filtration import (FilteredSpace, build_dyadic, build_from_tree,
                            cond_expect, cond_expect_leaf, lp_norm,
                            martingale_of)
from wml.linalg import ValidationError


def _n_atoms(sp):
    return [len(off) - 1 for off in sp.offsets]


def test_build_dyadic_shapes_and_probs():
    sp = build_dyadic(2)
    assert _n_atoms(sp) == [1, 2, 4]
    assert np.allclose(sp.leaf_probs, 0.25)
    with pytest.raises(ValidationError, match="depth must be >= 1"):
        build_dyadic(0)

    # other leaf probabilities on the dyadic levels
    sp = FilteredSpace(depth=1, leaf_probs=[0.3, 0.7],
                       offsets=build_dyadic(1).offsets)
    assert np.allclose(sp.leaf_probs, [0.3, 0.7])


def test_build_dyadic_depth12_mass():
    sp = build_dyadic(12)
    assert sp.n_leaves == 4096
    # independent summation oracle
    assert abs(math.fsum(sp.leaf_probs.tolist()) - 1.0) < 1e-12


def test_space_rejects_bad_leaf_probs():
    offsets = build_dyadic(1).offsets
    with pytest.raises(ValidationError, match="positive probability"):
        FilteredSpace(depth=1, leaf_probs=[0.5, -0.5], offsets=offsets)
    with pytest.raises(ValidationError, match="sum to 1.1"):
        FilteredSpace(depth=1, leaf_probs=[0.5, 0.6], offsets=offsets)
    with pytest.raises(ValidationError, match="level 0 offsets malformed"):
        FilteredSpace(depth=1, leaf_probs=[0.2, 0.3, 0.5], offsets=offsets)


def test_build_from_tree_three_children():
    sp = build_from_tree({"mass": 1.0, "children": [
        {"mass": 0.5}, {"mass": 0.25}, {"mass": 0.25}]})
    assert sp.depth == 1
    assert sp.n_leaves == 3
    assert np.allclose(sp.leaf_probs, [0.5, 0.25, 0.25])


def test_build_from_tree_persisting_atom():
    # one branch never splits again: its atom persists across levels
    sp = build_from_tree({"mass": 1.0, "children": [
        {"mass": 0.5},
        {"mass": 0.5, "children": [{"mass": 0.25}, {"mass": 0.25}]}]})
    assert sp.depth == 2
    assert sp.n_leaves == 3
    assert _n_atoms(sp) == [1, 2, 3]
    # each (level, leaf) atom's position in the tiled level index, built once
    assert sp.tiled_labels.tolist() == [[0, 0, 0], [1, 2, 2], [3, 4, 5]]
    assert not sp.tiled_labels.flags.writeable


def test_build_from_tree_rejects_bad_masses_and_cycles():
    with pytest.raises(ValidationError):
        build_from_tree({"mass": 1.0, "children": [
            {"mass": 0.5}, {"mass": 0.6}]})
    shared = {"mass": 0.5}
    with pytest.raises(ValidationError):
        build_from_tree({"mass": 1.0, "children": [shared, shared]})


@pytest.mark.parametrize("spec, message", [
    ({"mass": 1.0, "children": [{"mass": 0.5}, 3]},
     "'children' must be a list of nodes"),
    ({"mass": 1.0, "children": 5}, "'children' must be a list of nodes"),
    ({"mass": "x"}, "node masses must be numbers, got 'x'"),
    ({"mass": 1.0, "children": [{"mass": 0.5}, {"mass": [0.5]}]},
     "node masses must be numbers, got [0.5]"),
    ({"mass": 1.0, "children": [{"mass": float("nan")}, {"mass": 0.5}]},
     "node masses must be positive"),
    ({"mass": float("nan")}, "node masses must be positive"),
], ids=["child-not-a-node", "children-not-a-list", "mass-not-a-number",
        "child-mass-not-a-number", "nan-child", "nan-root"])
def test_build_from_tree_rejects_malformed_json_nodes(spec, message):
    with pytest.raises(ValidationError) as exc:
        build_from_tree(spec)
    assert message in str(exc.value)


def _offsets(*levels):
    return tuple(np.array(off) for off in levels)


@pytest.mark.parametrize("offsets, message", [
    # level 2 drops the start 3 of level 1, and level 3 the start 2 of level 2
    (_offsets([0, 6], [0, 3, 6], [0, 2, 6], [0, 1, 4, 6],
              [0, 1, 2, 3, 4, 5, 6]), "level 2 does not refine level 1"),
    (_offsets([0, 6], [0, 3, 6], [0, 2, 3, 6], [0, 2, 4, 6],
              [0, 1, 2, 3, 4, 5, 6]), "level 3 does not refine level 2"),
    (_offsets([0, 6], [0, 3, 3, 6], [0, 2, 3, 6], [0, 2, 3, 4, 6],
              [0, 1, 2, 3, 4, 5, 6]), "level 1 offsets malformed"),
    (_offsets([0, 6], [0, 3, 6], [1, 3, 6], [0, 2, 3, 4, 6],
              [0, 1, 2, 3, 4, 5, 6]), "level 2 offsets malformed"),
    (_offsets([0, 6], [0, 3, 6], [0, 2, 3, 6], [0, 2, 3, 4, 5],
              [0, 1, 2, 3, 4, 5, 6]), "level 3 offsets malformed"),
], ids=["refine-2", "refine-3", "repeated-start", "first-not-0",
        "last-not-leaves"])
def test_space_rejects_offsets_that_do_not_refine(offsets, message):
    with pytest.raises(ValidationError) as exc:
        FilteredSpace(depth=4, leaf_probs=np.full(6, 1.0 / 6.0),
                      offsets=offsets)
    assert str(exc.value) == message


def test_space_rejects_empty_offsets():
    with pytest.raises(ValidationError, match="level 0 offsets malformed"):
        FilteredSpace(depth=1, leaf_probs=[0.5, 0.5], offsets=([], [0, 1, 2]))


def _random_space(rng, depth=6, split_p=0.6):
    def node(mass, lvl):
        out = {"mass": mass}
        if lvl < depth and (lvl == 0 or rng.random() < split_p):
            k = int(rng.integers(2, 4))
            frac = rng.dirichlet(np.ones(k))
            out["children"] = [node(mass * f, lvl + 1) for f in frac]
        return out
    return build_from_tree(node(1.0, 0))


def test_random_tree_refinement_structure():
    rng = np.random.default_rng(5)
    sp = _random_space(rng, depth=8, split_p=0.75)
    assert sp.n_leaves >= 100
    for n in range(1, sp.depth + 1):
        # each boundary of the coarser level is a boundary of the finer one
        assert set(sp.offsets[n - 1]).issubset(set(sp.offsets[n]))
        # child masses resum to parents
        parents = np.zeros(len(sp.atom_probs[n - 1]))
        parent = sp.labels[n - 1][sp.offsets[n][:-1]]
        np.add.at(parents, parent, sp.atom_probs[n])
        assert np.allclose(parents, sp.atom_probs[n - 1], atol=1e-12)


def test_cond_expect_examples():
    sp = build_dyadic(2)
    f = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(cond_expect(sp, f, 2), f)          # n = D: identity
    assert np.allclose(cond_expect(sp, f, 1), [0.5, 0.0])  # direct averaging
    assert np.allclose(cond_expect(sp, f, 0), [0.25])      # global mean
    with pytest.raises(ValidationError):
        cond_expect(sp, f, 3)


def test_cond_expect_brute_force_oracle():
    rng = np.random.default_rng(6)
    sp = _random_space(rng)
    f = rng.standard_normal((sp.n_leaves, 2))
    for n in range(sp.depth + 1):
        got = cond_expect(sp, f, n)
        off = sp.offsets[n]
        for a, (lo, hi) in enumerate(zip(off[:-1], off[1:])):
            num = sum(sp.leaf_probs[i] * f[i] for i in range(lo, hi))
            den = sum(sp.leaf_probs[i] for i in range(lo, hi))
            assert np.allclose(got[a], num / den, atol=1e-12)


def test_martingale_examples():
    sp = build_dyadic(2)
    m = martingale_of(sp, np.full(4, 3.7))
    assert np.max(np.abs(m.diffs)) == 0.0

    m = martingale_of(sp, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(m.diff(1).ravel(), [0.25, 0.25, -0.25, -0.25])
    assert np.allclose(m.diff(2).ravel(), [0.5, -0.5, 0.0, 0.0])


def test_martingale_projection_oracle():
    rng = np.random.default_rng(7)
    sp = _random_space(rng)
    f = rng.standard_normal((sp.n_leaves, 3))
    m = martingale_of(sp, f)
    # the atom values of level n are the level-n leaf values at the atom
    # starts
    atoms = [m.leaf_levels[n][sp.offsets[n][:-1]] for n in range(sp.depth + 1)]
    for n in range(sp.depth):
        recomputed = cond_expect(sp, sp.expand(n + 1, atoms[n + 1]), n)
        assert np.max(np.abs(recomputed - atoms[n])) < 1e-12


def test_martingale_telescoping_exact():
    rng = np.random.default_rng(8)
    sp = _random_space(rng)
    f = rng.standard_normal(sp.n_leaves)
    m = martingale_of(sp, f)
    for n in range(sp.depth + 1):
        total = m.leaf_levels[0] + m.diffs[:n].sum(axis=0)
        assert np.max(np.abs(total - m.leaf_levels[n])) < 1e-12


def test_first_value_diffs_replaces_initial_increment():
    sp = build_dyadic(2)
    m = martingale_of(sp, np.array([1.0, 0.0, 0.0, 0.0]))
    fv = m.first_value_diffs()
    assert np.allclose(fv[0], m.leaf_levels[1])
    assert np.allclose(fv[1:], m.diffs[1:])


def test_tower_property_all_level_pairs():
    rng = np.random.default_rng(9)
    sp = _random_space(rng)
    f = rng.standard_normal(sp.n_leaves)
    for n in range(sp.depth + 1):
        fn = cond_expect_leaf(sp, f, n)
        for m in range(sp.depth + 1):
            lhs = cond_expect_leaf(sp, fn, m)
            rhs = cond_expect_leaf(sp, f, min(n, m))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conditional_contractivity():
    rng = np.random.default_rng(10)
    sp = _random_space(rng)
    h = rng.standard_normal((sp.n_leaves, 3))
    mags = np.linalg.norm(h, axis=1)
    for n in range(sp.depth + 1):
        lhs = np.linalg.norm(cond_expect(sp, h, n), axis=1)
        rhs = cond_expect(sp, mags, n)
        assert np.all(lhs <= rhs + 1e-12)


def test_lp_norm_examples():
    sp = build_dyadic(2)
    assert lp_norm(sp, np.full(4, 2.5), 3.0) == pytest.approx(2.5, abs=1e-12)
    f = np.array([1.0, 0.0, 0.0, 0.0])
    assert lp_norm(sp, f, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert lp_norm(sp, f, 1.0) == pytest.approx(0.25, abs=1e-12)
    # mass conservation
    assert lp_norm(sp, np.ones(4), 1.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        lp_norm(sp, f, 0.5)
