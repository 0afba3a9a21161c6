import dataclasses
import math

import numpy as np
import pytest

from wml.analysis import Analysis
from wml.filtration import build_dyadic, build_from_tree
from wml.operators import weighted_square_fn
from wml.principal import (PrincipalFamily, PrincipalSet,
                           build_principal_family, check_properties,
                           default_threshold, domination_constant,
                           _tail_squares, iteration_check,
                           iteration_constant,
                           sparse_domination_check, tail_energy,
                           vanish_checks)
from wml.suite import (_halving_check_all_atoms, _holder_check,
                       instance_checks, random_instance)
from wml.weights import MatrixWeight, as_weight, build_reducing_pair


def _uniform_pair(sp, p=2.0):
    w = as_weight(np.ones(sp.n_leaves))
    return w, build_reducing_pair(sp, w, p)


def _uniform(sp, f, p=2.0):
    """Analysis context of f under the unit scalar weight."""
    return Analysis(_uniform_pair(sp, p)[1], f)


def _random_instance(seed, depth=6, d=2, p=3.0, sigma=1.0):
    rng = np.random.default_rng(seed)

    def node(mass, lvl):
        out = {"mass": mass}
        if lvl < depth and (lvl == 0 or rng.random() < 0.55):
            k = int(rng.integers(2, 4))
            frac = rng.dirichlet(np.ones(k) * 2.0)
            out["children"] = [node(mass * f, lvl + 1) for f in frac]
        return out

    sp = build_from_tree(node(1.0, 0))
    n = sp.n_leaves
    if d == 1:
        W = as_weight(np.exp(rng.normal(0.0, sigma, n)))
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
        lam = np.exp(rng.normal(0.0, sigma, (n, d)))
        W = MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))
    f = rng.standard_normal((n, d)) * np.exp(rng.normal(0.0, 1.5, (n, 1)))
    pair = build_reducing_pair(sp, W, p)
    return sp, W, p, pair, f, Analysis(pair, f)


def test_fluctuation_zero_function():
    sp = build_dyadic(2)
    t = _uniform(sp, np.zeros(4)).table(0)
    assert np.max(t.ratio) == 0.0


def test_fluctuation_constant_function():
    sp = build_dyadic(3)
    t = _uniform(sp, np.full(8, 4.2)).table(0)
    for m in range(1, 4):
        assert np.max(t.diff_num[m]) == 0.0
        assert np.allclose(t.avg_num[m] / t.den, 1.0, atol=1e-12)


def test_fluctuation_hand_example():
    sp = build_dyadic(2)
    t = _uniform(sp, np.array([1.0, -1.0, 0.0, 0.0])).table(0)
    assert np.allclose(t.ratio[1], 0.0, atol=1e-12)
    assert np.allclose(t.ratio[2], [2.0, 2.0, 0.0, 0.0], atol=1e-12)


def test_fluctuation_adapted_to_target_level():
    sp, W, p, pair, f, an = _random_instance(0)
    for base in (0, 1):
        t = an.table(base)
        for m in range(base + 1, sp.depth + 1):
            vals = t.ratio[m]
            off = sp.offsets[m]
            for lo, hi in zip(off[:-1], off[1:]):
                assert np.ptp(vals[lo:hi]) < 1e-12


def test_default_threshold_value():
    assert default_threshold() == pytest.approx(8.0 * math.sqrt(math.e),
                                                rel=1e-15)
    assert iteration_constant(default_threshold()) == pytest.approx(
        3.0 * 64.0 * math.e + 2.0, rel=1e-12)
    assert domination_constant(default_threshold()) == pytest.approx(
        math.sqrt(3.0 * 64.0 * math.e + 3.0), rel=1e-12)


def test_halving_trivial_and_constant():
    sp = build_dyadic(2)
    for f in (np.zeros(4), np.full(4, 1.0)):
        res = _halving_check_all_atoms(_uniform(sp, f), 2.0)
        assert res.passed and res.measured == 0.0


def test_halving_fails_at_zero_threshold_for_fluctuating_f():
    rng = np.random.default_rng(1)
    sp = build_dyadic(3)
    res = _halving_check_all_atoms(_uniform(sp, rng.standard_normal(8)), 0.0)
    assert not res.passed and res.measured > 0.5


def test_halving_random_suite_at_default():
    for seed in range(4):
        an = _random_instance(seed + 10)[-1]
        res = _halving_check_all_atoms(an, default_threshold())
        assert res.passed, res


def test_family_zero_function_is_empty():
    sp = build_dyadic(3)
    fam = build_principal_family(_uniform(sp, np.zeros(8)),
                                 default_threshold())
    assert len(fam.sets) == 0
    assert len(fam.first_stop_never()) == 8


def test_family_constant_function_single_omega_set():
    sp = build_dyadic(3)
    an = _uniform(sp, np.full(8, 2.0))
    fam = build_principal_family(an, threshold=2.0)
    assert len(fam.sets) == 1
    s = fam.sets[0]
    assert (s.generation, s.kappa1, s.kappa2) == (1, 0, 1)
    assert np.array_equal(s.leaves, np.arange(8))
    assert np.array_equal(s.escape, np.arange(8))
    assert np.all(np.isinf(s.tau))
    rep = check_properties(an, fam)
    assert rep["ok"]


def test_family_hand_example():
    sp = build_dyadic(2)
    fam = build_principal_family(
        _uniform(sp, np.array([1.0, -1.0, 0.0, 0.0])), default_threshold())
    assert len(fam.sets) == 1
    s = fam.sets[0]
    assert (s.generation, s.kappa1, s.kappa2) == (1, 0, 2)
    assert np.array_equal(s.leaves, [0, 1])


def test_generation_nesting_and_parent_links():
    sp, W, p, pair, f, an = _random_instance(2, depth=8, sigma=1.4)
    fam = build_principal_family(an, threshold=2.0)
    assert any(s.generation >= 2 for s in fam.sets)
    for s in fam.sets:
        if s.generation == 1:
            assert s.parent == -1
            assert s.kappa1 == 0
        else:
            parent = fam.sets[s.parent]
            assert parent.generation == s.generation - 1
            assert s.kappa1 == parent.kappa2
            assert set(s.leaves).issubset(set(parent.leaves))
    # sets within one generation are pairwise disjoint
    for gen in fam.generations:
        leaves = np.concatenate([s.leaves for s in gen])
        assert len(np.unique(leaves)) == len(leaves)


def test_check_properties_random_and_negative_control():
    sp, W, p, pair, f, an = _random_instance(3, depth=7, sigma=1.3)
    fam = build_principal_family(an, default_threshold())
    rep = check_properties(an, fam)
    assert rep["ok"], rep
    # mutate one set: shifting its stopping level breaks measurability or
    # the window bounds
    mutated = list(fam.sets)
    victim = max(range(len(mutated)), key=lambda i: mutated[i].kappa2)
    s = mutated[victim]
    bad = dataclasses.replace(
        s, kappa2=s.kappa2 - 1,
        atoms=np.unique(sp.labels[s.kappa2 - 1][s.leaves]))
    mutated[victim] = bad
    fam_bad = dataclasses.replace(fam, sets=tuple(mutated))
    rep_bad = check_properties(an, fam_bad)
    assert not rep_bad["ok"]


def test_check_properties_escape_mass_per_atom_negative_control():
    # a generation-2 set over the four level-2 atoms of a uniform 16-leaf
    # space escapes on 14/16, then 13/16 of its mass, so the set-level
    # bound P(P) <= 2 P(E(P)) holds both times; only its last atom (leaves
    # 12-15) drops from half of its own mass to a quarter
    sp = build_dyadic(4)
    an = _uniform(sp, np.zeros(16))
    leaves = np.arange(16)
    first = PrincipalSet(generation=1, kappa1=0, kappa2=1, leaves=leaves,
                         atoms=np.arange(2), tau=np.full(16, 2.0),
                         escape=leaves[:0], parent=-1)

    def report(n_escaped):
        second = PrincipalSet(
            generation=2, kappa1=1, kappa2=2, leaves=leaves,
            atoms=np.arange(4), tau=np.full(16, np.inf),
            escape=leaves[:n_escaped], parent=0)
        fam = PrincipalFamily(space=sp, threshold=default_threshold(),
                              sets=(first, second))
        return check_properties(an, fam)

    rep = report(14)
    assert rep["ok"] and rep["escape_mass"], rep
    rep = report(13)
    assert not rep["escape_mass"] and not rep["ok"]


def test_check_properties_measurable_negative_control():
    # a set over the level-2 atoms {1, 3} of a uniform 16-leaf space is
    # measurable only with exactly their eight leaves, in increasing order
    sp = build_dyadic(4)
    an = _uniform(sp, np.zeros(16))
    union = np.r_[4:8, 12:16]

    def measurable(leaves):
        s = PrincipalSet(generation=1, kappa1=0, kappa2=2, leaves=leaves,
                         atoms=np.array([1, 3]),
                         tau=np.full(leaves.size, np.inf), escape=leaves,
                         parent=-1)
        fam = PrincipalFamily(space=sp, threshold=default_threshold(),
                              sets=(s,))
        return check_properties(an, fam)["measurable"]

    assert measurable(union)
    for leaves in (union[1:], union[:-1], np.r_[union, 0],
                   np.sort(np.r_[union, 8]), union[::-1],
                   np.r_[4, 4:7, 12:16], np.r_[5, 4, 6:8, 12:16]):
        assert not measurable(leaves), leaves


def test_tail_energy_cases():
    sp = build_dyadic(2)
    an = _uniform(sp, np.array([1.0, -1.0, 0.0, 0.0]))
    fam = build_principal_family(an, default_threshold())
    # kappa2 = 2 = depth: no further increments
    assert np.max(tail_energy(an, fam, 1)) == 0.0
    assert np.max(tail_energy(an, fam, 5)) == 0.0
    an_c = _uniform(sp, np.full(4, 3.0))
    fam_c = build_principal_family(an_c, default_threshold())
    assert np.max(tail_energy(an_c, fam_c, 1)) == 0.0


def test_iteration_and_vanish_on_random_instances():
    for seed in (4, 5, 6):
        an = _random_instance(seed, depth=7, sigma=1.2)[-1]
        fam = build_principal_family(an, default_threshold())
        assert iteration_check(an, fam)["ok"]
        assert vanish_checks(an, fam)["ok"]


def test_tail_iteration_reports_the_bound_it_enforces():
    # the slack is held to tol * max(1, max b_1^2), and the check reports
    # that bound
    for index in range(6):
        inst = random_instance(index, seed=7)
        results, _ = instance_checks(inst)
        it = next(r for r in results if r.name == "tail_iteration")
        pair = build_reducing_pair(inst.space, inst.weight, inst.p)
        an = Analysis(pair, inst.f)
        b1 = _tail_squares(
            an, build_principal_family(an, default_threshold()), 1)
        assert it.bound == 1e-10 * max(1.0, float(b1.max()))
        assert it.passed == (it.measured <= it.bound)


def test_domination_zero_and_constant():
    sp = build_dyadic(3)
    w, pair = _uniform_pair(sp)
    an = Analysis(pair, np.zeros(8))
    res = sparse_domination_check(
        an, build_principal_family(an, default_threshold()))
    assert res["ok"] and res["max_ratio"] == 0.0
    # constant f: the increment square function vanishes; the first-value
    # convention used by the domination check keeps the level-1 value, so
    # the ratio is exactly 1 against the surviving sparse term
    f = np.full(8, 3.0)
    assert np.max(weighted_square_fn(sp, w, 2.0, f)) == 0.0
    an = Analysis(pair, f)
    fam = build_principal_family(an, default_threshold())
    res = sparse_domination_check(an, fam)
    assert res["ok"] and res["max_ratio"] == pytest.approx(1.0, rel=1e-12)
    from wml.operators import sparse_operator
    t = sparse_operator(Analysis(pair, np.full((8, 1), 3.0)), fam, 2.0)
    assert np.min(t) > 0.0


def test_domination_nonzero_mean_stress():
    # the level-0 mean jump must not break the domination
    sp = build_dyadic(2)
    an = _uniform(sp, np.array([0.0, 0.0, 4.0, 4.0]))
    res = sparse_domination_check(
        an, build_principal_family(an, default_threshold()))
    assert res["ok"] and not res["hard_fail"]
    assert res["max_ratio"] <= res["bound"]


def test_domination_random_instances():
    for seed in (7, 8, 9, 10):
        an = _random_instance(seed, depth=8, sigma=1.3)[-1]
        res = sparse_domination_check(
            an, build_principal_family(an, default_threshold()))
        assert res["ok"], (seed, res["max_ratio"], res["bound"])


def test_domination_norm_chain_on_witness():
    # the L_p norms inherit the pointwise chain
    from wml.filtration import lp_norm
    sp, W, p, pair, f, an = _random_instance(11)
    fam = build_principal_family(an, default_threshold())
    res = sparse_domination_check(an, fam)
    from wml.operators import sparse_operator
    s = an.square("first_value")
    t = sparse_operator(an, fam, 2.0)
    assert lp_norm(sp, s, p) <= res["bound"] * lp_norm(sp, t, p) + 1e-12


@pytest.mark.parametrize("scale", [1e6, 1e-6])
def test_holder_check_is_scale_invariant(scale):
    # T_2, T_1 and T_p are homogeneous in f; held to an absolute 1e-10, the
    # rounding noise of T_2 - T_p failed the embedding at scale 1e6
    for index in range(0, 60, 3):
        inst = random_instance(index, seed=7)
        pair = build_reducing_pair(inst.space, inst.weight, inst.p)
        an = Analysis(pair, scale * inst.f)
        result = _holder_check(
            an, build_principal_family(an, default_threshold()))
        assert result.passed, (index, result)
