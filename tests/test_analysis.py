"""Each derived quantity is computed once: per instance by the analysis
context, per iterate by ``opnorm_ascent``."""

import inspect
import sys

import numpy as np
import pytest

from wml import filtration, linalg, principal
from wml.analysis import Analysis
from wml.experiments import opnorm_ascent, rotating_weight
from wml.filtration import build_dyadic
from wml.linalg import ValidationError, spd_power
from wml.operators import (lp_weighted_norm, sparse_operator,
                           weighted_square_fn)
from wml.suite import instance_checks, random_instance
from wml.weights import as_weight, build_reducing_pair


def _count_calls(monkeypatch, module, name):
    """Replace every binding of ``module.name`` in the wml modules by a
    wrapper that records the bound arguments of each call."""
    original = getattr(module, name)
    signature = inspect.signature(original)
    calls = []

    def counted(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "wml" or mod_name.startswith("wml.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_instance_checks_builds_each_table_and_martingale_once(monkeypatch):
    kernels = _count_calls(monkeypatch, principal, "fluctuation_tables")
    views = _count_calls(monkeypatch, principal, "fluctuation_table")
    marts = _count_calls(monkeypatch, filtration, "martingale_of")
    kept = []
    for index in range(3):                     # d = 1, 2, 3
        inst = random_instance(index, seed=7, depth_range=(8, 8))
        kept.append(inst)
        del marts[:], kernels[:]
        results, _ = instance_checks(inst)
        assert all(r.passed for r in results)
        # every base level's table comes from one kernel call
        assert len(kernels) == 1 and kernels[0]["space"] is inst.space
        # the scalar checks build martingales of their own functions: one
        # for the weighted square function, one for the plain one they
        # compare it with twice
        g = np.einsum("lij,lj->li",
                      spd_power(inst.weight.mats, -1.0 / inst.p), inst.f)
        assert sum(np.shape(c["f"]) == g.shape and np.allclose(c["f"], g)
                   for c in marts) == 1        # the martingale of g
        assert len(marts) == 3
    # the principal family reads one view per (space, base) it needs
    keys = [(id(c["space"]), c["base"]) for c in views]
    assert keys and len(keys) == len(set(keys))
    assert set(keys) <= {(id(inst.space), n) for inst in kept
                         for n in range(inst.space.depth)}


def test_sparse_terms_are_shared_across_exponents(monkeypatch):
    inst = random_instance(1, seed=7, depth_range=(6, 6))
    pair = build_reducing_pair(inst.space, inst.weight, inst.p)
    an = Analysis(pair, inst.f)
    family = principal.build_principal_family(
        an, principal.default_threshold())
    norms = _count_calls(monkeypatch, linalg, "spectral_norm")
    t2 = sparse_operator(an, family, 2.0)
    assert len(norms) == 1                     # the pair's whole table
    assert np.array_equal(sparse_operator(an, family, 2.0), t2)
    sparse_operator(an, family, 1.0)
    sparse_operator(an, family, inst.p)
    assert len(norms) == 1


def test_instance_checks_make_as_many_reducer_calls_at_any_depth(monkeypatch):
    # every per-level reducer quantity is one call over all levels, so the
    # call counts do not grow with the depth
    norms = _count_calls(monkeypatch, linalg, "spectral_norm")
    eigen = _count_calls(monkeypatch, linalg, "jacobi_eigh")
    counts = []
    for depth in (4, 12):
        inst = random_instance(0, seed=7, depth_range=(depth, depth))
        assert inst.d == 1 and inst.depth == depth
        del norms[:], eigen[:]
        results, _ = instance_checks(inst)
        assert all(r.passed for r in results)
        counts.append((len(norms), len(eigen)))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("p", (2.0, 3.0))
def test_weight_leaves_are_decomposed_only_at_ingestion(monkeypatch, d, p):
    # every power of the leaf matrices comes from the spectrum MatrixWeight
    # kept; at p = 2 the pair decomposes each side's mean stack once
    rng = np.random.default_rng(d)
    space = build_dyadic(4)
    q, _ = np.linalg.qr(rng.standard_normal((space.n_leaves, d, d)))
    lam = np.exp(rng.normal(0.0, 1.0, (space.n_leaves, d)))
    W = as_weight(np.einsum("lij,lj,lkj->lik", q, lam, q))
    f = rng.standard_normal((space.n_leaves, d))
    calls = _count_calls(monkeypatch, linalg, "jacobi_eigh")
    build_reducing_pair(space, W, p)
    shapes = [np.shape(c["mats"]) for c in calls]
    assert W.mats.shape not in shapes
    if p == 2.0:
        assert shapes == [(space.atom_base[-1], d, d)] * 2
    del calls[:]
    opnorm_ascent(space, W, p, restarts=1, max_iter=5)
    weighted_square_fn(space, W, p, f)
    lp_weighted_norm(space, W, p, f)
    assert not calls


def test_analysis_rejects_function_of_the_wrong_shape():
    sp = build_dyadic(3)
    pair = build_reducing_pair(sp, as_weight(np.ones(8)), 2.0)
    with pytest.raises(ValidationError, match=r"\(8, 1\).*\(8, 3\)"):
        Analysis(pair, np.ones((8, 3)))
    with pytest.raises(ValidationError, match=r"\(4,\)"):
        Analysis(pair, np.ones(4))
    assert Analysis(pair, np.ones(8)).f.shape == (8, 1)


def test_power_method_builds_one_martingale_per_round(monkeypatch):
    # one start runs: each of its Lanczos steps and each of its power
    # iterations builds one martingale and one increment adjoint on its d
    # columns, from the array cores of the public functions, which it
    # does not call
    space, W = rotating_weight(4, 2, 0.8, 0.0625)
    marts = _count_calls(monkeypatch, filtration, "_martingale")
    adjoints = _count_calls(monkeypatch, filtration, "_increment_adjoint")
    public = [_count_calls(monkeypatch, filtration, name)
              for name in ("martingale_of", "increment_adjoint", "lp_norm")]
    public.append(_count_calls(monkeypatch, linalg, "matvec"))
    res = opnorm_ascent(space, W, 1.5, restarts=2, seed=0)
    assert res.converged and res.restarts == 1
    assert len(marts) == len(adjoints) == res.iterations
    assert not any(public)
    assert all(np.shape(c["f"])[1] == W.dim for c in marts)
    assert all(np.shape(c["y"])[2] == W.dim for c in adjoints)


def test_power_method_slices_the_weight_columns_once(monkeypatch):
    # the operator takes the columns of W^{1/p}, W^{-1/p} and W^{2/p} once
    # a call, however many iterations it runs
    space, W = rotating_weight(4, 2, 0.8, 0.0625)
    columns = _count_calls(monkeypatch, linalg, "_columns")
    res = opnorm_ascent(space, W, 1.5, seed=0)
    assert res.iterations > 3 and len(columns) == 3


@pytest.mark.parametrize("index", (1, 4, 7, 10))
def test_instance_checks_build_each_sparse_operator_once(monkeypatch, index):
    # the domination check and the Hölder check share T_{W,2}; T_{W,p}
    # and, for p > 2, T_{W,1} are built once each, and at p = 2 T_{W,p}
    # is T_{W,2}
    calls = _count_calls(monkeypatch, sys.modules["wml.operators"],
                         "sparse_operator")
    inst = random_instance(index, seed=7)
    results, _ = instance_checks(inst)
    assert all(r.passed for r in results)
    want = {2.0, inst.p} | ({1.0} if inst.p > 2.0 else set())
    assert sorted(c["r"] for c in calls) == sorted(want)
