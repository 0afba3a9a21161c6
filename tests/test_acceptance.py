"""Acceptance suite: one test per criterion, each printing a PASS line.

The shared battery runs 1000 seeded random instances (depths 4..12,
d in {1,2,3}, p in {1.5,2,3,4}) through every per-instance check; the
criteria assert over the collected results. Run with -s to see the lines.
"""

import json
import time

import numpy as np
import pytest

from wml.analysis import Analysis
from wml.cli import main as cli_main
from wml.experiments import (SweepConfig, matrix_target_exponent,
                             opnorm_power_iteration, run_sweep,
                             scalar_target_exponent)
from wml.filtration import build_dyadic, cond_expect_leaf, martingale_of
from wml.principal import (build_principal_family, default_threshold,
                           domination_constant, tail_energy)
from wml.suite import instance_checks, random_instance
from wml.weights import _fit_reducers, build_reducing_pair

from directions import holdout_directions

N_INSTANCES = 1000
SEED = 7


def _fit_slope(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.sum((x - x.mean()) * (y - y.mean()))
                 / np.sum((x - x.mean()) ** 2))


@pytest.fixture(scope="module")
def battery():
    t0 = time.perf_counter()
    collected = []
    for i in range(N_INSTANCES):
        inst = random_instance(i, seed=SEED)
        checks, meta = instance_checks(inst)
        collected.append((meta, {c.name: c for c in checks}))
    elapsed = time.perf_counter() - t0
    return collected, elapsed


def _all_pass(collected, name):
    bad = [(i, c.measured, c.bound) for i, (_, checks) in enumerate(collected)
           for c in [checks[name]] if not c.passed]
    return bad


def test_criterion_1_principal_set_properties(battery):
    collected, elapsed = battery
    bad = _all_pass(collected, "principal_properties")
    assert not bad, f"property failures on instances {bad[:5]}"
    assert elapsed < 300.0, f"battery took {elapsed:.1f}s, over the 5-minute budget"
    gens = np.bincount([m["generations"] for m, _ in collected])
    print(f"\nPASS criterion 1: principal-set properties on {N_INSTANCES} "
          f"instances in {elapsed:.1f}s (generation counts {gens.tolist()})")


def test_criterion_2_pointwise_domination(battery):
    collected, _ = battery
    bad = _all_pass(collected, "pointwise_domination")
    assert not bad, f"domination failures: {bad[:5]}"
    bound = domination_constant(default_threshold())
    ratios = np.array([m["max_ratio"] for m, _ in collected])
    depths = np.array([m["depth"] for m, _ in collected])
    assert ratios.max() <= bound
    raw_slope = _fit_slope(depths, ratios)
    norm_slope = _fit_slope(depths, ratios / bound)
    # flatness is asserted for the ratio measured against its uniform
    # certified bound; the raw slope is reported alongside
    assert abs(norm_slope) <= 0.05, (raw_slope, norm_slope)
    print(f"\nPASS criterion 2: max ratio {ratios.max():.3f} <= {bound:.3f}; "
          f"depth slope {norm_slope:+.4f} of the bound per level "
          f"(raw {raw_slope:+.3f})")


def test_criterion_3_exact_dual_identity(battery):
    collected, _ = battery
    bad = _all_pass(collected, "dual_exponent_identity")
    assert not bad, f"dual identity failures: {bad[:5]}"
    worst = max(checks["dual_exponent_identity"].measured
                for _, checks in collected)
    assert worst <= 1e-8
    print(f"\nPASS criterion 3: dual exponent identity, worst relative "
          f"error {worst:.2e} <= 1e-8")


def test_criterion_4_reducer_certification(battery):
    collected, _ = battery
    # d = 1 and p = 2 take exact reducers with nothing to certify; every
    # other instance is fitted ("ellipsoid") and carries a certificate
    certified = [(m, checks["reducer_certificate"]) for m, checks in collected
                 if "reducer_certificate" in checks]
    fitted = sum(m["d"] >= 2 and m["p"] != 2.0 for m, _ in collected)
    assert fitted > 0
    assert len(certified) == fitted
    assert all(m["d"] >= 2 and m["p"] != 2.0 for m, _ in certified)
    bad = [(m, c.measured, c.bound) for m, c in certified if not c.passed]
    assert not bad, f"certificate failures: {bad[:5]}"
    assert all("proved" in c.info for _, c in certified)
    # p = 2 cross-check: at r = 2 the block Lewis fit is exact before any
    # update, so it reproduces the exact pair on both sides, up to the
    # rounding of its whitened frame, and proves a low ratio of 1
    checked = 0
    for i in range(N_INSTANCES):
        if checked >= 8:
            break
        inst = random_instance(i, seed=SEED)
        if inst.d == 1 or abs(inst.p - 2.0) > 1e-12:
            continue
        exact = build_reducing_pair(inst.space, inst.weight, 2.0)
        lewis, _, certs = _fit_reducers(
            inst.space, [(exact.wp, exact.wm, 2.0), (exact.wm, exact.wp, 2.0)],
            2e-2)
        dirs = holdout_directions(inst.d, 1000, seed=SEED + i)
        eps = np.finfo(float).eps
        for fit, ref, cert in zip(lewis, (exact.tiled_primal,
                                          exact.tiled_dual), certs):
            a = np.linalg.norm(np.einsum("kij,nj->kni", fit, dirs), axis=2)
            b = np.linalg.norm(np.einsum("kij,nj->kni", ref, dirs), axis=2)
            # over the battery's 166 such instances the worst was 49 eps
            # cond(A) on a direction and 34 eps cond(A) on the low ratio
            cond = np.linalg.cond(ref)
            margin = 256.0 * eps * cond[:, None]
            assert np.all(np.abs(a / b - 1.0) <= margin)
            assert 1.0 - 256.0 * eps * cond.max() <= cert["low"] \
                <= cert["high"] == 1.0
        checked += 1
    assert checked >= 4
    lows = [c.measured for _, c in certified]
    print(f"\nPASS criterion 4: proved certification on all {fitted} "
          f"fitted instances (smallest low ratio {min(lows):.4f}); p=2 "
          f"exact-averaging cross-check on {checked} matrix instances")


def test_criterion_5_equivalent_characterizations(battery):
    collected, _ = battery
    bad = _all_pass(collected, "characteristic_equivalents")
    assert not bad, f"equivalent-characterization failures: {bad[:5]}"
    depths = np.array([m["depth"] for m, _ in collected])
    for key in ("q1_over_ap", "q2_over_ap"):
        vals = np.array([m[key] for m, _ in collected])
        slope = _fit_slope(depths, np.log(vals))
        assert abs(slope) <= 0.05, (key, slope)
    print("\nPASS criterion 5: both equivalent characteristics inside "
          "[1/c, c], no depth trend")


def test_criterion_6_vanishing_and_iteration(battery):
    collected, _ = battery
    for name in ("vanishing", "tail_iteration"):
        bad = _all_pass(collected, name)
        assert not bad, f"{name} failures: {bad[:5]}"
    # tail energies of generations beyond the depth vanish identically
    for i in (0, 7, 23):
        inst = random_instance(i, seed=SEED)
        pair = build_reducing_pair(inst.space, inst.weight, inst.p, tol=2e-2)
        an = Analysis(pair, inst.f)
        fam = build_principal_family(an)
        for m in (inst.space.depth + 1, inst.space.depth + 3):
            te = tail_energy(an, fam, m)
            assert np.all(te == 0.0)
    print("\nPASS criterion 6: vanishing and iteration inequalities on the "
          "suite; tail energies vanish identically beyond the depth")


def test_criterion_7_sparse_comparisons(battery):
    collected, _ = battery
    kinds = {"sparse_embedding": 0, "sparse_interpolation": 0}
    for meta, checks in collected:
        name = "sparse_embedding" if meta["p"] <= 2.0 else "sparse_interpolation"
        assert checks[name].passed, (meta, checks[name])
        kinds[name] += 1
    assert kinds["sparse_embedding"] > 0
    assert kinds["sparse_interpolation"] > 0
    print(f"\nPASS criterion 7: pointwise r-comparisons "
          f"(embedding x{kinds['sparse_embedding']}, "
          f"interpolation x{kinds['sparse_interpolation']})")


def test_criterion_8_exponent_probes():
    # slope window at p = 2 on the self-similar power family
    records, fit = run_sweep(SweepConfig(p=2.0, d=1, depths=(6, 8, 10),
                                         alphas=(0.4, 0.6, 0.8, 0.95),
                                         epss=None, seed=SEED))
    assert len(records) >= 12
    aps = [r.ap_char for r in records]
    assert min(aps) >= 1.0 - 1e-9 and max(aps) <= 1e3
    assert 0.75 <= fit["slope"] <= 1.05, fit

    # power-iteration estimator vs dense eigensolve at depth 2
    rng = np.random.default_rng(SEED)
    sp2 = build_dyadic(2)
    w2 = np.exp(rng.normal(0.0, 1.0, 4))
    est, _ = opnorm_power_iteration(sp2, w2)
    sw = np.sqrt(w2)

    def op(h):
        m = martingale_of(sp2, h / sw)
        out = np.zeros(4)
        for k in (1, 2):
            y = w2 * m.diff(k)[:, 0]
            out += cond_expect_leaf(sp2, y, k) - cond_expect_leaf(sp2, y, k - 1)
        return out / sw

    dense = np.zeros((4, 4))
    probs = sp2.leaf_probs
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0 / np.sqrt(probs[i])
        dense[:, i] = np.sqrt(probs) * op(e)
    top = np.sqrt(np.linalg.eigvalsh(0.5 * (dense + dense.T)).max())
    assert abs(est - top) <= 1e-6

    # upper consistency on the wide singular family (characteristics up to
    # ~10^3): the measured growth never exceeds the target exponent + 0.1
    wide_slopes = {}
    for p in (2.0, 1.5, 3.0, 4.0):
        recs, wide = run_sweep(SweepConfig(
            family="power", p=p, d=1, depths=(6, 8, 10),
            alphas=(0.8, 1.4, 2.0), epss=None, restarts=3, seed=SEED))
        if p == 1.5:
            # the power method's stopping test certified every estimate
            assert all(r.converged for r in recs), p
        slope = wide["slope"]
        target = scalar_target_exponent(p)
        assert slope <= target + 0.1, (p, slope, target)
        wide_slopes[p] = (slope, max(r.ap_char for r in recs))
    assert wide_slopes[2.0][1] >= 100.0

    # matrix family upper consistency at d = 2, p = 1.5
    recs, matrix = run_sweep(SweepConfig(
        family="rotating", p=1.5, d=2, depths=(4, 5, 6), alphas=(0.6, 1.0),
        epss=None, restarts=3, seed=SEED))
    assert all(r.converged for r in recs)
    mslope = matrix["slope"]
    mtarget = matrix_target_exponent(1.5)
    assert mslope <= mtarget + 0.1, (mslope, mtarget)

    print(f"\nPASS criterion 8: p=2 slope {fit['slope']:.3f} in [0.75, 1.05] "
          f"(characteristics {min(aps):.2f}..{max(aps):.2f}); wide-family "
          f"slopes {dict((k, round(v[0], 3)) for k, v in wide_slopes.items())} "
          f"all upper-consistent; matrix slope {mslope:.3f} <= {mtarget + 0.1}")


def test_criterion_9_scalar_identities(battery):
    collected, _ = battery
    for name, tol in (("tilted_average_identity", 1e-12),
                      ("conjugation_pointwise", 1e-10),
                      ("conjugation_norms", 1e-10)):
        bad = _all_pass(collected, name)
        assert not bad, f"{name} failures: {bad[:5]}"
        worst = max(checks[name].measured for _, checks in collected)
        assert worst <= tol
    print("\nPASS criterion 9: tilted-average and conjugation identities on "
          "the suite")


def test_criterion_10_sweep_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["sweep", "--seed", "21", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    csv_a = (outs[0] / "sweep.csv").read_bytes()
    csv_b = (outs[1] / "sweep.csv").read_bytes()
    assert csv_a == csv_b
    assert (outs[0] / "fit.json").read_bytes() == \
        (outs[1] / "fit.json").read_bytes()
    print("\nPASS criterion 10: repeated sweep runs produce byte-identical "
          "CSV and fit")
