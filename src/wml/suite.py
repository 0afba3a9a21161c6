"""Seeded random instances and the per-instance invariant check battery.

An instance's tree comes from one draw recursion, ``_draw_tree``: it makes
the generator calls of every node in preorder and records each node's
level and mass. ``random_space`` (the suite's instances and ``wml gen``'s
random trees) hands those two lists to ``filtration.build_from_preorder``;
``random_tree_spec`` nests them into the {"mass", "children"} dict of the
same tree with ``filtration.nest_preorder``. The Dirichlet mass fractions
are normalized gamma draws, bit for bit numpy's own ``dirichlet``.

The CLI ``check`` command and the acceptance tests both run this battery,
so the command-line report and the test suite cannot drift apart. Each
check returns a CheckResult with the measured quantity and the asserted
bound; a check either encodes an identity of the construction or a derived
explicit constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import Analysis
from .filtration import (build_from_preorder, cond_expect, level_means,
                         lp_norm, martingale_of, nest_preorder)
from .linalg import EllipsoidError, ValidationError, _eig_compose
from .operators import (sparse_operator, square_fn, weighted_cond_expect,
                        weighted_square_fn, lp_weighted_norm)
from .principal import (CHECK_TOL, build_principal_family,
                        check_properties, default_threshold, iteration_check,
                        sparse_domination_check, vanish_checks)
from .weights import (CERT_TOL, MatrixWeight, ap_characteristic,
                      ap_equivalents, as_weight, build_reducing_pair,
                      conjugate, exchanged_pair, verify_reducing_bounds)

DEPTH_RANGE = (4, 12)
DIMS = (1, 2, 3)
PS = (1.5, 2.0, 3.0, 4.0)
# expected branching per dimension, tuned so the reducer fits stay cheap
SPLIT = {1: (0.6, 3), 2: (0.5, 3), 3: (0.42, 2)}
# log-normal spread of the weight eigenvalues, and of the function's
# per-leaf scale, which gives it heavy tails
WEIGHT_SIGMA = 1.2
HEAVY_TAIL = 1.5
# rounding slack of the tilted-average identity
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class Instance:
    index: int
    seed: int
    depth: int
    d: int
    p: float
    space: object
    weight: MatrixWeight
    f: np.ndarray


@dataclass(frozen=True)
class CheckResult:
    """One check: ``measured`` against ``bound``, which is an upper bound
    (side "upper") or a lower bound (side "lower")."""

    name: str
    passed: bool
    measured: float
    bound: float
    info: str = ""
    side: str = "upper"

    def as_dict(self):
        return {"name": self.name, "passed": self.passed,
                "measured": self.measured, "bound": self.bound,
                "info": self.info, "side": self.side}


def _dirichlet_split(rng, k):
    """The k fractions of ``rng.dirichlet(np.ones(k) * 2.0)``, bit for bit,
    and the same draws from ``rng``.

    This mirrors numpy's own Dirichlet loop for parameters above 0.1
    (numpy 2.4): k ``standard_gamma`` draws, summed in index order from
    0.0, each multiplied by the reciprocal of the sum. It rests on numpy's
    internals, not on a documented contract; a test pins it against
    ``rng.dirichlet``.
    """
    draws = rng.standard_gamma(2.0, k).tolist()
    total = 0.0
    for g in draws:
        total += g
    scale = 1.0 / total
    return [g * scale for g in draws]


def _draw_tree(rng, depth, split_p, max_children):
    """Preorder level and mass of every node of a random refining tree of
    exactly the given depth: the suite's only copy of the draw order.

    A node below ``depth`` splits with probability ``split_p`` into 2 to
    ``max_children`` children with Dirichlet(2, ..., 2) mass fractions;
    the root and one child of each forced node are forced to split.
    """
    levels, masses = [], []

    def node(mass, lvl, force):
        levels.append(lvl)
        masses.append(mass)
        if lvl < depth and (force or rng.random() < split_p):
            k = int(rng.integers(2, max_children + 1))
            fracs = _dirichlet_split(rng, k)
            chosen = int(rng.integers(0, k)) if force else -1
            for i, fr in enumerate(fracs):
                node(mass * fr, lvl + 1, force and i == chosen)

    node(1.0, 0, True)
    return levels, masses


def random_tree_spec(rng, depth, split_p, max_children):
    """Random refining tree of exactly the given depth with random masses,
    as the nested {"mass", "children"} dict that ``build_from_tree`` reads."""
    return nest_preorder(*_draw_tree(rng, depth, split_p, max_children))


def random_space(rng, depth, split_p, max_children):
    """The space of ``random_tree_spec`` for the same draws, built straight
    from them: ``build_from_tree(random_tree_spec(...))`` without the dict."""
    return build_from_preorder(*_draw_tree(rng, depth, split_p, max_children))


def check_suite_options(depth_range=DEPTH_RANGE, dims=DIMS, ps=PS):
    """Raise ValidationError unless instances of these depths, dimensions
    and exponents can be drawn and checked."""
    if depth_range[0] < 1:
        raise ValidationError(
            f"suite depths must be at least 1, got the range {depth_range}")
    for d in dims:
        if d not in SPLIT:
            raise ValidationError(
                f"the random suite supports d in {sorted(SPLIT)}, not d = {d}")
    for p in ps:
        if not 1.0 < p < np.inf:
            raise ValidationError(f"p must lie in (1, inf), got {p!r}")


def random_instance(index, seed=7, depth_range=DEPTH_RANGE, dims=DIMS, ps=PS):
    """Deterministic random instance number ``index`` of the suite."""
    d = int(dims[index % len(dims)])
    p = float(ps[(index // len(dims)) % len(ps)])
    check_suite_options(depth_range, (d,), (p,))
    child_seed = np.random.SeedSequence([seed, index])
    rng = np.random.default_rng(child_seed)
    depth = int(rng.integers(depth_range[0], depth_range[1] + 1))
    space = random_space(rng, depth, *SPLIT[d])
    n = space.n_leaves
    if d == 1:
        weight = as_weight(np.exp(rng.normal(0.0, WEIGHT_SIGMA, n)))
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
        lam = np.exp(rng.normal(0.0, WEIGHT_SIGMA, (n, d)))
        weight = MatrixWeight(_eig_compose(q, lam))
    f = rng.standard_normal((n, d)) * np.exp(rng.normal(0.0, HEAVY_TAIL, (n, 1)))
    return Instance(index=index, seed=seed, depth=space.depth, d=d, p=p,
                    space=space, weight=weight, f=f)


def _halving_check_all_atoms(an, threshold):
    """Worst exceedance fraction over every (level, atom) pair: the event
    {sup_{m>n} ratio > threshold} may carry at most half of each atom.
    Covering atoms covers every level-n measurable set. The ratio tables
    are zero at m <= n and the ratios non-negative, so the max of row n
    over all m exceeds the threshold exactly when its max over m > n does;
    level D has no m > D and never exceeds."""
    space = an.space
    exceed = np.zeros((space.depth + 1, space.n_leaves))
    exceed[:-1] = an.tables().ratio.max(axis=1) > threshold
    worst = float(level_means(space, exceed).max())
    return CheckResult("mass_halving", worst <= 0.5 + 1e-12, worst, 0.5,
                       f"threshold {threshold:g}")


def _holder_check(an, family):
    """Pointwise comparison of the r = 2 sparse operator against r = 1 and
    r = p: interpolation for p > 2, plain embedding for p <= 2. Both sides
    are homogeneous in f, so the gap is held to CHECK_TOL * max(1, max T_p)."""
    p = an.p
    t2 = sparse_operator(an, family, 2.0)
    tp = sparse_operator(an, family, p)
    bound = CHECK_TOL * max(1.0, float(np.max(tp, initial=0.0)))
    if p <= 2.0:
        gap = float(np.max(t2 - tp, initial=-np.inf))
        return CheckResult("sparse_embedding", gap <= bound, gap, bound,
                           "T_2 <= T_p pointwise")
    t1 = sparse_operator(an, family, 1.0)
    theta = p / (2.0 * p - 2.0)
    rhs = t1 ** (1.0 - theta) * tp ** theta
    gap = float(np.max(t2 - rhs * (1.0 + 1e-12), initial=-np.inf))
    return CheckResult("sparse_interpolation", gap <= bound, gap, bound,
                       "T_2 <= T_1^(1-theta) T_p^theta pointwise")


def _scalar_checks(inst, rng):
    """Tilted conditional expectation identity and the conjugation identity
    linking the weighted square function to the plain one, for a scalar
    weight drawn from ``rng``; every instance runs them, whatever its d."""
    space = inst.space
    n = space.n_leaves
    w = np.exp(rng.normal(0.0, 1.0, n))
    h = rng.standard_normal(n)
    p = inst.p
    out = []
    level = int(rng.integers(0, space.depth + 1))
    lhs = weighted_cond_expect(space, w, h, level)
    rhs = cond_expect(space, w * h, level) / cond_expect(space, w, level)
    err = float(np.max(np.abs(lhs - rhs)))
    out.append(CheckResult("tilted_average_identity", err <= IDENTITY_TOL,
                           err, IDENTITY_TOL))
    weight = as_weight(w)
    sw = weighted_square_fn(space, weight, p, w ** (1.0 / p) * h)
    plain_h = square_fn(space, martingale_of(space, h))
    err = float(np.max(np.abs(sw - w ** (1.0 / p) * plain_h)))
    out.append(CheckResult("conjugation_pointwise", err <= CHECK_TOL, err,
                           CHECK_TOL))
    lhs_n = lp_norm(space, sw, p)
    rhs_n = lp_weighted_norm(space, weight, p, plain_h)
    err = abs(lhs_n - rhs_n) / max(rhs_n, 1e-300)
    out.append(CheckResult("conjugation_norms", err <= CHECK_TOL, err,
                           CHECK_TOL))
    return out


def instance_checks(inst, threshold=None):
    """Run the full battery on one instance; returns a list of CheckResult
    and the instance's metadata.

    The metadata's ``square_lp_norm`` is the L^p norm of the weighted square
    function in its default "increments" mode, for information only (the
    domination check uses the first-value convention it is provable
    under). A reducer fit that fails to converge or to certify within
    ``weights.FIT_TOL`` and ``weights.FIT_ROUNDS`` is reported as a failed
    ``reducer_certificate`` carrying the achieved ratio; the checks that
    need the reducers are then skipped.
    """
    if threshold is None:
        threshold = default_threshold()
    space, W, p = inst.space, inst.weight, inst.p
    d = W.dim
    results = []
    try:
        pair = build_reducing_pair(space, W, p)
    except EllipsoidError as exc:
        # the achieved value lies past its bound, on the bound's side
        side = "lower" if exc.achieved < exc.bound else "upper"
        return [CheckResult("reducer_certificate", False, float(exc.achieved),
                            float(exc.bound), str(exc), side)], \
            {"depth": space.depth, "d": d, "p": p,
             "n_leaves": space.n_leaves}
    an = Analysis(pair, inst.f)

    if pair.certificate:
        lo = min(pair.certificate["primal"]["low"],
                 pair.certificate["dual"]["low"])
        hi = max(pair.certificate["primal"]["high"],
                 pair.certificate["dual"]["high"])
        window_lo = 1.0 / ((1.0 + CERT_TOL) * math.sqrt(d))
        results.append(CheckResult(
            "reducer_certificate", lo >= window_lo and hi <= 1.0 + CERT_TOL,
            lo, window_lo, f"proved ratios in [{lo:.4f}, {hi:.4f}]",
            "lower"))

    rep = verify_reducing_bounds(pair)
    results.append(CheckResult(
        "reducer_average_primal", rep["primal_ok"], rep["primal_max"],
        rep["primal_bound"]))
    results.append(CheckResult(
        "reducer_average_dual", rep["dual_ok"], rep["dual_max"],
        rep["dual_bound"]))

    ap = ap_characteristic(pair)
    q1, q2, window = ap_equivalents(pair)
    ok = (1.0 / window <= q1 / ap <= window) and (1.0 / window <= q2 / ap <= window)
    results.append(CheckResult(
        "characteristic_equivalents", ok, max(q1 / ap, ap / q1, q2 / ap, ap / q2),
        window, f"q1/ap={q1 / ap:.3f} q2/ap={q2 / ap:.3f}"))

    q = conjugate(p)
    ap_dual = ap_characteristic(exchanged_pair(pair))
    target = ap ** (q - 1.0)
    rel = abs(ap_dual - target) / max(target, 1e-300)
    results.append(CheckResult("dual_exponent_identity", rel <= 1e-8, rel, 1e-8,
                               f"[V]={ap_dual:.6g} [W]^(q-1)={target:.6g}"))

    results.append(_halving_check_all_atoms(an, threshold))

    family = build_principal_family(an, threshold)
    rep = check_properties(an, family)
    results.append(CheckResult(
        "principal_properties", rep["ok"],
        max(rep["worst_window_slack"], rep["worst_escape_slack"]), rep["tol"],
        f"max generation {rep['max_generation']}"))

    it = iteration_check(an, family)
    results.append(CheckResult("tail_iteration", it["ok"], it["worst_slack"],
                               it["bound"], f"constant {it['constant']:.4g}"))

    van = vanish_checks(an, family)
    results.append(CheckResult(
        "vanishing", van["ok"],
        max(van["off_first_generation_max"], van["below_stop_max"]),
        van["tol"]))

    dom = sparse_domination_check(an, family)
    results.append(CheckResult(
        "pointwise_domination", dom["ok"], dom["max_ratio"], dom["bound"],
        "hard fail" if dom["hard_fail"] else ""))

    results.append(_holder_check(an, family))

    rng = np.random.default_rng(np.random.SeedSequence(
        [inst.seed, inst.index, 1]))
    results.extend(_scalar_checks(inst, rng))

    square_lp = lp_norm(space, an.square(), p)
    return results, {"ap_char": ap, "max_ratio": dom["max_ratio"],
                     "q1_over_ap": q1 / ap, "q2_over_ap": q2 / ap,
                     "depth": space.depth, "d": d, "p": p,
                     "n_leaves": space.n_leaves,
                     "square_lp_norm": square_lp,
                     "generations": len(family.generations)}
