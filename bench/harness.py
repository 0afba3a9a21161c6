"""Workloads, correctness gates and metrics of the wml benchmark.

``run.py`` imports this module after it has pinned the thread variables
and put the checkout's ``src`` on ``sys.path``. Every call into the
library goes through a module attribute (``suite.instance_checks``, ...),
so that the tracer's replacements are seen.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from wml import (experiments, filtration, io, linalg, operators, principal,
                 suite, weights)
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "check_values.json.gz"
OUT = HERE / "out"
clock = time.perf_counter

# relative drift allowed on the exact d = 1 path, measured against
# max(|value|, 1) so that residuals of exact identities (values near 0)
# are compared on the scale of the identity's terms
EXACT_RTOL = 1e-12
SETUP_ROUNDS = 3


def environment():
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# candidates beyond the quota that a battery cell looks at
SPARE = 6
# trees behind each leaf-count target
TARGET_TREES = 32


@functools.lru_cache(maxsize=None)
def typical_leaves(d, depth):
    """Mean leaf count of TARGET_TREES trees that the suite's generator
    draws for dimension ``d`` at ``depth``, from a generator seeded by
    (d, depth) alone: the same target for every workload seed."""
    rng = np.random.default_rng([d, depth])
    return statistics.fmean(
        filtration.build_from_tree(
            suite.random_tree_spec(rng, depth, *suite.SPLIT[d])).n_leaves
        for _ in range(TARGET_TREES))


class Battery:
    """Seeded suite instances through ``suite.instance_checks``.

    The pool is stratified: every (d, p) class of the suite gets ``quota``
    instances at every depth of the suite's range. They are picked from the
    first ``quota + SPARE`` suite indices of their class and depth, as the
    ones whose leaf counts are nearest to ``typical_leaves``. Leaf counts
    at one depth spread widely, the cost of a d >= 2 instance and the peak
    memory of its checks grow with them, and the target does not depend on
    the seed: so the pool's cost and peak memory vary little from seed to
    seed. Every instance is the suite's own instance of its index; with
    seed 7 they are instances of the acceptance battery.
    """

    kind = "battery"

    def __init__(self, name, dims, quota):
        self.name, self.dims, self.quota = name, tuple(dims), quota

    def plan(self, seed, limit=None):
        """Ordered (seed, suite index) of the pool."""
        depths = range(suite.DEPTH_RANGE[0], suite.DEPTH_RANGE[1] + 1)
        n_cls = len(self.dims) * len(suite.PS)
        wanted = self.quota + SPARE
        cells = {(c, depth): [] for c in range(n_cls) for depth in depths}
        missing = len(cells) * wanted
        index = 0
        while missing:
            inst = suite.random_instance(index, seed=seed, dims=self.dims)
            cell = cells[index % n_cls, inst.depth]
            if len(cell) < wanted:
                cell.append((inst.space.n_leaves, index))
                missing -= 1
            index += 1
        chosen = {}
        for (c, depth), cand in cells.items():
            target = typical_leaves(self.dims[c % len(self.dims)], depth)
            near = sorted(cand, key=lambda li: (abs(li[0] - target), li[1]))
            chosen[c, depth] = [(seed, i) for _, i in near[:self.quota]]
        # round-robin over classes; each class cycles through the depths
        order = []
        for k in range(len(depths) * self.quota):
            for c in range(n_cls):
                depth = depths[(k + c) % len(depths)]
                order.append(chosen[c, depth][k // len(depths)])
        return order[:limit]

    def build(self, plan):
        return [suite.random_instance(index, seed=seed, dims=self.dims)
                for seed, index in plan]

    def run(self, inst):
        return suite.instance_checks(inst)

    def reference(self, seed):
        return load_reference(self.name, seed)

    @staticmethod
    def key(inst):
        return str(inst.index)

    @staticmethod
    def values(output):
        """Check values compared against the recorded reference."""
        results, meta = output
        vals = {c.name: float(c.measured) for c in results}
        for k in ("ap_char", "q1_over_ap", "q2_over_ap", "square_lp_norm"):
            vals["meta." + k] = float(meta[k])
        return vals

    @staticmethod
    def fingerprint(output):
        results, meta = output
        return (tuple((c.name, bool(c.passed), repr(float(c.measured)),
                       repr(float(c.bound)), c.info) for c in results),
                tuple(sorted((k, repr(v)) for k, v in meta.items())))

    def check(self, inst, output, gate):
        problems = [f"{c.name} failed: measured {c.measured!r}, bound {c.bound!r}"
                    for c in output[0] if not c.passed]
        ref = gate.reference_for(self.key(inst))
        if ref is None:
            return problems
        vals = self.values(output)
        if inst.d == 1:
            gate.exact_checked += 1
            if set(vals) != set(ref):
                problems.append(f"check names {sorted(vals)} differ from the "
                                f"reference {sorted(ref)}")
            for name in sorted(set(vals) & set(ref)):
                a, b = vals[name], ref[name]
                if a != b and not abs(a - b) <= EXACT_RTOL * max(abs(a), abs(b), 1.0):
                    problems.append(f"exact-path {name} = {a!r} drifted from "
                                    f"the reference {b!r}")
        else:
            gate.ellipsoid_checked += 1
            for name in set(vals) & set(ref):
                a, b = vals[name], ref[name]
                if a != b:
                    drift = abs(a - b) / max(abs(a), abs(b), 1e-300)
                    gate.ellipsoid_drift = max(gate.ellipsoid_drift, drift)
        return problems

    def check_pass(self, items, outputs, gate):
        return []


class Sweep:
    """Points of one ``SweepConfig`` grid through ``experiments.sweep_point``,
    the call ``run_sweep`` makes for each point, in an order that alternates
    depths; a full pass is checked like ``run_sweep``'s result."""

    kind = "sweep"

    def __init__(self, name, **config):
        self.name, self.config = name, config

    def plan(self, seed, limit=None):
        cfg = experiments.SweepConfig(seed=seed, **self.config)
        grid = cfg.grid()
        per_depth = len(grid) // len(cfg.depths)
        order = sorted(range(len(grid)), key=lambda i: (i % per_depth, i // per_depth))
        return [(cfg, i) + tuple(grid[i]) for i in order][:limit]

    @staticmethod
    def build(plan):
        return plan

    def run(self, item):
        return experiments.sweep_point(*item)

    @staticmethod
    def reference(seed):
        return None

    @staticmethod
    def key(item):
        return str(item[1])

    @staticmethod
    def fingerprint(rec):
        return tuple(repr(getattr(rec, f)) for f in rec.CSV_FIELDS)

    def check(self, item, rec, gate):
        problems = []
        if not (math.isfinite(rec.ap_char) and rec.ap_char >= 1.0 - 1e-9):
            problems.append(f"point {item[1]}: characteristic {rec.ap_char!r} below 1")
        if not (math.isfinite(rec.ratio) and rec.ratio > 0.0):
            problems.append(f"point {item[1]}: ratio {rec.ratio!r} not positive")
        return problems

    def check_pass(self, items, outputs, gate):
        cfg = items[0][0]
        if len(items) < len(cfg.grid()):
            gate.info["slope"] = "not checked: partial grid"
            return []
        records = [rec for _, rec in sorted(zip((it[1] for it in items), outputs))]
        try:
            slope = experiments.exponent_fit([(r.ap_char, r.ratio) for r in records])[0]
        except linalg.ValidationError as exc:
            return [f"exponent fit failed: {exc}"]
        limit = experiments.matrix_target_exponent(cfg.p) + 0.1
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{self.name}-seed{cfg.seed}.csv"
        io.write_sweep_csv(path, records)
        gate.info["csv"] = f"{path.name} sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}"
        gate.info["slope"] = f"{slope:.6f} (limit {limit:g})"
        if slope <= limit:
            return []
        return [f"fitted slope {slope:.6f} above matrix_target_exponent({cfg.p:g}) + 0.1"]


WORKLOADS = {w.name: w for w in (
    Battery("battery-mixed", dims=suite.DIMS, quota=1),
    Battery("battery-scalar", dims=(1,), quota=4),
    Sweep("sweep-rotating", family="rotating", d=2, p=1.5, depths=(4, 5, 6),
          alphas=(0.4, 0.6, 0.8, 0.95), epss=(0.25, 0.015625), restarts=4),
)}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def load_reference(workload, seed):
    """item key -> {check name: value} recorded for the workload and seed,
    or None when none was recorded."""
    if not REFERENCE.exists():
        return None
    data = json.loads(gzip.decompress(REFERENCE.read_bytes()))
    rows = data["workloads"].get(workload, {}).get(str(seed))
    if rows is None:
        return None
    return {key: {n: v for n, v in zip(data["names"], row) if v is not None}
            for key, row in rows.items()}


def save_reference(values):
    """Write workload -> seed -> item key -> {check name: value}, one row
    of values per item in the order of a shared list of names."""
    names = sorted({n for seeds in values.values() for rows in seeds.values()
                    for row in rows.values() for n in row})
    data = {"names": names, "workloads": {
        w: {seed: {key: [row.get(n) for n in names] for key, row in rows.items()}
            for seed, rows in seeds.items()}
        for w, seeds in values.items()}}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_bytes(gzip.compress(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode(), 9, mtime=0))


class Gate:
    """Counts attempted and failed items of one run.

    An item fails when it raises, when one of its checks fails, when it
    disagrees with the recorded reference on the exact path, when a later
    pass (or the traced twin) does not reproduce it bit for bit, or when the
    pass it belongs to fails a pass-level check.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.reference = workload.reference(seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.exact_checked = 0
        self.ellipsoid_checked = 0
        self.ellipsoid_drift = 0.0
        self.info = {}
        self._first = {}
        self._pass_failed = set()

    def reference_for(self, key):
        return None if self.reference is None else self.reference.get(key)

    def _fail(self, pos, problems):
        self.failed += 1
        self._pass_failed.add(pos)
        self.problems.extend(problems[:3])

    def item(self, pos, item, output, error, twin=None):
        """Record one attempted item; ``twin`` is the fingerprint of an
        untraced run of the same item."""
        self.attempted += 1
        if error is not None:
            self._fail(pos, [f"item {self.workload.key(item)}: {error}"])
            return
        fp = self.workload.fingerprint(output)
        problems = self.workload.check(item, output, self)
        if self._first.setdefault(pos, fp) != fp:
            problems.append(f"item {self.workload.key(item)} differs from its first run")
        if twin is not None and twin != fp:
            problems.append(f"item {self.workload.key(item)}: traced result "
                            "differs from the untraced one")
        if problems:
            self._fail(pos, problems)

    def end_pass(self, items, outputs):
        if None in outputs:
            problems = ["pass-level checks skipped: an item raised"]
        else:
            problems = self.workload.check_pass(items, outputs, self)
        if problems:
            self.problems.extend(problems)
            fresh = len(items) - len(self._pass_failed)
            self.failed += fresh
            self._pass_failed.update(range(len(items)))
        self._pass_failed = set()

    def extra(self, problem):
        """A failure of the harness itself, counted as one failed item."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def _attempt(workload, item):
    try:
        return workload.run(item), None
    except Exception as exc:        # a raising item is a result: it failed
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

# The host's speed changes by up to 1.7x, in stretches of seconds to
# minutes, with CPU time tracking wall time: the core itself runs slower.
# A run that falls in a slow stretch would read slow from end to end. So
# every timed interval is put on one scale: it is multiplied by PROBE_REF_S
# over the time a fixed probe took around it. The probe mixes interpreter
# work with small numpy calls, as the library does, and never calls the
# library, so a change to the library shows in full. PROBE_REF_S is about
# its median time on the host the baseline was measured on.
PROBE_REF_S = 7e-4
_PROBE_MAT = np.random.default_rng(0).standard_normal((24, 24)) / 24.0


def probe_s():
    """Best of three timings of the probe: the host's speed right now."""
    best = math.inf
    for _ in range(3):
        t0 = clock()
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
        x = _PROBE_MAT
        for _ in range(80):
            x = np.tanh(x @ _PROBE_MAT + acc * 1e-9)
        best = min(best, clock() - t0)
    return best


def calibrated(seconds, *probes):
    """``seconds`` on the reference scale, from the probes taken around them."""
    return seconds * PROBE_REF_S * len(probes) / math.fsum(probes)


def setup(workload, seed, limit):
    """Build the inputs and run the first item, SETUP_ROUNDS times;
    returns the items and the median calibrated seconds of a round.
    Choosing the inputs is the benchmark's own work and is not timed."""
    plan = workload.plan(seed, limit)
    rounds = []
    for _ in range(SETUP_ROUNDS):
        items = None                # one pool alive at a time
        before = probe_s()
        t0 = clock()
        items = workload.build(plan)
        _attempt(workload, items[0])
        elapsed = clock() - t0
        rounds.append(calibrated(elapsed, before, probe_s()))
    return items, statistics.median(rounds)


def measure(workload, items, seed, seconds):
    """Closed loop over ``items`` until ``seconds`` have passed, with at
    least one full pass; returns the calibrated seconds of every run of
    each item and the gate. A probe runs between items, untimed."""
    gate = Gate(workload, seed)
    times = [[] for _ in items]
    outputs = []
    start = clock()
    runs = pos = 0
    before = probe_s()
    while True:
        t0 = clock()
        output, error = _attempt(workload, items[pos])
        elapsed = clock() - t0
        after = probe_s()
        times[pos].append(calibrated(elapsed, before, after))
        before = after
        gate.item(pos, items[pos], output, error)
        outputs.append(output)
        runs += 1
        pos += 1
        if pos == len(items):
            gate.end_pass(items, outputs)
            outputs, pos = [], 0
        if runs >= len(items) and clock() - start >= seconds:
            return times, gate


# printed with the other metrics but left out of the JSON result: over ten
# seeds the median's spread reached 0.1 (mixed pool and sweep), above a
# third of the largest bound a result metric may carry, and p90 exists only
# on workloads with at least 100 inputs
PRINTED_ONLY = ("instance_s.p50", "instance_s.p90")


def end_to_end(times, setup_s):
    """Timings from each input's mean calibrated run. Every input weighs
    the same, whichever ran once more when the time ran out, and a mean
    does not depend on how many runs there were. The 90th percentile
    needs ten inputs beyond it, so it is left out below 100 inputs."""
    mean = [math.fsum(t) / len(t) for t in times]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "instances_per_s": (len(mean) / math.fsum(mean), "1/s"),
        "instance_s.p50": (statistics.median(mean), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    if len(mean) >= 100:
        metrics["instance_s.p90"] = (
            statistics.quantiles(mean, n=10, method="inclusive")[-1], "s")
    return metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

TRACED_MODULES = (filtration, linalg, weights, operators, principal,
                  experiments, suite)
SETUP_FUNCTIONS = ("suite.random_instance", "filtration.build_from_tree")


def _batch(shape_tuple):
    return int(np.prod(shape_tuple[:-2])) if len(shape_tuple) > 2 else 1


def _hook_mvee(tr, args, result):
    pts = np.shape(args["points"])
    clouds = _batch(pts)
    tr.add("linalg.mvee_central.clouds", clouds)
    tr.add("linalg.mvee_central.points", clouds * pts[-2])
    inner = np.asarray(result[1], dtype=float)
    tr.maximum("linalg.mvee_central.kappa_max", float(np.max(inner ** 2)) / pts[-1])


def _hook_jacobi(tr, args, result):
    tr.add("linalg.jacobi_eigh.matrices", _batch(np.shape(args["mats"])))


def _hook_pair(tr, args, pair):
    if pair.method != "ellipsoid":
        return
    tr.add("weights.build_reducing_pair.ellipsoid", 1)
    cert = pair.certificate
    tr.maximum("weights.cert_high_max", max(c["high"] for c in cert.values()))
    tr.minimum("weights.cert_low_min", min(c["low"] for c in cert.values()))


def _hook_sparse(tr, args, result):
    tr.add("operators.sparse_operator.sets", len(args["family"].sets))


def _hook_fluctuation(tr, args, result):
    tr.work.setdefault("fluctuation_keys", set()).add((id(args["space"]), args["base"]))


def _hook_family(tr, args, family):
    tr.add("principal.build_principal_family.sets", len(family.sets))
    tr.maximum("principal.build_principal_family.generations_max",
               len(family.generations))


def _hook_ascent(tr, args, result):
    tr.add("experiments.opnorm_ascent.iterations", result.iterations)
    tr.add("ascent_cap", args["restarts"] * args["max_iter"])


HOOKS = {
    "linalg.mvee_central": _hook_mvee,
    "linalg.jacobi_eigh": _hook_jacobi,
    "weights.build_reducing_pair": _hook_pair,
    "operators.sparse_operator": _hook_sparse,
    "principal.fluctuation_table": _hook_fluctuation,
    "principal.build_principal_family": _hook_family,
    "experiments.opnorm_ascent": _hook_ascent,
}

# functions whose calls and self seconds are reported; both read 0 on a
# workload where the function does not run
LAYER_FUNCTIONS = (
    "filtration.martingale_of", "filtration.cond_expect",
    "filtration.cond_expect_leaf", "filtration.lp_norm",
    "filtration.build_from_tree",
    "linalg.mvee_central", "linalg.jacobi_eigh", "linalg.spectral_norm",
    "linalg.spd_power", "linalg.sym_inv",
    "weights.build_reducing_pair", "weights.ap_characteristic",
    "weights.ap_equivalents", "weights.verify_reducing_bounds",
    "operators.weighted_square_fn", "operators.square_fn",
    "operators.sparse_operator",
    "principal.fluctuation_table", "principal.build_principal_family",
    "principal.check_properties", "principal.iteration_check",
    "principal.vanish_checks", "principal.sparse_domination_check",
    "principal.tail_energy",
    "experiments.opnorm_ascent", "experiments.sweep_point",
    "suite.instance_checks", "suite.random_instance",
)
WORK_METRICS = {
    "linalg.mvee_central.clouds": "count",
    "linalg.mvee_central.points": "count",
    "linalg.mvee_central.kappa_max": "1",
    "linalg.jacobi_eigh.matrices": "count",
    "weights.build_reducing_pair.ellipsoid": "count",
    "weights.cert_high_max": "1",
    "weights.cert_low_min": "1",
    "operators.sparse_operator.sets": "count",
    "principal.fluctuation_table.repeat_ratio": "1",
    "principal.build_principal_family.sets": "count",
    "principal.build_principal_family.generations_max": "count",
    "experiments.opnorm_ascent.iterations": "count",
    "experiments.opnorm_ascent.iteration_cap_share": "1",
}
# counters that are maxima or minima, not totals: never divided by passes
EXTREMES = ("linalg.mvee_central.kappa_max", "weights.cert_high_max",
            "weights.cert_low_min",
            "principal.build_principal_family.generations_max")


def traced(workload, seed, seconds, limit):
    """Whole passes over the items with every function of the traced
    modules wrapped, until ``seconds`` have passed. Every other item also
    runs untraced first: its result must match bit for bit, and the two
    timings give the tracing overhead. Returns the per-layer metrics (per
    pass; set-up functions once), the full per-function table and the gate.
    """
    plan = workload.plan(seed, limit)
    tracer = Tracer("wml", TRACED_MODULES, HOOKS)
    with tracer.installed():
        items = workload.build(plan)
    setup_stats = tracer.stats
    tracer.reset()
    gate = Gate(workload, seed)
    plain_s = traced_s = 0.0
    n_passes = 0
    start = clock()
    while n_passes == 0 or clock() - start < seconds:
        outputs = []
        for pos, item in enumerate(items):
            twin = None
            if pos % 2 == 0:
                t0 = clock()
                out, err = _attempt(workload, item)
                plain = clock() - t0
                twin = None if err else workload.fingerprint(out)
            t0 = clock()
            with tracer.installed():
                output, error = _attempt(workload, item)
            if pos % 2 == 0:
                traced_s += clock() - t0
                plain_s += plain
            left = tracer.leftovers()
            if left:
                gate.extra(f"wrappers left installed: {left[:5]}")
            gate.item(pos, item, output, error, twin)
            outputs.append(output)
        gate.end_pass(items, outputs)
        n_passes += 1

    stats = {q: (setup_stats if q in SETUP_FUNCTIONS else tracer.stats)[q]
             for q in tracer.names}
    per = {q: 1 if q in SETUP_FUNCTIONS else n_passes for q in tracer.names}
    work = dict(tracer.work)
    keys = work.pop("fluctuation_keys", set())
    calls = tracer.stats["principal.fluctuation_table"].calls
    work["principal.fluctuation_table.repeat_ratio"] = (
        calls / (len(keys) * n_passes) if keys else 0.0)
    cap = work.pop("ascent_cap", 0)
    work["experiments.opnorm_ascent.iteration_cap_share"] = (
        work.get("experiments.opnorm_ascent.iterations", 0) / cap if cap else 0.0)

    metrics = {}
    for q in LAYER_FUNCTIONS:
        metrics[q + ".calls"] = (stats[q].calls / per[q], "count")
        metrics[q + ".self_s"] = (stats[q].self_s / per[q], "s")
    for mod in (m.__name__.rsplit(".", 1)[-1] for m in TRACED_MODULES):
        metrics[mod + ".self_s"] = (math.fsum(
            s.self_s for q, s in tracer.stats.items()
            if q.startswith(mod + ".")) / n_passes, "s")
    for name, unit in WORK_METRICS.items():
        value = work.get(name, 0)
        if unit == "count" and name not in EXTREMES:
            value = value / n_passes
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s if plain_s else 0.0, "1")
    table = {q: {"calls": stats[q].calls / per[q], "self_s": stats[q].self_s / per[q],
                 "total_s": stats[q].total_s / per[q]}
             for q in tracer.names if stats[q].calls}
    return metrics, table, n_passes, gate
