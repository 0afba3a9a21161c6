"""Command-line interface: instance generation, invariant suites, sweeps.

Commands
--------
  gen     write tree / weight / function files from a generator spec
  check   run the invariant battery on seeded random instances (or on
          files named in the config); exit 2 on any mathematical failure
  sweep   run an exponent sweep, writing a deterministic CSV and fit JSON;
          exit 2 when a point's reducer fit or estimator fails
  fit     re-fit an existing sweep CSV
  report  human-readable summary plus plot-ready points CSV

Options come from a JSON config file (--config) with flag overrides; flags
win. The seed resolution order is: --seed flag, config value, WML_SEED
environment variable, default 7. Exit codes: 0 success, 1 usage or config
error, 2 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .experiments import (SweepConfig, SweepPointError, leaf_scale_sweep,
                          matrix_target_exponent, power_weight,
                          rotating_weight, run_sweep, scalar_target_exponent,
                          sweep_fit)
from .filtration import build_dyadic, build_from_tree
from .io import (load_function_csv, load_tree, load_weight_csv,
                 read_sweep_csv, save_function_csv, save_tree,
                 save_weight_csv, write_fit_json, write_sweep_csv)
from .linalg import ValidationError
from .principal import default_threshold
from .suite import Instance, instance_checks, random_instance
from .weights import as_weight

USAGE_ERROR, CHECK_FAILURE = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _resolve_seed(args, config):
    if args.seed is not None:
        return int(args.seed)
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get("WML_SEED")
    if env is not None:
        return int(env)
    return 7


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config file must contain a JSON object")
    return cfg


def _reject_unknown(config, keys, command):
    """Usage error naming every config key that ``command`` does not read;
    a key "a.b" admits the key b of a nested object under a, and a given a
    must then be such an object."""
    given = set(config)
    for key, val in config.items():
        if not any(k.startswith(key + ".") for k in keys) or not val:
            continue
        if not isinstance(val, dict):
            raise ValidationError(
                f"{command} config key {key!r} must be a JSON object")
        given |= {f"{key}.{sub}" for sub in val}
    unknown = sorted(given - set(keys))
    if unknown:
        raise ValidationError(
            f"unknown {command} config key {', '.join(map(repr, unknown))}; "
            f"expected one of {', '.join(keys)}")


def _merged(config, args, keys):
    out = dict(config)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


# every key that ``wml gen`` reads from its config, nested ones as "a.b"
GEN_KEYS = ("kind", "depth", "d", "p", "seed", "out", "weight",
            "weight.family", "weight.alpha", "weight.eps", "weight.sigma",
            "function", "function.kind", "function.d")


def cmd_gen(args):
    config = _load_config(args.config)
    _reject_unknown(config, GEN_KEYS, "gen")
    opts = _merged(config, args, ("depth", "d", "p", "out"))
    seed = _resolve_seed(args, config)
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    kind = opts.get("kind", "dyadic")
    depth = int(opts.get("depth", 4))
    d = int(opts.get("d", 1))
    rng = np.random.default_rng(seed)

    if kind == "dyadic":
        space = build_dyadic(depth)
    elif kind == "random":
        from .suite import random_tree_spec
        space = build_from_tree(random_tree_spec(rng, depth, 0.55, 3))
    else:
        raise ValidationError(f"unknown space kind {kind!r}")
    save_tree(out / "tree.json", space)
    written = [out / "tree.json"]

    wspec = opts.get("weight")
    if wspec:
        family = wspec.get("family", "power")
        alpha = float(wspec.get("alpha", 0.5))
        eps = float(wspec.get("eps", 2.0 ** -depth))
        if family == "power":
            space, W = power_weight(depth, alpha, eps)
        elif family == "rotating":
            space, W = rotating_weight(depth, d, alpha, eps)
        elif family == "lognormal":
            sigma = float(wspec.get("sigma", 1.0))
            W = as_weight(np.exp(rng.normal(0.0, sigma, space.n_leaves)))
        else:
            raise ValidationError(f"unknown weight family {family!r}")
        save_weight_csv(out / "weight.csv", W)
        written.append(out / "weight.csv")

    fspec = opts.get("function")
    if fspec:
        if fspec.get("kind", "gaussian") != "gaussian":
            raise ValidationError(
                f"unknown function kind {fspec['kind']!r}; expected gaussian")
        fd = int(fspec.get("d", d))
        values = rng.standard_normal((space.n_leaves, fd))
        save_function_csv(out / "function.csv", values)
        written.append(out / "function.csv")

    for path in written:
        print(path)
    return 0


def _file_instance(config, seed):
    space = load_tree(config["tree"])
    W = load_weight_csv(config["weight"]) if "weight" in config else \
        as_weight(np.ones(space.n_leaves))
    if "function" in config:
        f = np.asarray(load_function_csv(config["function"]), dtype=float)
        if f.ndim == 1:
            f = f[:, None]
    else:
        f = np.random.default_rng(seed).standard_normal(
            (space.n_leaves, W.dim))
    p = float(config.get("p", 2.0))
    return Instance(index=0, seed=seed, depth=space.depth, d=W.dim, p=p,
                    space=space, weight=W, f=f)


def _checked(inst, **check_opts):
    results, meta = instance_checks(inst, **check_opts)
    return {"index": inst.index, "meta": meta,
            "results": [r.as_dict() for r in results]}


def _check_suite_instance(job):
    """Build suite instance ``index`` and run the battery on it; a worker
    builds its own instance, so only the seed and options are pickled."""
    index, seed, suite_opts, check_opts = job
    return _checked(random_instance(index, seed=seed, **suite_opts),
                    **check_opts)


def _parallel(opts):
    parallel = int(opts.get("parallel", 1))
    if parallel < 1:
        raise ValidationError(f"--parallel must be at least 1, got {parallel}")
    return parallel


# every key that ``wml check`` reads from its config; tree, weight and
# function name the files of a file instance
CHECK_KEYS = ("instances", "p", "d", "depth", "cgamma", "fit_tol", "seed",
              "out", "parallel", "acceptance", "square_mode", "tree",
              "weight", "function")


def _nearness(r):
    """Orders a check's results by how near their bound they come: failures
    first, then the larger measured value of an upper-bounded check or the
    smaller of a lower-bounded one."""
    return (not r["passed"],
            r["measured"] if r["side"] == "upper" else -r["measured"])


def cmd_check(args):
    config = _load_config(args.config)
    _reject_unknown(config, CHECK_KEYS, "check")
    opts = _merged(config, args, ("p", "d", "depth", "cgamma", "out",
                                  "instances", "parallel", "acceptance",
                                  "square_mode"))
    seed = _resolve_seed(args, config)
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    threshold = float(opts["cgamma"]) if opts.get("cgamma") is not None \
        else default_threshold()
    check_opts = {"fit_tol": float(opts.get("fit_tol", 2e-2)),
                  "threshold": threshold,
                  "square_mode": opts.get("square_mode", "increments")}
    parallel = _parallel(opts)

    if "tree" in opts:
        details = [_checked(_file_instance(opts, seed), **check_opts)]
    else:
        count = int(opts.get("instances", 24))
        if count < 1:
            raise ValidationError(
                f"--instances must be at least 1, got {count}")
        suite_opts = {
            "dims": (int(opts["d"]),) if opts.get("d") is not None
            else (1, 2, 3),
            "ps": (float(opts["p"]),) if opts.get("p") is not None
            else (1.5, 2.0, 3.0, 4.0),
            "depth_range": (int(opts["depth"]), int(opts["depth"]))
            if opts.get("depth") is not None else (4, 12)}
        jobs = [(i, seed, suite_opts, check_opts) for i in range(count)]
        if parallel > 1:
            ctx = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=parallel,
                                     mp_context=ctx) as ex:
                details = list(ex.map(_check_suite_instance, jobs))
        else:
            details = [_check_suite_instance(job) for job in jobs]

    summary, shown = {}, {}
    for r in (r for detail in details for r in detail["results"]):
        agg = summary.setdefault(r["name"], {"passed": True})
        agg["passed"] = agg["passed"] and r["passed"]
        if r["name"] not in shown or \
                _nearness(r) > _nearness(shown[r["name"]]):
            shown[r["name"]] = r
            agg["worst"], agg["bound"] = r["measured"], r["bound"]

    if opts.get("acceptance"):
        records, fit = leaf_scale_sweep(p=2.0, d=1, seed=seed)
        summary["slope_window_p2"] = {
            "passed": 0.75 <= fit["slope"] <= 1.05,
            "worst": fit["slope"], "bound": scalar_target_exponent(2.0)}

    report = {"seed": seed, "threshold": threshold,
              "instances": len(details),
              "summary": {k: summary[k] for k in sorted(summary)},
              "details": details}
    with open(out / "check_report.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1, default=float)
        fh.write("\n")

    failed = False
    for name in sorted(summary):
        agg = summary[name]
        status = "PASS" if agg["passed"] else "FAIL"
        failed = failed or not agg["passed"]
        print(f"{status} {name}: measured {agg['worst']:.6g} "
              f"vs bound {agg['bound']:.6g}")
    print(f"report: {out / 'check_report.json'}")
    return CHECK_FAILURE if failed else 0


# every key that ``wml sweep`` reads from its config
SWEEP_KEYS = ("family", "p", "d", "depths", "alphas", "epss", "restarts",
              "seed", "fit_tol", "out", "parallel")


def cmd_sweep(args):
    config = _load_config(args.config)
    _reject_unknown(config, SWEEP_KEYS, "sweep")
    opts = _merged(config, args, ("p", "d", "out", "parallel"))
    seed = _resolve_seed(args, config)
    parallel = _parallel(opts)
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    cfg = SweepConfig(
        family=opts.get("family", "power"),
        p=float(opts.get("p", 2.0)),
        d=int(opts.get("d", 1)),
        depths=tuple(opts.get("depths", (6, 8, 10))),
        alphas=tuple(opts.get("alphas", (0.4, 0.6, 0.8, 0.95))),
        epss=tuple(opts.get("epss", (0.25, 0.015625))),
        restarts=int(opts.get("restarts", 4)),
        seed=seed,
        fit_tol=float(opts.get("fit_tol", 2e-2)))
    try:
        records, fit = run_sweep(cfg, parallel=parallel)
    except SweepPointError as exc:
        print(f"FAIL {exc}")
        return CHECK_FAILURE
    write_sweep_csv(out / "sweep.csv", records)
    write_fit_json(out / "fit.json", fit)
    print(f"{len(records)} records -> {out / 'sweep.csv'}")
    print(f"converged {sum(r.converged for r in records)}/{len(records)} points")
    print(f"slope {fit['slope']:.4f} (stderr {fit['stderr']:.4f}) "
          f"-> {out / 'fit.json'}")
    return 0


def _csv_fit(args):
    """(rows of the --csv sweep CSV, their sweep_fit, output directory)
    for the fit and report commands."""
    opts = _merged(_load_config(args.config), args, ("csv", "out"))
    if "csv" not in opts:
        raise ValidationError(
            f"{args.command} needs --csv pointing at a sweep CSV")
    rows = read_sweep_csv(opts["csv"])
    fit = sweep_fit((r["ap_char"], r["ratio"]) for r in rows)
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return rows, fit, out


def cmd_fit(args):
    rows, fit, out = _csv_fit(args)
    write_fit_json(out / "fit.json", fit)
    print(f"slope {fit['slope']:.6f} intercept {fit['intercept']:.6f} "
          f"stderr {fit['stderr']:.6f} n {fit['n']}")
    return 0


def cmd_report(args):
    rows, fit, out = _csv_fit(args)
    slope, intercept, stderr = fit["slope"], fit["intercept"], fit["stderr"]

    by_family = {}
    for r in rows:
        by_family.setdefault((r["family"], r["p"], r["d"]), []).append(r)

    lines = ["exponent sweep report", "====================="]
    for (family, p, d), rs in sorted(by_family.items()):
        target = scalar_target_exponent(p) if d == 1 else \
            matrix_target_exponent(p)
        kind = "scalar" if d == 1 else "matrix"
        aps = [r["ap_char"] for r in rs]
        lines.append(
            f"family {family} (p={p:g}, d={d}): {len(rs)} points, "
            f"characteristic in [{min(aps):.4g}, {max(aps):.4g}]")
        lines.append(
            f"  {kind} target exponent max bound: {target:.4g}; "
            f"fitted slope {slope:.4g} (stderr {stderr:.4g})")
    lines.append(f"overall: slope {slope:.6g}, intercept {intercept:.6g}, "
                 f"stderr {stderr:.6g}, n {len(rows)}")
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text)

    with open(out / "points.csv", "w") as fh:
        fh.write("log_ap_char,log_ratio\n")
        for r in rows:
            fh.write(f"{repr(float(np.log(r['ap_char'])))},"
                     f"{repr(float(np.log(r['ratio'])))}\n")
    sys.stdout.write(text)
    print(f"points: {out / 'points.csv'}")
    return 0


def build_parser():
    parser = _Parser(prog="wml", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    common = dict(config=(("--config",), {"type": str, "default": None}),
                  seed=(("--seed",), {"type": int, "default": None}),
                  out=(("--out",), {"type": str, "default": None}))

    def add(name, func, extra=()):
        sp = sub.add_parser(name)
        for flag, kw in common.values():
            sp.add_argument(*flag, **kw)
        for flag, kw in extra:
            sp.add_argument(flag, **kw)
        sp.set_defaults(func=func)
        return sp

    add("gen", cmd_gen, extra=[
        ("--depth", {"type": int, "default": None}),
        ("--d", {"type": int, "default": None}),
        ("--p", {"type": float, "default": None}),
    ])
    add("check", cmd_check, extra=[
        ("--p", {"type": float, "default": None}),
        ("--d", {"type": int, "default": None}),
        ("--depth", {"type": int, "default": None}),
        ("--cgamma", {"type": float, "default": None}),
        ("--instances", {"type": int, "default": None}),
        ("--parallel", {"type": int, "default": None}),
        ("--acceptance", {"action": "store_true", "default": None}),
        ("--square-mode", {"type": str, "default": None,
                           "choices": ("increments", "first_value",
                                       "with_mean"),
                           "dest": "square_mode"}),
    ])
    add("sweep", cmd_sweep, extra=[
        ("--p", {"type": float, "default": None}),
        ("--d", {"type": int, "default": None}),
        ("--parallel", {"type": int, "default": None}),
    ])
    add("fit", cmd_fit, extra=[("--csv", {"type": str, "default": None})])
    add("report", cmd_report, extra=[("--csv", {"type": str, "default": None})])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError,
            KeyError, NotADirectoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
