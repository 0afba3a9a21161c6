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
win. OPTIONS declares each command's config keys and their types, FLAGS
the keys that are also flags. The seed resolution order is: --seed flag,
config value, WML_SEED environment variable, default 7. Exit codes: 0
success, 1 usage or config error, 2 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .experiments import (SweepConfig, SweepPointError, matrix_target_exponent,
                          power_weight, rotating_weight, run_sweep,
                          scalar_target_exponent, sweep_fit)
from .filtration import build_dyadic, build_from_tree
from .io import (_open_text, load_function_csv, load_tree, load_weight_csv,
                 read_sweep_csv, save_function_csv, save_tree,
                 save_weight_csv, write_fit_json, write_sweep_csv)
from .linalg import ValidationError
from .operators import MODES
from .principal import default_threshold
from .suite import Instance, instance_checks, random_instance
from .weights import as_weight, check_tolerance

USAGE_ERROR, CHECK_FAILURE = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


# every config key of each command and its type: a tuple (t,) is a JSON
# list of t, a dict the keys of a nested JSON object
OPTIONS = {
    "gen": {"kind": str, "depth": int, "d": int, "seed": int, "out": str,
            "weight": {"family": str, "alpha": float, "eps": float,
                       "sigma": float},
            "function": {"kind": str, "d": int}},
    # tree, weight and function name the files of a file instance
    "check": {"instances": int, "p": float, "d": int, "depth": int,
              "cgamma": float, "fit_tol": float, "seed": int, "out": str,
              "parallel": int, "acceptance": bool, "square_mode": str,
              "tree": str, "weight": str, "function": str},
    "sweep": {"family": str, "p": float, "d": int, "depths": (int,),
              "alphas": (float,), "epss": (float,), "restarts": int,
              "seed": int, "fit_tol": float, "out": str, "parallel": int},
    "fit": {"csv": str, "out": str},
    "report": {"csv": str, "out": str},
}
# the config keys that are also flags (--square-mode for square_mode)
FLAGS = {
    "gen": ("seed", "out", "depth", "d"),
    "check": ("seed", "out", "p", "d", "depth", "cgamma", "instances",
              "parallel", "acceptance", "square_mode"),
    "sweep": ("seed", "out", "p", "d", "parallel"),
    "fit": ("out", "csv"),
    "report": ("out", "csv"),
}


# the JSON values each scalar kind takes; a JSON boolean is a Python int,
# so only bool takes one
_JSON_VALUES = {str: str, int: int, float: (int, float), bool: bool}


def _typed(command, key, kind, value):
    """Config value ``value`` of ``key`` as ``kind``: a tuple (t,) takes a
    JSON list of t, a dict a JSON object of its keys, str only a string,
    int only an integer, float any finite number (not NaN or Infinity),
    bool only true or false, and no kind takes null. Anything else is a
    usage error naming the key."""
    if isinstance(kind, dict) and isinstance(value, dict):
        return {sub: _typed(command, f"{key}.{sub}", kind[sub], val)
                for sub, val in value.items()}
    if isinstance(kind, tuple) and isinstance(value, list):
        return tuple(_typed(command, key, kind[0], v) for v in value)
    try:
        if isinstance(kind, type) and isinstance(value, _JSON_VALUES[kind]) \
                and (kind is bool) == isinstance(value, bool) \
                and (kind is not float or math.isfinite(value)):
            return kind(value)
    except OverflowError:
        pass
    name = "a JSON object" if isinstance(kind, dict) else \
        f"a list of {kind[0].__name__}" if isinstance(kind, tuple) else \
        "a finite float" if kind is float and isinstance(value, float) else \
        kind.__name__
    raise ValidationError(
        f"{command} config key {key!r} must be {name}, got {value!r}")


def _keys(obj):
    """The keys of a JSON object, those of an object value as "a.b"."""
    return [f"{key}.{sub}" if sub else key for key, val in obj.items()
            for sub in ("", *(val if isinstance(val, dict) else ()))]


def _options(args):
    """The command's options: its --config object, checked against
    OPTIONS[command] and converted to the declared types, with the given
    flags laid over it. --instances and --parallel must be at least 1."""
    command, table = args.command, OPTIONS[args.command]
    config = {}
    if args.config is not None:
        with _open_text(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValidationError("config file must contain a JSON object")
    unknown = sorted(set(_keys(config)) - set(_keys(table)))
    if unknown:
        raise ValidationError(
            f"unknown {command} config key {', '.join(map(repr, unknown))}; "
            f"expected one of {', '.join(_keys(table))}")
    opts = {key: _typed(command, key, table[key], val)
            for key, val in config.items()}
    opts.update((key, getattr(args, key)) for key in FLAGS[command]
                if getattr(args, key) is not None)
    for key in ("instances", "parallel"):
        if opts.get(key, 1) < 1:
            raise ValidationError(
                f"--{key} must be at least 1, got {opts[key]}")
    return opts


def _seed(opts):
    """--seed flag, config value, WML_SEED environment variable, then 7."""
    if "seed" in opts:
        return opts["seed"]
    value = os.environ.get("WML_SEED", "7")
    try:
        return int(value)
    except ValueError:
        raise ValidationError(
            f"environment variable WML_SEED must be an integer, got {value!r}"
        ) from None


def cmd_gen(args):
    opts = _options(args)
    rng = np.random.default_rng(_seed(opts))
    kind = opts.get("kind", "dyadic")
    depth, d = opts.get("depth", 4), opts.get("d", 1)
    # an empty object is the spec with every default
    wspec, fspec = opts.get("weight"), opts.get("function")
    family = None if wspec is None else wspec.get("family", "power")
    if kind == "random" and family in ("power", "rotating"):
        raise ValidationError(
            f"gen 'weight.family' {family!r} is a weight on the dyadic tree "
            f"of 'depth' levels and does not fit 'kind' 'random'; use 'kind' "
            f"'dyadic' or 'weight.family' 'lognormal'")

    if kind == "dyadic":
        space = build_dyadic(depth)
    elif kind == "random":
        from .suite import random_tree_spec
        space = build_from_tree(random_tree_spec(rng, depth, 0.55, 3))
    else:
        raise ValidationError(f"unknown space kind {kind!r}")
    files = {"tree.json": (save_tree, space)}

    if wspec is not None:
        alpha = wspec.get("alpha", 0.5)
        eps = wspec.get("eps", 2.0 ** -depth)
        if family == "power":
            space, W = power_weight(depth, alpha, eps)
        elif family == "rotating":
            space, W = rotating_weight(depth, d, alpha, eps)
        elif family == "lognormal":
            sigma = wspec.get("sigma", 1.0)
            W = as_weight(np.exp(rng.normal(0.0, sigma, space.n_leaves)))
        else:
            raise ValidationError(f"unknown weight family {family!r}")
        files["weight.csv"] = (save_weight_csv, W)

    if fspec is not None:
        if fspec.get("kind", "gaussian") != "gaussian":
            raise ValidationError(
                f"unknown function kind {fspec['kind']!r}; expected gaussian")
        values = rng.standard_normal((space.n_leaves, fspec.get("d", d)))
        files["function.csv"] = (save_function_csv, values)

    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    for name, (save, obj) in files.items():
        save(out / name, obj)
        print(out / name)
    return 0


def _file_instance(opts, seed):
    space = load_tree(opts["tree"])
    W = load_weight_csv(opts["weight"]) if "weight" in opts else \
        as_weight(np.ones(space.n_leaves))
    if "function" in opts:
        f = np.asarray(load_function_csv(opts["function"]), dtype=float)
        if f.ndim == 1:
            f = f[:, None]
    else:
        f = np.random.default_rng(seed).standard_normal(
            (space.n_leaves, W.dim))
    return Instance(index=0, seed=seed, depth=space.depth, d=W.dim,
                    p=opts.get("p", 2.0), space=space, weight=W, f=f)


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


def _nearness(r):
    """Orders a check's results by how near their bound they come: failures
    first, then the larger measured / bound of an upper-bounded check or
    the smaller of a lower-bounded one."""
    assert r["bound"] > 0.0, r
    ratio = r["measured"] / r["bound"]
    return (not r["passed"], ratio if r["side"] == "upper" else -ratio)


def cmd_check(args):
    opts = _options(args)
    seed = _seed(opts)
    suite_only = [k for k in ("instances", "d", "depth", "parallel")
                  if k in opts and "tree" in opts]
    if suite_only:
        raise ValidationError("check on the files of 'tree' takes no "
                              f"{', '.join(suite_only)}")
    files_only = [k for k in ("weight", "function")
                  if k in opts and "tree" not in opts]
    if files_only:
        raise ValidationError(
            f"check takes {', '.join(map(repr, files_only))} only with "
            "'tree', which names the instance's tree file")
    for key in ("fit_tol", "cgamma"):
        if key in opts:
            check_tolerance(key, opts[key])
    if opts.get("square_mode", MODES[0]) not in MODES:
        raise ValidationError(
            f"check config key 'square_mode' must be one of "
            f"{', '.join(MODES)}, got {opts['square_mode']!r}")
    # the files are loaded before anything is written
    inst = _file_instance(opts, seed) if "tree" in opts else None
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    threshold = opts.get("cgamma", default_threshold())
    check_opts = {"threshold": threshold, **{
        k: opts[k] for k in ("fit_tol", "square_mode") if k in opts}}

    if inst is not None:
        details = [_checked(inst, **check_opts)]
    else:
        # a given d, p or depth is the suite's only one
        suite_opts = {name: (opts[key],) * n for key, name, n in (
            ("d", "dims", 1), ("p", "ps", 1), ("depth", "depth_range", 2))
            if key in opts}
        jobs = [(i, seed, suite_opts, check_opts)
                for i in range(opts.get("instances", 24))]
        if opts.get("parallel", 1) > 1:
            ctx = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=opts["parallel"],
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
        _, fit = run_sweep(SweepConfig(epss=None, seed=seed))
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


def cmd_sweep(args):
    opts = _options(args)
    cfg = SweepConfig(seed=_seed(opts), **{
        k: v for k, v in opts.items() if k not in ("seed", "out", "parallel")})
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    try:
        records, fit = run_sweep(cfg, parallel=opts.get("parallel", 1))
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
    opts = _options(args)
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
    for name, func in (("gen", cmd_gen), ("check", cmd_check),
                       ("sweep", cmd_sweep), ("fit", cmd_fit),
                       ("report", cmd_report)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        for key in FLAGS[name]:
            kind = OPTIONS[name][key]
            kw = {"action": "store_true"} if kind is bool else {"type": kind}
            if key == "square_mode":
                kw["choices"] = MODES
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            default=None, **kw)
        sp.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, json.JSONDecodeError,
            KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
