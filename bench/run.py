"""Run one wml benchmark workload and print its metrics.

    python3 bench/run.py --workload battery-mixed --seed 7 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from the
checkout's ``src``. ``--trace 0`` measures the end-to-end metrics with
nothing wrapped; ``--trace 1`` wraps the public functions of the library's
modules and prints the per-layer metrics. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit.
See bench/README.md for the workloads, the seeds and the metrics.
"""

import os

# pinned before numpy is imported, so that one run is one busy core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="battery-mixed, battery-scalar or sweep-rotating")
    ap.add_argument("--seed", type=int, default=7,
                    help="workload seed (default 7; hold out 23 for claims)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time; at least one full pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="use only the first N items (smoke tests)")
    ap.add_argument("--report", type=Path, default=None,
                    help="also write a JSON report with the per-function table")
    args = ap.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        ap.error("--limit must be at least 1")
    if args.seconds < 0:
        ap.error("--seconds must not be negative")
    return args


def import_library():
    """Import wml from the checkout's src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import wml
    except ImportError as exc:
        sys.exit(f"error: cannot import wml from {SRC}: {exc}")
    origin = Path(wml.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: wml was imported from {origin}, not from {SRC}")
    import harness
    return harness


def main(argv=None):
    args = parse_args(argv)
    harness = import_library()
    import_s = harness.calibrated(time.perf_counter() - T_START, harness.probe_s())
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(harness.WORKLOADS)}")
    env = harness.environment()
    print(f"env workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")

    table = None
    if args.trace:
        metrics, table, n_passes, gate = harness.traced(
            workload, args.seed, args.seconds, args.limit)
        print(f"traced {n_passes} pass(es); per-layer figures are per pass")
        width = max(len(q) for q in table)
        total = sum(row["self_s"] for row in table.values()) or 1.0
        for q, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"layer {q:<{width}} calls {row['calls']:>10.0f} "
                  f"self {row['self_s']:10.4f} s ({100 * row['self_s'] / total:5.1f}%) "
                  f"incl {row['total_s']:10.4f} s")
    else:
        items, setup_round_s = harness.setup(workload, args.seed, args.limit)
        times, gate = harness.measure(workload, items, args.seed, args.seconds)
        metrics = harness.end_to_end(times, import_s + setup_round_s)
        runs = sum(len(t) for t in times)
        print(f"samples {len(items)} inputs (timed by the mean of their "
              f"{min(len(t) for t in times)}-{max(len(t) for t in times)} runs; "
              f"{runs} runs in all)")

    fail_ratio = gate.failed / gate.attempted
    for name, (value, unit) in metrics.items():
        note = " (printed only)" if name in harness.PRINTED_ONLY else ""
        print(f"metric {name} {value:.6g} {unit}{note}")
    print(f"metric fail_ratio {fail_ratio:.6g} 1 ({gate.failed}/{gate.attempted})")
    if workload.kind == "battery":
        ref = "recorded" if gate.reference is not None else "not recorded"
        print(f"reference for seed {args.seed}: {ref}; exact-path instances "
              f"matched {gate.exact_checked}; ellipsoid-path instances compared "
              f"{gate.ellipsoid_checked}, largest relative drift "
              f"{gate.ellipsoid_drift:.3g} (information)")
    for key, value in gate.info.items():
        print(f"{key} {value}")
    for problem in gate.problems[:20]:
        print(f"FAIL {problem}")

    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()
                          if name not in harness.PRINTED_ONLY}}
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "fail_ratio": fail_ratio, "info": gate.info,
            "printed_only": {name: metrics[name][0] for name in harness.PRINTED_ONLY
                             if name in metrics},
            "problems": gate.problems, "layers": table, "result": result},
            indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
