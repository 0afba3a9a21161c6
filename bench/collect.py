"""Run the benchmark on several seeds and summarise the runs.

    python3 bench/collect.py --label 0 --seeds 1-10

Runs every workload of BENCHMARK.json for its ``run_seconds``, each run its
own process (``python3 bench/run.py ...``), one after the other, from the
root of the checkout. For each workload and end-to-end metric it prints
the median, the quartiles and the spread (quartile distance over the
median) against the bound in BENCHMARK.json. It then makes one traced run
per workload on the first seed. Everything is written to
bench/baseline/BENCH_<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload, seed, seconds, trace, report):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--report", str(report)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(report.read_text())


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    scratch = BENCH / "out" / "collect"

    out = {"label": args.label, "seeds": seeds, "seconds": seconds,
           "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            rep = one_run(workload, seed, seconds, 0,
                          scratch / f"{workload}-{seed}.json")
            runs.append(rep)
            res = rep["result"]
            print(f"{workload} seed {seed}: correct {res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        out["env"] = runs[0]["env"]
        summary = {}
        for name, bound in bounds.items():
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            summary[name] = stats
            print(f"  {workload} {name}: median {stats['median']:.5g} "
                  f"[{stats['q1']:.5g}, {stats['q3']:.5g}] spread "
                  f"{stats['spread']:.3f} (bound {bound})", flush=True)
        for name in runs[0]["printed_only"]:
            stats = summarise([r["printed_only"][name] for r in runs])
            summary[name] = stats
            print(f"  {workload} {name} (printed only): median {stats['median']:.5g} "
                  f"[{stats['q1']:.5g}, {stats['q3']:.5g}] spread {stats['spread']:.3f}",
                  flush=True)
        entry = {"summary": summary,
                 "runs": [{"seed": r["seed"], "info": r["info"],
                           "printed_only": r["printed_only"], **r["result"]}
                          for r in runs]}
        rep = one_run(workload, seeds[0], seconds, 1,
                      scratch / f"{workload}-{seeds[0]}-trace.json")
        entry["traced"] = {"seed": seeds[0], "correct": rep["result"]["correct"],
                           "metrics": rep["result"]["metrics"],
                           "layers": rep["layers"]}
        print(f"  {workload} traced: correct {rep['result']['correct']}, "
              f"overhead {rep['result']['metrics']['trace.overhead_ratio']['value']:.3f}",
              flush=True)
        out["workloads"][workload] = entry
    path = BENCH / "baseline" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
