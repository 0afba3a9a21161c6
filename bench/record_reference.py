"""Record the check values that bench/run.py compares battery results with.

    python3 bench/record_reference.py --seeds 0-12,23 --jobs 2

Runs every item of each battery workload's pool once per seed and writes
bench/reference/check_values.json.gz: workload -> seed -> suite index ->
check name -> measured value. The exact d = 1 values must stay within
1e-12 of these; the ellipsoid-path values are only compared for
information. Record again only in a change that is meant to move the
exact path, and say so in that change.
"""

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import run

harness = run.import_library()


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(name, seed):
    workload = harness.WORKLOADS[name]
    values = {}
    for inst in workload.build(workload.plan(seed)):
        results, meta = workload.run(inst)
        failed = [c.name for c in results if not c.passed]
        if failed:
            raise RuntimeError(f"{name} seed {seed} instance {inst.index}: "
                               f"checks failed: {failed}")
        values[workload.key(inst)] = workload.values((results, meta))
    return name, seed, values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-12,23")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    names = [w.name for w in harness.WORKLOADS.values() if w.kind == "battery"]
    tasks = [(name, seed) for seed in parse_seeds(args.seeds) for name in names]
    out = {name: {} for name in names}
    with ProcessPoolExecutor(max_workers=args.jobs,
                             mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(record, *task) for task in tasks]
        for fut in futures:
            name, seed, values = fut.result()
            out[name][str(seed)] = values
            print(f"{name} seed {seed}: {len(values)} instances", flush=True)
    harness.save_reference(out)
    print(f"wrote {harness.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
