"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload through bench/run.py on its first few items, traced and
untraced, and checks that every metric named in BENCHMARK.json is printed
with its unit, that nothing fails, and that the tracer puts back every
binding it replaced.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LIMITS = {"battery-mixed": 3, "battery-scalar": 4, "sweep-rotating": 2}


def _run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--limit", str(LIMITS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(LIMITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(LIMITS))
def test_every_metric_is_printed_and_nothing_fails(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(line.startswith(f"metric {m['name']} ") for line in lines)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= LIMITS[workload]
    assert any(line.startswith("metric fail_ratio 0 ") for line in lines)
    if not trace:
        assert any(line.startswith("metric instance_s.p50 ") for line in lines)
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0


def test_tracer_replaces_and_restores_every_binding():
    for path in (ROOT / "src", BENCH):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import harness
    import wml
    from tracer import Tracer
    from wml import suite, weights

    def bindings():
        return {(name, attr): id(value) for name, mod in sys.modules.items()
                if mod is not None and (name == "wml" or name.startswith("wml."))
                for attr, value in vars(mod).items()}

    inst = suite.random_instance(0, seed=7)
    plain = harness.WORKLOADS["battery-mixed"].fingerprint(suite.instance_checks(inst))
    original = weights.build_reducing_pair
    before = bindings()
    tracer = Tracer("wml", harness.TRACED_MODULES, harness.HOOKS)
    with tracer.installed():
        # suite binds it with ``from .weights import build_reducing_pair``
        assert suite.build_reducing_pair is not original
        assert weights.build_reducing_pair is suite.build_reducing_pair
        assert wml.build_reducing_pair is suite.build_reducing_pair
        traced = harness.WORKLOADS["battery-mixed"].fingerprint(
            suite.instance_checks(inst))
    assert tracer.leftovers() == []
    assert bindings() == before
    assert weights.build_reducing_pair is original
    assert traced == plain
    assert tracer.stats["suite.instance_checks"].calls == 1
    assert tracer.stats["weights.build_reducing_pair"].calls == 1
    assert tracer.stats["filtration.cond_expect"].calls > 0
