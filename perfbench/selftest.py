#!/usr/bin/env python3
"""Self-test of the perfbench benchmark: smoke-sized runs of every
workload that check its output contract.

  - every run ends with the JSON result object, with exactly the keys
    correct/attempted/failed/metrics, correct true and failed 0;
  - an untraced run's metrics are exactly BENCHMARK.json's end_to_end
    names, a traced run's its per_layer names, in that order, each
    with its declared unit and each also printed once as a
    "metric <name> <value> <unit>" line;
  - every run prints the host descriptor once;
  - two untraced runs with the same seed print identical exact counts.

Run from the repository root (a few minutes after the build):

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "7"
SECONDS = "2"


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr[-2000:]}")
    return lines


def prefixed(lines, prefix):
    return [line[len(prefix):] for line in lines if line.startswith(prefix)]


def check_result(lines, expected, label):
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
    assert result["correct"] is True and result["failed"] == 0, label
    assert result["attempted"] >= 1, label
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    assert list(metrics) == names, f"{label}: {list(metrics)}"
    printed = [line.split() for line in prefixed(lines, "metric ")]
    assert [p[0] for p in printed] == names, f"{label}: metric lines"
    for m, line in zip(expected, printed):
        assert metrics[m["name"]]["unit"] == m["unit"], f"{label}: {m['name']}"
        assert line[2] == m["unit"], f"{label}: {m['name']} line unit"
    assert len(prefixed(lines, "host ")) == 1, f"{label}: host descriptor"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        first = run(workload, 0)
        check_result(first, spec["end_to_end"], f"{workload} untraced")
        second = run(workload, 0)
        exact = prefixed(first, "exact ")
        again = prefixed(second, "exact ")
        assert len(exact) == 1 and exact == again, (
            f"{workload}: exact counts differ:\n{exact}\n{again}")
        check_result(run(workload, 1), spec["per_layer"], f"{workload} traced")
        print(f"ok {workload}: {exact[0]}")
    print("perfbench selftest passed")


if __name__ == "__main__":
    main()
