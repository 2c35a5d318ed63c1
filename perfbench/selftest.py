#!/usr/bin/env python3
"""Self-test of the benchmark.

For each workload: one short untraced run must print exactly the end-to-end
metrics of BENCHMARK.json with their units, and two traced runs with the same
seed must print exactly its per-layer metrics and repeat every deterministic
counter (call counts, numpy root/solve counts, grid points, steps, bytes).
All three runs must report the same ``attempted`` and ``failed``, although
their pass counts differ.

    python3 perfbench/selftest.py

Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300
SEED = 7


def require(ok, message):
    if not ok:
        raise AssertionError(message)


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}")
    line = json.loads(done.stdout.splitlines()[-1])
    with open(HERE / "out" / f"{workload}-trace{trace}.json", encoding="utf-8") as fh:
        return line, json.load(fh)


def check_line(line, expected, what):
    require(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(line)}")
    require(line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"], f"{what}: counts")
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    require(got == expected, f"{what}: metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        line, _ = run(workload, SEED, 0)
        check_line(line, end_to_end, f"{workload} untraced")
        require(line["correct"], f"{workload}: outputs did not repeat across passes")
        counts = (line["attempted"], line["failed"])
        counters = []
        for _ in range(2):
            line, result = run(workload, SEED, 1)
            check_line(line, per_layer, f"{workload} traced")
            require((line["attempted"], line["failed"]) == counts,
                    f"{workload}: attempted/failed {line['attempted']}/{line['failed']}, untraced {counts}")
            require(result["counters_repeat_across_traced_passes"], f"{workload}: counters moved between passes")
            counters.append(result["deterministic_counters"])
        require(counters[0] == counters[1], f"{workload}: counters differ between two traced runs")
        print(f"{workload}: ok ({len(counters[0])} deterministic counters repeat)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
