#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark on two checkouts, one workload and seed.

Usage, from anywhere:

    python3 tools/ab_pairs.py --base ../parent --change . --workload simulate \\
        --seed 3 --pairs 10 --seconds 30

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other, in a fresh interpreter with the checkout as its working
directory; the side that runs first alternates from pair to pair. It reads
the metrics from each run's last stdout line and reads nothing else of
``perfbench/``, which it does not edit.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the change's median relative to the base's, and the
pairs the change won, ties counting for neither side. ``gain`` is yes when
the change won at least nine tenths of the pairs and its median is better
than the base's by more than the base's interquartile range. A run that
exits non-zero or prints no result line stops the tool with status 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end(benchmark=ROOT / "BENCHMARK.json") -> list:
    """(name, unit, better) of every end-to-end metric of the benchmark."""
    spec = json.loads(Path(benchmark).read_text(encoding="utf-8"))
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: metric name -> value."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: outputs did not repeat between passes")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(base: list, change: list, metrics: list) -> list:
    """One row per metric from the paired runs ``base[i]``, ``change[i]``:
    (name, unit, base quartiles, change quartiles, change/base median,
    wins, gain)."""
    rows = []
    for name, unit, better in metrics:
        sign = 1.0 if better == "higher" else -1.0
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        bq = statistics.quantiles(b, n=4, method="inclusive")
        cq = statistics.quantiles(c, n=4, method="inclusive")
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        gain = wins >= 0.9 * len(b) and sign * (cq[1] - bq[1]) > bq[2] - bq[0]
        rows.append((name, unit, bq, cq, cq[1] / bq[1], wins, gain))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=["rate_search", "step_sweep", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs = {"base": [], "change": []}
    try:
        for i in range(args.pairs):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs}: ops_per_s base {runs['base'][-1]['ops_per_s']:.4g}, "
                  f"change {runs['change'][-1]['ops_per_s']:.4g}", file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed}, {args.pairs} pairs of {args.seconds:g} s runs "
          f"(base {sides['base']}, change {sides['change']})")
    print(f"{'metric':<12} {'unit':<6} {'base median [q1, q3]':<28} {'change median [q1, q3]':<28} "
          f"{'change/base':>11} {'wins':>6}  gain")
    quart = "{1:.4g} [{0:.4g}, {2:.4g}]".format  # median [q1, q3]
    for name, unit, bq, cq, ratio, wins, gain in summarize(runs["base"], runs["change"], end_to_end()):
        print(f"{name:<12} {unit:<6} {quart(*bq):<28} {quart(*cq):<28} {ratio:>11.4f} "
              f"{wins:>3}/{args.pairs:<2}  {'yes' if gain else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
