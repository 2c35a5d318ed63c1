#!/usr/bin/env python3
"""freqcert benchmark: one workload, one seed, one JSON verdict line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rate_search --seed 1 --seconds 30 --trace 0

A run imports freqcert from ``src/`` of the checkout, builds the workload's
seeded inputs, warms up on every third op and then runs whole timed passes
over all ops for about ``--seconds`` (at least two passes). Every op's output
is checked after timing, and every pass must repeat the first pass's outputs;
``attempted`` and ``failed`` count each distinct op once.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics. A result file with the run environment,
failures and counters is written to ``perfbench/out/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # one BLAS thread; must precede the numpy import

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 9
SETUP_ERRORS = (ImportError, OSError, RuntimeError, ValueError, subprocess.TimeoutExpired)
MIN_PASSES = 2
WARMUP_STRIDE = 3
PROBE_TIMEOUT_S = 60

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]

# span name -> per-op metrics reported for it
SPAN_METRICS = {
    "transfer.RationalTF.from_coeffs": ("calls", "self_ms", "np_roots_calls"),
    "transfer.build_transfer": ("calls", "self_ms"),
    "transfer.complementary_sensitivity": ("calls", "self_ms"),
    "transfer.rho_scale": ("calls", "self_ms"),
    "stability.is_schur": ("calls", "self_ms", "np_roots_calls"),
    "gain.hinf_norm": ("calls", "self_ms"),
    "certify.certify": ("calls", "self_ms"),
    "certify.best_rate": ("calls", "self_ms"),
    "certify.max_learning_rate": ("calls", "self_ms"),
    "cli.main": ("calls", "self_ms"),
    "dynamics.run": ("calls", "self_ms"),
    "dynamics.apply_noise": ("calls", "self_ms"),
    "dynamics.estimate_rate": ("calls", "self_ms"),
    "operators.eval_operator": ("calls", "self_ms"),
    "operators.derived_sector": ("calls", "self_ms"),
    "games.BilinearGame.from_matrix": ("calls", "self_ms"),
    "games.bilinear_threshold": ("calls", "self_ms"),
    "games.spectrum_curve": ("calls", "self_ms"),
}
SPAN_UNITS = {"calls": "calls/op", "self_ms": "ms/op", "np_roots_calls": "calls/op"}
EXTRA_PER_LAYER = [
    ("stability.roots.calls", "calls/op"),
    ("stability.spectral_radius_poly.calls", "calls/op"),
    ("gain.grid_points", "points/call"),
    ("certify.certify_calls_per_search", "calls/search"),
    ("cli.bytes_written", "bytes/op"),
    ("dynamics.steps", "steps/op"),
    ("dynamics.linalg_solve_calls", "calls/op"),
    ("trace.overhead_pct", "%"),
]
PER_LAYER = [
    (f"{span}.{kind}", SPAN_UNITS[kind]) for span, kinds in SPAN_METRICS.items() for kind in kinds
] + EXTRA_PER_LAYER
# Per-layer metrics that are wall times; every other one must repeat exactly.
TIMED = {name for name, unit in PER_LAYER if unit in ("ms/op", "%")}


def load(workload: str, seed: int):
    """Import freqcert from the checkout and build the workload's ops;
    returns the ops and the seconds this took."""
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import freqcert

    if Path(freqcert.__file__).resolve().parent != src / "freqcert":
        raise ImportError(f"freqcert imported from {freqcert.__file__}, not from {src}")
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.WORKLOADS[workload](seed, str(OUT_DIR / workload))
    return ops, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: import plus input construction."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_pass(ops, tracer=None):
    """Run every op once; returns wall seconds, per-op seconds and outputs."""
    latencies, outputs = [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = index
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failing op is counted, never fatal
            out = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, latencies, outputs


def layer_metrics(tracer, ops, outputs) -> dict:
    n = len(ops)
    values = {}
    for span, kinds in SPAN_METRICS.items():
        values[f"{span}.calls"] = tracer.calls[span] / n
        values[f"{span}.self_ms"] = tracer.self_ns[span] / 1e6 / n
        if "np_roots_calls" in kinds:
            values[f"{span}.np_roots_calls"] = tracer.charged[(span, "np_roots_calls")] / n
    for name in ("stability.roots.calls", "stability.spectral_radius_poly.calls", "dynamics.steps"):
        values[name] = tracer.counters[name] / n
    values["gain.grid_points"] = tracer.counters["gain.grid_points"] / max(tracer.calls["gain.hinf_norm"], 1)
    searches = tracer.calls["certify.best_rate"] + tracer.calls["certify.max_learning_rate"]
    values["certify.certify_calls_per_search"] = tracer.calls["certify.certify"] / max(searches, 1)
    written = sum(len(out[1]) for op, out in zip(ops, outputs)
                  if op.kind == "sweep" and isinstance(out, tuple))
    values["cli.bytes_written"] = written / n
    values["dynamics.linalg_solve_calls"] = sum(
        count for (_, counter), count in tracer.charged.items() if counter == "linalg_solve_calls"
    ) / n
    return values


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        "threads": "one process, one thread; set-up probes run one at a time",
        "machine_tuning": "none: no CPU pinning, frequency, cache or kernel settings were changed",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["rate_search", "step_sweep", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(ops, seconds, trace):
    """Whole passes over ``ops`` for about ``seconds``, at least MIN_PASSES
    untraced (and, with ``trace``, as many traced ones, alternating).
    Returns (tracer or None, wall seconds, latencies, outputs) per pass."""
    from tracer import Tracer

    passes = []
    start = time.perf_counter()
    while True:
        n_traced = sum(p[0] is not None for p in passes)
        n_untraced = len(passes) - n_traced
        elapsed = time.perf_counter() - start
        # stop at the pass boundary nearest to `seconds`
        enough = bool(passes) and elapsed * (1 + 0.5 / len(passes)) >= seconds
        if enough and n_untraced >= MIN_PASSES and (not trace or n_traced >= MIN_PASSES):
            return passes
        tracer = Tracer() if trace and n_untraced > n_traced else None
        if tracer is not None:
            tracer.install()
        try:
            passes.append((tracer, *run_pass(ops, tracer)))
        finally:
            if tracer is not None:
                tracer.remove()


def account(ops, passes):
    """Check the first pass's outputs and compare every pass with it.
    Each op counts once in attempted and failed, whatever the number of
    passes, so both depend only on the seed; a pass that does not repeat the
    first one's outputs makes the run incorrect instead. Returns attempted,
    failed, the failing ops with reasons, and the labels of ops whose output
    differed from the first pass."""
    reference = passes[0][3]
    verdicts = []
    for op, out in zip(ops, reference):
        try:
            verdicts.append(op.check(out))
        except Exception as exc:  # a check that cannot decide fails the op
            verdicts.append(f"check raised {type(exc).__name__}: {exc}")
    mismatches = {ops[i].label for _, _, _, outputs in passes
                  for i, out in enumerate(outputs) if out != reference[i]}
    failures = [{"op": op.label, "reason": v} for op, v in zip(ops, verdicts) if v is not None]
    return len(ops), len(failures), failures, sorted(mismatches)


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def trace_summary(workload, ops, untraced, traced):
    """Per-layer metrics (median over traced passes) and the traced-run
    fields of the result file."""
    per_pass = [layer_metrics(p[0], ops, p[3]) for p in traced]
    counters = {k: v for k, v in per_pass[0].items() if k not in TIMED}
    repeated = all({k: v for k, v in m.items() if k not in TIMED} == counters for m in per_pass)
    untraced_s = statistics.median(p[1] for p in untraced)
    traced_s = statistics.median(p[1] for p in traced)
    layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    layers["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    spans_path = OUT_DIR / f"{workload}-spans.jsonl.gz"
    traced[0][0].write_spans(spans_path)
    certifies = layers["certify.certify.calls"]
    fields = {
        "traced_passes": len(traced),
        "deterministic_counters": counters,
        "counters_repeat_across_traced_passes": repeated,
        "np_roots_calls_per_certify": {
            span: layers[f"{span}.np_roots_calls"] / certifies
            for span in ("transfer.RationalTF.from_coeffs", "stability.is_schur")
        } if certifies else {},
        "grid_points_note": "gain.grid_points is computed from the loop degree as in hinf_norm, not sampled",
        "per_layer": layers,
        "tracing_overhead": {
            "untraced_pass_s": untraced_s,
            "traced_pass_s": traced_s,
            "overhead_s": traced_s - untraced_s,
        },
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": traced[0][0].span_count,
    }
    return layers, fields, repeated


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ops, parent_setup_s = load(args.workload, args.seed)
        if args.setup_probe:
            print(json.dumps({"setup_s": parent_setup_s}))
            return 0
        # Set-up probes run before and after the timed passes, so that their
        # median spans the machine's state over the whole run.
        setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2 + 1)]
    except SETUP_ERRORS as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 1

    warmup_s, _, _ = run_pass(ops[::WARMUP_STRIDE])
    passes = measure(ops, args.seconds, args.trace)
    try:
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
    except SETUP_ERRORS as exc:
        print(f"error: set-up probe after timing failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, failures, mismatches = account(ops, passes)

    untraced = [p for p in passes if p[0] is None]
    traced = [p for p in passes if p[0] is not None]
    latencies = sorted(x for p in untraced for x in p[2])
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(latencies) / sum(p[1] for p in untraced),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90(latencies) * 1e3,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op": " ".join(sys.modules["workloads"].WORKLOADS[args.workload].__doc__.split()),
        "ops_per_pass": len(ops),
        "timed_passes": len(untraced),
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(x > e2e["op_p90_ms"] / 1e3 for x in latencies),
        "attempted": attempted,
        "failed": failed,
        "op_calls": sum(len(p[2]) for p in passes),
        "failed_frac": failed / attempted,
        "failures": failures,
        "nondeterministic_ops": mismatches,
        "warmup_s": warmup_s,
        "setup_s_samples": setup_samples,
        "setup_s_this_process": parent_setup_s,
        "pass_wall_s": [p[1] for p in untraced],
        "pass_p50_ms": [statistics.median(p[2]) * 1e3 for p in untraced],
        "pass_p90_ms": [p90(p[2]) * 1e3 for p in untraced],
        "end_to_end": e2e,
        "environment": environment(),
    }
    correct = not mismatches
    if args.trace:
        layers, fields, repeated = trace_summary(args.workload, ops, untraced, traced)
        result.update(fields)
        correct = correct and repeated
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    result["correct"] = correct
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"{args.workload} seed={args.seed}: {len(ops)} distinct ops, "
          f"{len(latencies)} timed samples ({result['samples_beyond_p90']} beyond p90), "
          f"{failed} of {attempted} distinct ops failed (failed_frac {failed / attempted:.4g})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
