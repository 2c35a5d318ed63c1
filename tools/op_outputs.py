#!/usr/bin/env python3
"""Every op output of the benchmark workloads, one line each, floats exact.

Usage, from the root of a checkout:

    python3 tools/op_outputs.py > outputs.txt

It imports freqcert from ``src/`` and the workloads from ``perfbench/`` of
the checkout it sits in, builds rate_search, step_sweep and simulate for
seeds 1 and 2, calls every op once and prints the workload, seed, op index
and label, the output with every float as ``float.hex``, and the op's check
verdict. When the files of two checkouts compare equal (``cmp``), both
compute the same numbers, bit for bit, on every benchmark input. It exits
with status 1, after printing every line, when any op fails its check.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as the benchmark runs; precedes numpy

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

SEEDS = (1, 2)


def exact(value) -> str:
    """``value`` as text, every float (numpy's included) in ``float.hex``."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(exact(v) for v in value) + ")"
    return repr(value)


def main() -> int:
    """Print every op's line; return 1 when any op fails its check, else 0."""
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        for name in ("rate_search", "step_sweep", "simulate"):
            for seed in SEEDS:
                for index, op in enumerate(workloads.WORKLOADS[name](seed, workdir)):
                    try:
                        out = op.call()
                    except Exception as exc:  # reported like the benchmark does
                        out = f"raised {type(exc).__name__}: {exc}"
                    verdict = op.check(out)
                    failed |= bool(verdict)
                    print(f"{name} {seed} {index} {op.label} | {exact(out)} | {verdict or 'ok'}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
