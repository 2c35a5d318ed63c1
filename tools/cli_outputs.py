#!/usr/bin/env python3
"""Every output of a fixed set of ``freqcert`` commands, one line each, hashed.

Usage, from the root of a checkout:

    python3 tools/cli_outputs.py > cli.txt

It imports freqcert from ``src/`` of the checkout it sits in, writes the
config files below to a temporary directory and calls ``cli.main``
in-process on each command:

- ``simulate --per-coordinate`` of every method family on each of the four
  operator kinds, alternating ogd on a bilinear game, a general method with
  an explicit history and a diverging gd, each under all five noise
  strategies (noise_delta 0.05, seed 7);
- one certify, one sweep, one nyquist, one spectrum and one equivalence.

Each line holds the command (its files by name), the exit code and the
sha256 of what the command wrote: its stdout, its stderr (warnings
included, every one shown) and its ``--out`` file, in that order. When the
files of two checkouts compare equal (``cmp``), both CLIs write the same
bytes on every command. It exits with status 1, after printing every line,
when any command exits 1 (an input or usage error: no command here should).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as the benchmark runs; precedes numpy

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from freqcert import cli  # noqa: E402

STEPS = 40
NOISE = ("none", "scale_up", "scale_down", "rotate", "random")
HORIZON2 = {"a": [0.6, 0.4]}
METHODS = {
    "gd": {"eta": 0.2},
    "ogd": {"eta": 0.1},
    "gogd": {"alpha": 0.1, "beta": 0.05},
    "pp": {"eta": 0.5},
    "pid": {"kp": 0.09, "ki": 0.13, "kd": 0.025},
    "hgd": {"eta": 0.1, **HORIZON2},
    "general": {"eta": 0.1, **HORIZON2, "b": [0.9, 0.1]},
    "pegd": {"eta": 0.1},
    "rgd": {"eta": 0.1},
}
DIAGONAL = {"kind": "diagonal-quadratic", "spectrum": [0.5, 2.0, 4.0],
            "fixed_point": [1.0, -0.5, 0.25]}
BILINEAR = {"kind": "bilinear", "matrix": [[1.0, 0.3], [-0.2, 0.8]]}
OPERATORS = {  # each kind, with its start point
    "diagonal": (DIAGONAL, [2.0, 1.0, -1.0]),
    "noncvx": ({"kind": "scalar-noncvx"}, [2.0]),
    "bilinear": (BILINEAR, [1.0, -1.0, 0.5, 0.5]),
    "minmax": ({"kind": "minmax-quadratic", "p": [[2.0, 0.1], [0.1, 1.5]], "q": [[1.2]],
                "c": [[0.5], [0.3]], "mu": 1.0}, [1.0, -1.0, 0.5]),
}
SECTOR = {"mu": 0.5, "L": 4.0, "delta": 0.02}


def method(family, **fields):
    return {"family": family, **METHODS[family], **fields}


def simulations() -> dict:
    """The simulate configs by file stem."""
    configs = {
        f"{family}-{name}": {"method": method(family), "operator": op, "x0": x0}
        for family in METHODS
        for name, (op, x0) in OPERATORS.items()
    }
    configs["ogd-alternating"] = {"method": method("ogd"), "operator": BILINEAR,
                                  "x0": [1.0, -1.0, 0.5, 0.5], "mode": "alternating"}
    configs["general-history"] = {"method": method("general"), "operator": DIAGONAL,
                                  "x0": [2.0, 1.0, -1.0], "history": [[1.5, 0.5, -0.5]]}
    configs["gd-diverging"] = {"method": method("gd", eta=2.0), "operator": DIAGONAL,
                               "x0": [2.0, 1.0, -1.0]}
    for config in configs.values():
        config["noise_delta"] = 0.05
    return configs


def commands(workdir: Path) -> list:
    """Every command as its argv, each config written to ``workdir``."""
    configs = {f"{stem}.json": config for stem, config in simulations().items()}
    argvs = [
        ["simulate", "--config", name, "--steps", str(STEPS), "--seed", "7",
         "--noise-strategy", strategy, "--per-coordinate", "--out", "out.csv"]
        for name in configs for strategy in NOISE
    ]
    configs["query.json"] = {"method": method("ogd"), "sector": SECTOR, "rho": 0.98}
    configs["sweep.json"] = {"method": method("gd"), "sector": SECTOR}
    argvs += [
        ["certify", "--config", "query.json"],
        ["sweep", "--config", "sweep.json", "--eta-min", "0.05", "--eta-max", "0.4",
         "--eta-steps", "3", "--out", "out.csv"],
        ["nyquist", "--config", "query.json", "--points", "64", "--out", "out.csv"],
        ["spectrum", "--s-min", "0.1", "--s-max", "2", "--points", "8", "--out", "out.csv"],
        ["equivalence", "--lhs", json.dumps(method("gd")),
         "--rhs", json.dumps({"family": "hgd", "eta": 0.2, "a": [1.0]})],
    ]
    for name, config in configs.items():
        (workdir / name).write_text(json.dumps(config), encoding="utf-8")
    return argvs


def output_line(argv, workdir: Path) -> tuple:
    """Run one command; return its line and exit code."""
    out = workdir / "out.csv"
    out.unlink(missing_ok=True)
    args = [str(workdir / a) if a.endswith((".json", ".csv")) else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always")  # every warning, in every call, to stderr
        code = cli.main(args)
    digest = hashlib.sha256(stdout.getvalue().encode() + stderr.getvalue().encode())
    if out.exists():
        digest.update(out.read_bytes())
    return f"{' '.join(argv)} | exit {code} | {digest.hexdigest()}", code


def main() -> int:
    """Print every command's line; return 1 when any command exits 1, else 0."""
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for argv in commands(workdir):
            line, code = output_line(argv, workdir)
            failed |= code == cli.EXIT_ERROR
            print(line)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
