"""Command-line interface: certification, sweeps, and CSV/JSON emitters.

Exit codes: 0 for success (certify: certified), 2 for a completed analysis
with a negative verdict, 1 for input or I/O errors. CSV output uses '.'
decimals and 17 significant digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .certify import (
    CertificationQuery,
    best_rate,
    certify,
    frequency_response,
    gain_threshold,
)
from .dynamics import NoiseAdversary, run
from .games import spectrum_curve
from .operators import OperatorSpec, SectorParams, json_number, json_numbers
from .transfer import MethodSpec, build_transfer, tf_equal

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCERTIFIED = 2


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _load_config(path: str, required: set, optional: set) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    missing = required - set(cfg)
    if missing:
        raise ValueError(f"config is missing fields {sorted(missing)}")
    unknown = set(cfg) - required - optional
    if unknown:
        raise ValueError(f"config has unknown fields {sorted(unknown)}")
    return cfg


def _allow_improper(cfg: dict, args) -> bool:
    flag = cfg.get("allow_improper", False)
    if not isinstance(flag, bool):
        raise ValueError("allow_improper must be true or false")
    return flag or args.allow_improper


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def cmd_certify(args) -> int:
    cfg = _load_config(args.config, {"method", "sector", "rho"}, {"allow_improper"})
    query = CertificationQuery(
        method=MethodSpec.from_json(cfg["method"]),
        sector=SectorParams.from_json(cfg["sector"]),
        rho=json_number(cfg["rho"], "rho"),
        allow_non_strictly_proper=_allow_improper(cfg, args),
    )
    result = certify(query)
    print(json.dumps(result.to_json(), sort_keys=True))
    return EXIT_OK if result.certified else EXIT_UNCERTIFIED


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, {"method", "sector"}, {"allow_improper"})
    method = MethodSpec.from_json(cfg["method"])
    if method.eta is None:
        raise ValueError("sweep requires a method family with an eta field")
    sector = SectorParams.from_json(cfg["sector"])
    allow = _allow_improper(cfg, args)
    if args.eta_steps < 1:
        raise ValueError("eta-steps must be at least 1")
    if not 0 < args.eta_min <= args.eta_max:
        raise ValueError("need 0 < eta-min <= eta-max")
    grid = np.linspace(args.eta_min, args.eta_max, args.eta_steps)
    lines = ["eta,best_rho"]
    for eta in grid:
        rho = best_rate(replace(method, eta=float(eta)), sector, allow_improper=allow)
        verdict = "uncertified" if rho is None else _fmt(rho)
        lines.append(f"{_fmt(eta)},{verdict}")
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_nyquist(args) -> int:
    cfg = _load_config(args.config, {"method", "sector"}, {"rho"})
    method = MethodSpec.from_json(cfg["method"])
    sector = SectorParams.from_json(cfg["sector"])
    rho = json_number(cfg.get("rho", 1.0), "rho")
    samples = frequency_response(method, sector, rho=rho, n_points=args.points)
    radius = gain_threshold(sector)
    lines = ["omega,re,im,inside_disk"]
    for omega, value in samples:
        inside = 1 if abs(value) < radius else 0
        lines.append(f"{_fmt(omega)},{_fmt(value.real)},{_fmt(value.imag)},{inside}")
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.points < 2:
        raise ValueError("need at least 2 points")
    if not 0 < args.s_min < args.s_max:
        raise ValueError("need 0 < s-min < s-max")
    grid = np.linspace(args.s_min, args.s_max, args.points)
    alt = spectrum_curve("alt", grid)
    sim = spectrum_curve("sim", grid)
    lines = ["s,alt_max_root,sim_max_root"]
    for (s, ra), (_, rs) in zip(alt, sim):
        lines.append(f"{_fmt(s)},{_fmt(ra)},{_fmt(rs)}")
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(
        args.config,
        {"method", "operator", "x0"},
        {"history", "mode", "noise_delta"},
    )
    method = MethodSpec.from_json(cfg["method"])
    op = OperatorSpec.from_json(cfg["operator"])
    adversary = NoiseAdversary(
        strategy=args.noise_strategy,
        delta=json_number(cfg.get("noise_delta", 0.0), "noise_delta"),
        seed=args.seed,
    )
    history = cfg.get("history")
    traj = run(
        method,
        op,
        np.asarray(json_numbers(cfg["x0"], "x0"), dtype=float),
        steps=args.steps,
        adversary=adversary,
        mode=cfg.get("mode", "simultaneous"),
        history=None if history is None else json_numbers(history, "history"),
    )
    header = "k,distance"
    if args.per_coordinate:
        header += "," + ",".join(f"x{i}" for i in range(op.dimension))
    lines = [header]
    for k, (point, dist) in enumerate(zip(traj.points, traj.distances)):
        row = f"{k},{_fmt(dist)}"
        if args.per_coordinate:
            row += "," + ",".join(_fmt(v) for v in point)
        lines.append(row)
    _write_lines(args.out, lines)
    if traj.diverged:
        print("trajectory diverged", file=sys.stderr)
    return EXIT_OK


def cmd_equivalence(args) -> int:
    lhs = build_transfer(MethodSpec.from_json(json.loads(args.lhs)))
    rhs = build_transfer(MethodSpec.from_json(json.loads(args.rhs)))
    payload = {
        "equal": tf_equal(lhs, rhs),
        "lhs": {"num": list(lhs.num), "den": list(lhs.den)},
        "rhs": {"num": list(rhs.num), "den": list(rhs.den)},
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqcert",
        description="Frequency-domain convergence certification for first-order methods",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the small-gain pipeline on one query")
    p.add_argument("--config", required=True)
    p.add_argument("--allow-improper", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="best certified rate over a step-size grid")
    p.add_argument("--config", required=True)
    p.add_argument("--eta-min", type=float, required=True)
    p.add_argument("--eta-max", type=float, required=True)
    p.add_argument("--eta-steps", type=int, required=True)
    p.add_argument("--allow-improper", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("nyquist", help="frequency response samples (inside_disk is a plot aid)")
    p.add_argument("--config", required=True)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_nyquist)

    p = sub.add_parser("spectrum", help="multiplier magnitudes of the game updates")
    p.add_argument("--s-min", type=float, required=True)
    p.add_argument("--s-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="time-domain trajectory CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--noise-strategy",
        choices=["none", "scale_up", "scale_down", "rotate", "random"],
        default="none",
    )
    p.add_argument("--per-coordinate", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("equivalence", help="compare two methods' transfer functions")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_equivalence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        TypeError,
        KeyError,
        OSError,
        RuntimeError,
        ZeroDivisionError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
