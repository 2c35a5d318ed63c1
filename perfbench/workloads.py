"""Seeded inputs, ops and output checks of the benchmark workloads.

Each workload function turns a seed into a list of :class:`Op`; ``workdir``
is where it may write the config files its ops read. An op's ``call`` is the
timed user-level call into freqcert; its ``check`` inspects the returned
output afterwards, untimed, and returns a failure reason or None. Ops look up
library entry points through the module attribute at call time
(``certify_mod.best_rate``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from freqcert.operators import (
    SectorParams,
    bilinear_operator,
    build_minmax_operator,
    derived_sector,
    diagonal_quadratic,
    scalar_noncvx,
)
from freqcert.transfer import MethodSpec, build_transfer

certify_mod = importlib.import_module("freqcert.certify")
cli = importlib.import_module("freqcert.cli")
dynamics = importlib.import_module("freqcert.dynamics")
games = importlib.import_module("freqcert.games")

MU, L = 0.5, 4.0
NOISY_DELTA = 0.04
# best_rate may exceed a closed-form rate by bisection width plus rounding.
CLOSED_FORM_SLACK = 5 * certify_mod.RHO_TOL
# max_learning_rate probes at rho = 1 - 1e-6, just below the rho = 1 threshold.
STEP_REL_TOL = 5e-6
# Same slack as acceptance criterion 10 between fitted and certified rates.
SIM_RATE_SLACK = 0.02
SIM_STEPS = 250
# The rate fit stops nine decades below the initial distance, well above the
# accuracy floor (1e-12 relative residual) of the implicit pp/pid solver.
DISTANCE_FLOOR_REL = 1e-9
NOISE_STRATEGIES = ("none", "scale_up", "scale_down", "rotate", "random")


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


# ---------------------------------------------------------------- oracles --

@functools.cache
def shifted_pole_radius(method: MethodSpec, sector: SectorParams) -> float:
    """Largest pole magnitude of the unscaled shifted loop K/(1 - hK),
    computed here from the build_transfer coefficients as den - h*num."""
    k = build_transfer(method)
    h = (sector.mu + sector.L) / 2.0
    den = np.array(k.den, dtype=float)
    den[: len(k.num)] -= h * np.asarray(k.num)
    poles = np.roots(den[::-1])
    return float(np.max(np.abs(poles))) if poles.size else 0.0


def check_rate(method: MethodSpec, sector: SectorParams, rho) -> str | None:
    """Checks on one best-rate verdict: closed forms and the pole radius."""
    cf = certify_mod.closed_form(method, sector)
    if rho is None:
        return None if cf is None else f"uncertified, closed form gives {cf:.9g}"
    if not 0.0 < rho < 1.0:
        return f"rate {rho!r} outside (0, 1)"
    if cf is not None:
        if rho > cf + CLOSED_FORM_SLACK:
            return f"rate {rho:.9g} above closed form {cf:.9g}"
        if method.family in ("gd", "pp") and rho < cf - CLOSED_FORM_SLACK:
            return f"rate {rho:.9g} below sharp closed form {cf:.9g}"
    radius = shifted_pole_radius(method, sector)
    if not rho > radius:
        return f"rate {rho:.9g} not above shifted-loop pole radius {radius:.9g}"
    return None


def _raised(out) -> str | None:
    return out if isinstance(out, str) and out.startswith("raised ") else None


# ------------------------------------------------------------ generators --
# Step sizes are drawn by stratified sampling (one draw per equal slice of the
# range), so every seed spreads its inputs the same way and the cost of a pass
# varies little from seed to seed.

def _strata(rng, lo, hi, n) -> list[float]:
    edges = np.linspace(lo, hi, n + 1)
    return [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def _dirichlet(rng, n) -> tuple:
    w = rng.dirichlet(np.ones(n))
    return tuple(float(v) for v in w[:-1]) + (1.0 - float(sum(w[:-1])),)


def _general(rng, horizon, eta) -> MethodSpec:
    a = tuple(float(v) for v in rng.uniform(-0.5, 1.5, horizon) * 2.0 / horizon)
    return MethodSpec("general", eta=eta, a=a, b=_dirichlet(rng, horizon))


def _family_methods(rng, n) -> list[tuple[MethodSpec, bool]]:
    """The closed-form step sizes of each family on [0.5, 4] plus n seeded
    methods of each of the 9 families spread over its certifiable range."""
    out = [(MethodSpec("gd", eta=eta), False) for eta in (1 / L, 2 / (L + MU))]
    out.append((MethodSpec("ogd", eta=0.5 / L), False))
    out += [(MethodSpec("gogd", alpha=0.5 / L, beta=b), False) for b in _strata(rng, 0, 0.5 / L, 2)]
    out += [(MethodSpec("gogd", alpha=1 / L, beta=b), False) for b in _strata(rng, 0.01 / L, 0.49 / L, 2)]
    out += [(MethodSpec("gd", eta=eta), False) for eta in _strata(rng, 0.05, 0.45, n)]
    out += [(MethodSpec("ogd", eta=eta), False) for eta in _strata(rng, 0.01, 0.16, n)]
    out += [(MethodSpec("gogd", alpha=a, beta=float(rng.uniform(0, 0.1))), False)
            for a in _strata(rng, 0.05, 0.25, n)]
    out += [(MethodSpec("pp", eta=eta), True) for eta in _strata(rng, 0.1, 4.0, n)]
    for kp in _strata(rng, 0.02, 0.1, n):
        out.append((MethodSpec("pid", kp=kp, ki=float(rng.uniform(0.05, 0.25)),
                               kd=kp * float(rng.uniform(-1.0, 0.5))), True))
    out += [(MethodSpec("hgd", eta=eta, a=_dirichlet(rng, 2 + i % 2)), False)
            for i, eta in enumerate(_strata(rng, 0.02, 0.3, n))]
    out += [(_general(rng, 2 + i % 2, eta), False) for i, eta in enumerate(_strata(rng, 0.05, 0.6, n))]
    for fam in ("pegd", "rgd"):
        out += [(MethodSpec(fam, eta=eta), False) for eta in _strata(rng, 0.02, 0.16, n)]
    return out


# Two known defects of the degree trim at rho = 1e-6, kept in every corpus.
GENERAL_TRIM_REPRO = MethodSpec(
    "general",
    eta=0.010074100626863966,
    a=(3.12680034490014, -0.14612799241489602, -1.980672352485244),
    b=(0.06275204857026867, 0.09050934934410007, 0.8467386020856312),
)
HGD_TRIM_REPRO = MethodSpec("hgd", eta=0.05, a=(0.25,) * 4)


# -------------------------------------------------------------- workloads --

def _best_rate_op(method, sector, allow) -> Op:
    def call():
        return certify_mod.best_rate(method, sector, allow_improper=allow)

    def check(out):
        return _raised(out) or check_rate(method, sector, out)

    label = f"best_rate {json.dumps(method.to_json())} delta={sector.delta}"
    return Op("best_rate", label, call, check)


def rate_search(seed: int, workdir: str) -> list[Op]:
    """One op = one certify.best_rate search on its own method."""
    rng = np.random.default_rng(seed)
    corpus = []
    for delta in (0.0, NOISY_DELTA):
        sector = SectorParams(MU, L, delta)
        corpus += [(m, sector, allow) for m, allow in _family_methods(rng, 6)]
    plain = SectorParams(MU, L)
    for horizon in range(2, 11):
        corpus += [(MethodSpec("hgd", eta=eta, a=_dirichlet(rng, horizon)), plain, False)
                   for eta in _strata(rng, 0.02, 0.3, 4)]
    for horizon in range(2, 7):
        corpus += [(_general(rng, horizon, eta), plain, False) for eta in _strata(rng, 0.05, 0.6, 16)]
    corpus += [(GENERAL_TRIM_REPRO, plain, False), (HGD_TRIM_REPRO, plain, False)]
    return [_best_rate_op(m, s, allow) for m, s, allow in corpus]


SWEEP_STEPS = 2
SWEEP_PARTS = 3
MAX_STEP_DELTAS = tuple(round(0.005 * k, 3) for k in range(12))


def _sweep_op(index, method, sector, allow, lo, hi, workdir) -> Op:
    cfg_path = os.path.join(workdir, f"sweep-{index}.json")
    out_path = os.path.join(workdir, f"sweep-{index}.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"method": method.to_json(), "sector": sector.to_json()}, fh)
    argv = ["sweep", "--config", cfg_path, "--eta-min", repr(lo), "--eta-max", repr(hi),
            "--eta-steps", str(SWEEP_STEPS), "--out", out_path]
    if allow:
        argv.append("--allow-improper")

    def call():
        code = cli.main(argv)
        with open(out_path, "rb") as fh:
            return code, fh.read()

    def check(out):
        if _raised(out):
            return _raised(out)
        code, data = out
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        lines = data.decode("utf-8").splitlines()
        if lines[0] != "eta,best_rho" or len(lines) != SWEEP_STEPS + 1:
            return "malformed CSV"
        for want, line in zip(np.linspace(lo, hi, SWEEP_STEPS), lines[1:]):
            eta_text, verdict = line.split(",")
            if float(eta_text) != float(want):
                return f"eta {eta_text} not on the requested grid"
            rho = None if verdict == "uncertified" else float(verdict)
            reason = check_rate(replace(method, eta=float(eta_text)), sector, rho)
            if reason:
                return f"eta={eta_text}: {reason}"
        return None

    label = f"sweep {json.dumps(method.to_json())} delta={sector.delta} eta=[{lo:.4g},{hi:.4g}]"
    return Op("sweep", label, call, check)


@functools.cache
def _noiseless_max_step(method, mu, L, allow):
    return certify_mod.max_learning_rate(method, SectorParams(mu, L), allow_improper=allow)


def _max_step_op(method, sector, allow, expected) -> Op:
    def call():
        return certify_mod.max_learning_rate(method, sector, allow_improper=allow)

    def check(out):
        if _raised(out):
            return _raised(out)
        if expected is not None:
            if out is None or abs(out - expected) > STEP_REL_TOL * expected:
                return f"max step {out!r}, expected {expected:.9g}"
        if out is None:
            return None
        if not 0.0 < out <= 4.0 / sector.mu:
            return f"max step {out!r} outside (0, 4/mu]"
        # Noise only lowers the gain threshold, so every step that certifies
        # with noise certifies without it, and the same bisection cannot end
        # higher with noise.
        clean = _noiseless_max_step(method, sector.mu, sector.L, allow)
        if clean is None or out > clean:
            return f"max step {out!r} above the noiseless max step {clean!r}"
        query = certify_mod.CertificationQuery(replace(method, eta=out), sector,
                                               certify_mod.RHO_PROBE, allow)
        if not certify_mod.certify(query).certified:
            return f"max step {out!r} does not certify at rho = RHO_PROBE"
        return None

    label = f"max_learning_rate {json.dumps(method.to_json())} delta={sector.delta}"
    return Op("max_learning_rate", label, call, check)


def step_sweep(seed: int, workdir: str) -> list[Op]:
    """One op = one in-process `freqcert sweep` over two etas, or one
    certify.max_learning_rate search. Queries share (family, sector)."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    jitter = lambda v: v * float(rng.uniform(0.95, 1.05))
    hgd_a = _dirichlet(rng, 3)
    # The slowest sweeps (pegd, rgd) run at four noise levels, so that p90
    # falls inside their group instead of on the gap below it.
    grids = [
        (MethodSpec("gd", eta=0.1), False, 0.1, 0.4, (0.0, NOISY_DELTA)),
        (MethodSpec("ogd", eta=0.1), False, 0.03, 0.15, (0.0, NOISY_DELTA)),
        (MethodSpec("pp", eta=0.1), True, 0.3, 2.0, (0.0, NOISY_DELTA)),
        (MethodSpec("pegd", eta=0.1), False, 0.03, 0.15, (0.0, 0.02, NOISY_DELTA, 0.05)),
        (MethodSpec("rgd", eta=0.1), False, 0.03, 0.15, (0.0, 0.02, NOISY_DELTA, 0.05)),
        (MethodSpec("hgd", eta=0.1, a=hgd_a), False, 0.04, 0.2, (0.0, NOISY_DELTA)),
    ]
    grids.append((HGD_TRIM_REPRO, False, 0.04, 0.11, (0.0,)))
    # Each (family, sector) range is swept as SWEEP_PARTS sweeps over
    # consecutive, disjoint eta pairs.
    sweeps = []
    for method, allow, lo, hi, deltas in grids:
        for delta in deltas:
            etas = np.linspace(jitter(lo), jitter(hi), SWEEP_PARTS * SWEEP_STEPS)
            sweeps += [(method, SectorParams(MU, L, delta), allow, float(etas[k]),
                        float(etas[k + SWEEP_STEPS - 1]))
                       for k in range(0, len(etas), SWEEP_STEPS)]
    ops = [_sweep_op(i, *spec, workdir) for i, spec in enumerate(sweeps)]

    templates = [
        (MethodSpec("gd", eta=0.1), False, 2.0 / L),
        (MethodSpec("ogd", eta=0.1), False, 2.0 / (3.0 * L)),
        (MethodSpec("pp", eta=0.1), True, None),
        # same transfer function as ogd, so the same threshold
        (MethodSpec("hgd", eta=0.1, a=(2.0, -1.0)), False, 2.0 / (3.0 * L)),
        (MethodSpec("hgd", eta=0.1, a=hgd_a), False, None),
    ]
    for delta in MAX_STEP_DELTAS:
        sector = SectorParams(MU, L, delta)
        for method, allow, expected in templates:
            ops.append(_max_step_op(method, sector, allow, expected if delta == 0.0 else None))
    return ops


def _sim_methods(rng, Lop, n) -> list[tuple[MethodSpec, bool]]:
    """n methods per simulated family, step sizes scaled by the sector's L."""
    u = lambda lo, hi: [v / Lop for v in _strata(rng, lo, hi, n)]
    out = [(MethodSpec("gd", eta=eta), False) for eta in u(0.5, 1.2)]
    out += [(MethodSpec("ogd", eta=eta), False) for eta in u(0.15, 0.5)]
    out += [(MethodSpec("gogd", alpha=0.5 / Lop, beta=beta), False) for beta in u(0.0, 0.5)]
    out += [(MethodSpec("pp", eta=eta), True) for eta in u(0.8, 1.4)]
    out += [(MethodSpec("pid", kp=kp, ki=ki, kd=kd), True)
            for kp, ki, kd in zip(u(0.3, 0.4), u(0.45, 0.6), u(0.08, 0.12))]
    out += [(MethodSpec("pegd", eta=eta), False) for eta in u(0.15, 0.5)]
    out += [(MethodSpec("rgd", eta=eta), False) for eta in u(0.1, 0.4)]
    out += [(MethodSpec("hgd", eta=eta, a=_dirichlet(rng, 2 + i % 2)), False)
            for i, eta in enumerate(u(0.3, 0.8))]
    return out


def _fitted_rate(traj):
    """estimate_rate over the part of the trajectory above the distance floor,
    trimmed as in acceptance criterion 10; None when too few points remain."""
    d = np.asarray(traj.distances)
    keep = np.nonzero(d > DISTANCE_FLOOR_REL * d[0])[0]
    end = int(keep[-1]) + 1 if keep.size else 0
    if end < 25:
        return None
    trimmed = dynamics.Trajectory(points=traj.points[:end], distances=list(d[:end]))
    return dynamics.estimate_rate(trimmed, burn_in=min(end // 5, end - 25))


@functools.cache
def _certified_rate(method, sector, allow):
    return certify_mod.best_rate(method, sector, allow_improper=allow)


def _run_op(method, allow, op, op_name, sector, x0, strategy, delta, seed) -> Op:
    adversary = dynamics.NoiseAdversary(strategy, delta, seed=seed)
    noisy = SectorParams(sector.mu, sector.L, delta)

    def call():
        traj = dynamics.run(method, op, x0, SIM_STEPS, adversary=adversary)
        rate = None if traj.diverged else _fitted_rate(traj)
        return traj.diverged, len(traj.distances) - 1, traj.distances[-1], rate

    def check(out):
        if _raised(out):
            return _raised(out)
        diverged, _, _, rate = out
        rho = _certified_rate(method, noisy, allow)
        if rho is None:
            return None
        if diverged:
            return f"diverged although certified at {rho:.9g}"
        if rate is not None and rate > rho + SIM_RATE_SLACK:
            return f"fitted rate {rate:.6g} above certified {rho:.6g} + {SIM_RATE_SLACK}"
        return None

    label = f"run {json.dumps(method.to_json())} on {op_name} noise={strategy}:{delta:.4g}"
    return Op("run", label, call, check)


def _game_op(matrix, mode, frac, x0) -> Op:
    grid = np.linspace(0.025, 1.2, 48)
    op = bilinear_operator(matrix)
    boundary = 2.0 / 3.0 if mode == "alt" else 1.0 / np.sqrt(3.0)
    gamma = float(np.linalg.svd(np.asarray(matrix), compute_uv=False)[0])

    def call():
        game = games.BilinearGame.from_matrix(matrix)
        threshold = games.bilinear_threshold(mode, game)
        curve = games.spectrum_curve(mode, grid)
        method = MethodSpec("ogd", eta=frac * threshold)
        run_mode = "alternating" if mode == "alt" else "simultaneous"
        traj = dynamics.run(method, op, x0, SIM_STEPS, mode=run_mode)
        rate = None if traj.diverged else _fitted_rate(traj)
        return threshold, tuple(r for _, r in curve), traj.diverged, rate

    def check(out):
        if _raised(out):
            return _raised(out)
        threshold, radii, diverged, rate = out
        if abs(threshold - boundary / gamma) > 1e-9 * threshold:
            return f"threshold {threshold:.12g}, expected {boundary / gamma:.12g}"
        if len(radii) != grid.size or not all(r > 0 for r in radii):
            return "malformed spectrum curve"
        if diverged or (rate is not None and not rate < 1.0):
            return f"ogd at {frac:.3f} of the threshold did not contract"
        return None

    label = f"game n={len(matrix)} mode={mode} eta={frac:.3f}*threshold"
    return Op("game", label, call, check)


def simulate(seed: int, workdir: str) -> list[Op]:
    """One op = one dynamics.run trajectory and its fitted rate; a game op
    also runs from_matrix, bilinear_threshold and spectrum_curve."""
    rng = np.random.default_rng(seed)
    spectrum = np.concatenate([[MU, L], rng.uniform(MU, L, 48)])
    sym = lambda: (lambda N: 0.1 * (N + N.T))(rng.normal(size=(2, 2)))
    operators = [
        ("diagonal-quadratic(50)", diagonal_quadratic(spectrum, rng.uniform(-1, 1, 50))),
        ("scalar-noncvx", scalar_noncvx()),
        ("minmax-quadratic(4)", build_minmax_operator(
            2.0 * np.eye(2) + sym(), 2.0 * np.eye(2) + sym(),
            0.75 * np.eye(2) + 0.1 * rng.normal(size=(2, 2)), mu=1.0)),
    ]
    ops = []
    for op_name, op in operators:
        sector = derived_sector(op)
        fp = np.asarray(op.fixed_point)
        for method, allow in _sim_methods(rng, sector.L, 2):
            x0 = fp + rng.normal(size=op.dimension)
            delta = float(rng.uniform(0.03, 0.04))
            noise_seed = int(rng.integers(1 << 30))
            for strategy in NOISE_STRATEGIES:
                d = 0.0 if strategy == "none" else delta
                ops.append(_run_op(method, allow, op, op_name, sector, x0, strategy, d, noise_seed))
    for n in (2, 3, 4):
        matrix = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        matrix = tuple(tuple(float(v) for v in row) for row in matrix)
        for mode in ("alt", "sim"):
            ops.append(_game_op(matrix, mode, float(rng.uniform(0.3, 0.7)), rng.normal(size=2 * n)))
    return ops


WORKLOADS = {"rate_search": rate_search, "step_sweep": step_sweep, "simulate": simulate}
