"""Time-domain simulation of the analyzed update rules under adversarial noise."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import OperatorSpec, derived_sector, eval_operator
from .transfer import MethodSpec, Recursion

DIVERGENCE_FACTOR = 1e6
RATE_FLOOR = 1e-13
IMPLICIT_TOL = 1e-12
IMPLICIT_MAX_ITER = 200

STRATEGIES = ("none", "scale_up", "scale_down", "rotate", "random")


@dataclass(frozen=True)
class NoiseAdversary:
    """Relative deterministic noise r with ||r|| <= delta ||F(x)||.

    scale_up/scale_down stretch the observed value by (1 +- delta); rotate
    adds an orthogonal component of exactly delta ||F||; random picks a
    seeded uniform direction of the same magnitude.
    """

    strategy: str
    delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown noise strategy {self.strategy!r}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


def apply_noise(adv: NoiseAdversary, value, k: int) -> np.ndarray:
    """Observed operator value at evaluation index ``k``."""
    value = np.asarray(value, dtype=float)
    if adv.strategy == "none" or adv.delta == 0.0:
        return value
    if adv.strategy == "scale_up":
        return (1.0 + adv.delta) * value
    if adv.strategy == "scale_down":
        return (1.0 - adv.delta) * value
    norm = float(np.linalg.norm(value))
    if norm == 0.0:
        return value
    if adv.strategy == "rotate":
        if value.size == 1:
            return value
        u = np.zeros_like(value)
        u[0], u[1] = -value[1], value[0]
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            u[0], u[1] = 1.0, 0.0
            nu = 1.0
        return value + adv.delta * norm * (u / nu)
    rng = np.random.default_rng((adv.seed, k))
    g = rng.standard_normal(value.size)
    while float(np.linalg.norm(g)) == 0.0:
        g = rng.standard_normal(value.size)
    return value + adv.delta * norm * (g / np.linalg.norm(g))


@dataclass
class Trajectory:
    """Iterate history with distances to the fixed point."""

    points: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    diverged: bool = False
    half_points: list | None = None


def _implicit_solve(rhs, coeff, span, observe_fixed):
    """Solve x = rhs - coeff * F_obs(x) by damped fixed-point iteration;
    returns x and the observation F_obs(x) that satisfies it."""
    tau = 2.0 / (2.0 + abs(coeff) * span)
    x = np.array(rhs, dtype=float)
    tol = IMPLICIT_TOL * (1.0 + float(np.linalg.norm(rhs)))
    for _ in range(IMPLICIT_MAX_ITER):
        obs = observe_fixed(x)
        res = x - rhs + coeff * obs
        if float(np.linalg.norm(res)) <= tol:
            return x, obs
        x = x - tau * res
    raise RuntimeError("implicit step did not reach the residual tolerance")


def _implicit_stepper(op, adv, counter, coeff, keep_obs):
    """Per-run solver of x = rhs - coeff * F_obs(x), one observation index per
    step: closed-form resolvent for linear operators under scaling noise,
    damped iteration otherwise. Returns (x, F_obs(x)), the observation None
    unless ``keep_obs``."""
    linear = op.kind in ("diagonal-quadratic", "bilinear", "minmax-quadratic")
    if linear and adv.strategy in ("none", "scale_up", "scale_down"):
        scale = 1.0
        if adv.strategy == "scale_up":
            scale += adv.delta
        elif adv.strategy == "scale_down":
            scale -= adv.delta
        resolvent = np.eye(op.dimension) + coeff * scale * op.linear_map()
        fp = np.asarray(op.fixed_point)

        def solve_linear(rhs):
            idx = next(counter)
            x = fp + np.linalg.solve(resolvent, rhs - fp)
            obs = apply_noise(adv, eval_operator(op, x), idx) if keep_obs else None
            return x, obs

        return solve_linear
    try:
        sec = derived_sector(op)
        span = sec.mu + sec.L
    except ValueError:
        span = 2.0 * float(np.linalg.norm(op.linear_map(), 2))

    def solve(rhs):
        idx = next(counter)
        return _implicit_solve(
            rhs, coeff, span, lambda x: apply_noise(adv, eval_operator(op, x), idx)
        )

    return solve


def _combine(terms):
    """sum w * v over (w, vectors, i) with v = vectors[i]; unit weights add or
    subtract without a multiply, which is exact."""
    acc = None
    for w, vecs, i in terms:
        v = vecs[i]
        if w == 1.0:
            acc = v if acc is None else acc + v
        elif w == -1.0:
            acc = -v if acc is None else acc - v
        else:
            acc = w * v if acc is None else acc + w * v
    return acc


def run(
    method: MethodSpec,
    op: OperatorSpec,
    x0,
    steps: int,
    adversary: NoiseAdversary | None = None,
    mode: str = "simultaneous",
    history=None,
) -> Trajectory:
    """Iterate ``method`` on ``op`` for ``steps`` updates of its
    :class:`~freqcert.transfer.Recursion`.

    Every operator evaluation is filtered through the adversary, one
    observation (and noise index) per evaluation point. ``history`` supplies
    the earlier points, most recent first: entry i stands for x_(-1-i) and
    is the point where s_(-1-i) was observed (for a method that evaluates
    away from its iterates, the stale evaluation point). Entries are observed
    oldest first. Without it ``x0`` fills every earlier slot and is observed
    once. ``half_points`` records the evaluation points of methods that
    evaluate away from their iterates. Non-finite iterates or growth beyond
    ``DIVERGENCE_FACTOR`` times the initial distance mark the trajectory
    diverged and stop it.
    """
    if adversary is None:
        adversary = NoiseAdversary("none", 0.0)
    if steps < 1:
        raise ValueError("steps must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (op.dimension,):
        raise ValueError("x0 dimension mismatch")
    fp = np.asarray(op.fixed_point)
    counter = itertools.count()

    def observe(x):
        return apply_noise(adversary, eval_operator(op, x), next(counter))

    if mode == "alternating":
        if op.kind != "bilinear":
            raise ValueError("alternating mode requires a bilinear operator")
        if method.family != "ogd":
            raise ValueError("alternating mode is defined for the ogd family")
        if history is not None:
            raise ValueError("alternating mode does not take explicit history")
        return _run_alternating(method, op, x0, steps, adversary, counter)
    if mode != "simultaneous":
        raise ValueError(f"unknown mode {mode!r}")

    rec = Recursion.of(method)
    if rec.implicit < 0:
        raise ValueError("implicit step needs a nonnegative coefficient")
    n_x = max(len(rec.b), len(rec.e))  # iterates x_k .. x_(k-n_x+1) in the state
    n_s = max(len(rec.c) - 1, len(rec.f))  # earlier observations s_(k-1) .. s_(k-n_s)
    at_iterate = rec.evaluates_at_iterate
    observes = bool(rec.c or rec.f)  # s_k enters the update explicitly

    # X holds x_k, x_(k-1), ...; S holds s_(k-1), s_(k-2), ... until s_k is
    # observed and pushed in front. Both are shifted in place, so the terms
    # below stay bound to them.
    X = [x0] * n_x
    S = [None] * (n_s + 1)
    pending = None  # s_k when it is already known
    if history is None:
        if n_s:
            s0 = observe(x0)
            S[:n_s] = [s0] * n_s
            if at_iterate:
                pending = s0
    else:
        history = [np.asarray(h, dtype=float) for h in history]
        n_hist = max(n_x - 1, n_s)
        if len(history) != n_hist:
            raise ValueError(f"history must supply exactly {n_hist} earlier points")
        X[1:] = history[: n_x - 1]
        for i in range(n_s - 1, -1, -1):  # oldest first
            S[i] = observe(history[i])
    y_terms = [(w, X, i) for i, w in enumerate(rec.e)]
    y_terms += [(-w, S, i) for i, w in enumerate(rec.f)]
    x_terms = [(w, X, i) for i, w in enumerate(rec.b)]
    x_terms += [(-w, S, i) for i, w in enumerate(rec.c)]
    solve = None
    if rec.implicit:
        solve = _implicit_stepper(op, adversary, counter, rec.implicit, observes)

    traj = Trajectory()
    traj.points.append(np.array(x0))
    traj.distances.append(float(np.linalg.norm(x0 - fp)))
    bound = DIVERGENCE_FACTOR * max(traj.distances[0], 1e-12)
    halves = None if at_iterate else []
    traj.half_points = halves

    for _ in range(steps):
        if at_iterate:
            y = X[0]
        else:
            y = _combine(y_terms)
            halves.append(y)
        if observes:
            S.insert(0, observe(y) if pending is None else pending)
            S.pop()
        x = _combine(x_terms)
        if solve is not None:
            x, pending = solve(x)
        else:
            pending = None
        traj.points.append(np.array(x))
        if not np.isfinite(x).all():
            traj.distances.append(float("inf"))
            traj.diverged = True
            break
        r = x - fp
        d = math.sqrt(r.dot(r))  # what np.linalg.norm computes, without its overhead
        traj.distances.append(d)
        if d > bound:
            traj.diverged = True
            break
        X.insert(0, x)
        X.pop()
    return traj


def _run_alternating(method, op, x0, steps, adv, counter):
    eta = method.eta
    A = np.asarray(op.matrix, dtype=float)
    n = A.shape[0]
    x, y = np.array(x0[:n]), np.array(x0[n:])

    def obs(v):
        return apply_noise(adv, v, next(counter))

    traj = Trajectory()
    traj.points.append(np.array(x0))
    traj.distances.append(float(np.linalg.norm(x0)))
    base = max(traj.distances[0], 1e-12)
    gx_prev = obs(A @ y)
    gy_prev = obs(A.T @ x)
    for _ in range(steps):
        gx = obs(A @ y)
        x_new = x - 2.0 * eta * gx + eta * gx_prev
        gy = obs(A.T @ x_new)
        y_new = y + 2.0 * eta * gy - eta * gy_prev
        point = np.concatenate([x_new, y_new])
        traj.points.append(point)
        if not np.all(np.isfinite(point)):
            traj.distances.append(float("inf"))
            traj.diverged = True
            return traj
        d = float(np.linalg.norm(point))
        traj.distances.append(d)
        if d > DIVERGENCE_FACTOR * base:
            traj.diverged = True
            return traj
        x, y = x_new, y_new
        gx_prev, gy_prev = gx, gy
    return traj


def estimate_rate(t: Trajectory, burn_in: int | None = None) -> float:
    """Per-step contraction factor from a log-linear fit of the distances.

    The first ``burn_in`` points (default: 20 percent) absorb the transient;
    distances at or below ``RATE_FLOOR`` are ignored. Raises when the
    trajectory diverged or fewer than 20 usable points remain.
    """
    if t.diverged:
        raise ValueError("rate undefined for a diverged trajectory")
    dists = np.asarray(t.distances, dtype=float)
    n = dists.size
    if burn_in is None:
        burn_in = n // 5
    ks = np.arange(n)[burn_in:]
    ds = dists[burn_in:]
    mask = ds > RATE_FLOOR
    if int(mask.sum()) < 20:
        raise ValueError("insufficient decay data for a rate estimate")
    slope = np.polyfit(ks[mask], np.log(ds[mask]), 1)[0]
    return float(np.exp(slope))
