"""Time-domain simulation of the analyzed update rules under adversarial noise."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .operators import OperatorSpec, _evaluator, derived_sector, json_number
# eval_operator stays bound here: the benchmark tracer wraps freqcert.dynamics.eval_operator
from .operators import eval_operator  # noqa: F401
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
    adds delta J F, J the quarter turn (v0, v1) -> (-v1, v0) on each
    coordinate pair (odd dimension leaves the last one), orthogonal to F and
    of norm exactly delta ||F|| in even dimension; random adds delta ||F||
    times a seeded uniform unit direction. Direction k of length n is row
    k % R of chunk k // R, R = min(256, max(1, 2**16 // n)); chunk j is
    default_rng((seed, j)).standard_normal((R, n)), each row scaled to unit
    norm. It depends only on (seed, k, n). Earlier versions drew each
    direction from default_rng((seed, k)), so random trajectories differ
    from theirs; the other strategies' are unchanged.
    """

    strategy: str
    delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown noise strategy {self.strategy!r}")
        object.__setattr__(self, "delta", json_number(self.delta, "delta"))
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        seed = self.seed  # numpy's generator takes only nonnegative integers
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, not {seed!r}")


def apply_noise(adv: NoiseAdversary, value, k: int) -> np.ndarray:
    """Observed operator value at evaluation index ``k``. Every strategy but
    random is a fixed linear map applied along the first axis, so on a
    matrix it maps each column. The per-call form of :func:`_noise`."""
    value = np.asarray(value, dtype=float)
    return _noise(adv, value.size)(value, k)


def _noise(adv: NoiseAdversary, size: int):
    """The observation ``f(value, k)`` of ``adv`` at evaluation index ``k``, for
    float arrays ``value`` of ``size`` entries. The strategy, and the chunk
    layout of random noise, are decided here, once, so a run pays for them
    once and not on every observation."""
    delta = adv.delta
    if adv.strategy == "none" or delta == 0.0:
        return lambda value, k: value
    if adv.strategy in ("scale_up", "scale_down"):
        factor = 1.0 + delta if adv.strategy == "scale_up" else 1.0 - delta
        return lambda value, k: factor * value
    if adv.strategy == "rotate":
        def rotate(value, k):
            m = value.shape[0] // 2 * 2
            out = value.copy()
            out[0:m:2] -= delta * value[1:m:2]
            out[1:m:2] += delta * value[0:m:2]
            return out

        return rotate
    direction = _directions(adv.seed, size)

    def push_random(value, k):
        u = direction(k)
        norm = math.sqrt(value.dot(value))  # np.linalg.norm, minus its overhead
        return value if norm == 0.0 else value + delta * norm * u

    return push_random


def _chunk_rows(size: int) -> int:
    """Directions per chunk: at most 256, and at most 2**16 floats unless one
    direction alone is longer."""
    return min(256, max(1, 2**16 // size))


def _directions(seed: int, size: int):
    """The seeded uniform unit direction of random noise at index ``k``, as a
    function of ``k``: row k % R of chunk k // R, R = ``_chunk_rows(size)``.
    It depends only on (seed, k, size)."""
    rows = _chunk_rows(size)

    def direction(k):
        return _direction_chunk(seed, k // rows, size)[k % rows]

    return direction


@functools.lru_cache(maxsize=8)
def _direction_chunk(seed: int, j: int, size: int) -> np.ndarray:
    """Chunk ``j`` of the random directions of ``size`` under ``seed``, read-only:
    ``_chunk_rows(size)`` standard normal rows from generator (seed, j), each
    scaled to unit norm; a zero row is redrawn from the same generator.

    A chunk holds at most max(2**16, size) floats, so the cache's 8 chunks
    hold at most 8 max(2**16, size) floats: 4 MiB up to size 2**16.
    """
    rng = np.random.default_rng((seed, j))
    g = rng.standard_normal((_chunk_rows(size), size))
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    for i in np.flatnonzero(norms == 0.0):
        while norms[i] == 0.0:
            g[i] = rng.standard_normal(size)
            norms[i] = math.sqrt(g[i].dot(g[i]))
    g /= norms[:, None]
    g.flags.writeable = False
    return g


@dataclass
class Trajectory:
    """Iterate history with distances to the fixed point."""

    points: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    diverged: bool = False


def _implicit_stepper(op, adv, counter, coeff, keep_obs):
    """Per-run solver of x = rhs - coeff * F_obs(x). Each step takes one
    observation index; every observation of the step is the adversary's at
    it, so random noise gives them one seeded unit direction u. Returns
    (x, F_obs(x)), the closed form's observation None unless ``keep_obs``.

    On a linear operator F(x) = M v, v = x - fp, the step is closed form with
    R = I + coeff N M inverted once per run. Every strategy but random
    observes N M v for a fixed N, so v = R^-1 r with r = rhs - fp. Random
    noise observes M v + delta t u with t = ||M v||, so (N = I)
    v = R^-1 (r - coeff delta t u), and t is the nonnegative root of
    (1 - b.b) t^2 + 2 (a.b) t - a.a = 0 with a = M R^-1 r and
    b = coeff delta M R^-1 u. For monotone M, coeff M R^-1 is nonexpansive,
    so ||b|| <= delta and the root is unique when delta < 1.
    scalar-noncvx, nonlinear in x, takes a damped fixed-point iteration.
    """
    random = adv.strategy == "random" and adv.delta > 0.0
    evaluate, noise = _evaluator(op), _noise(adv, op.dimension)

    def observe(x, k):
        return noise(evaluate(x), k)

    M = op.linear_map
    if M is None:
        sec = derived_sector(op)
        tau = 2.0 / (2.0 + abs(coeff) * (sec.mu + sec.L))
    else:
        fp = op.fixed_array
        noisy_map = M if random else noise(M, 0)
        inv = np.linalg.inv(np.eye(op.dimension) + coeff * noisy_map)
        gain = M @ inv  # M R^-1
        push = coeff * adv.delta
        direction = _directions(adv.seed, op.dimension)

    def solve(rhs):
        idx = next(counter)
        if M is None:
            x = np.array(rhs, dtype=float)
            tol = IMPLICIT_TOL * (1.0 + math.sqrt(x.dot(x)))  # np.linalg.norm, minus its overhead
            for _ in range(IMPLICIT_MAX_ITER):
                obs = observe(x, idx)
                res = x - rhs + coeff * obs
                if math.sqrt(res.dot(res)) <= tol:
                    return x, obs
                x = x - tau * res
            raise RuntimeError("implicit step did not reach the residual tolerance")
        r = rhs - fp
        if random:
            u = direction(idx)
            a, b = gain @ r, push * (gain @ u)
            aa, ab, bb = a.dot(a), a.dot(b), b.dot(b)
            if bb >= 1.0:
                raise ValueError(
                    "random noise leaves the implicit step no unique solution "
                    f"(|b| = {math.sqrt(bb):.6g} >= 1)"
                )
            disc = math.sqrt(ab * ab + (1.0 - bb) * aa)
            # two equal forms of the root; each avoids cancellation on its side
            t = aa / (ab + disc) if ab > 0.0 else (disc - ab) / (1.0 - bb)
            r = r - push * t * u
        x = fp + inv @ r
        return x, observe(x, idx) if keep_obs else None

    return solve


def _combine(terms):
    """sum w * v over (w, vectors, i) with v = vectors[i]; a unit weight adds
    v without a multiply."""
    acc = None
    for w, vecs, i in terms:
        v = vecs[i] if w == 1.0 else w * vecs[i]
        acc = v if acc is None else acc + v
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

    ``mode="alternating"`` runs the update as a block Gauss-Seidel step on a
    bilinear game (x, y), for methods whose ``Recursion.alternates``: x
    moves on the observation at (x_k, y_k), then y on the second half of an
    observation at (x_(k+1), y_k).

    Every operator evaluation is filtered through the adversary, one
    observation (and noise index) per evaluation point. ``history`` supplies
    the earlier points, most recent first: entry i stands for x_(-1-i) and
    is the point where s_(-1-i) was observed (for a method that evaluates
    away from its iterates, the stale evaluation point). Entries are observed
    oldest first. Without it ``x0`` fills every earlier slot and is observed
    once. Non-finite iterates or growth beyond ``DIVERGENCE_FACTOR`` times
    the initial distance mark the trajectory diverged and stop it.
    """
    if adversary is None:
        adversary = NoiseAdversary("none", 0.0)
    if steps < 1:
        raise ValueError("steps must be positive")
    x0 = np.array(x0, dtype=float)  # the trajectory's own copy
    if x0.shape != (op.dimension,):
        raise ValueError("x0 dimension mismatch")
    fp = op.fixed_array
    counter = itertools.count()
    evaluate, noise = _evaluator(op), _noise(adversary, op.dimension)

    def observe(x):
        return noise(evaluate(x), next(counter))

    rec = Recursion.of(method)
    alternate = mode == "alternating"
    if alternate:
        if op.kind != "bilinear":
            raise ValueError("alternating mode requires a bilinear operator")
        if not rec.alternates:
            raise ValueError(f"{method.family} has no alternating update")
        if history is not None:
            raise ValueError("alternating mode does not take explicit history")
    elif mode != "simultaneous":
        raise ValueError(f"unknown mode {mode!r}")
    if rec.implicit < 0:
        raise ValueError("implicit step needs a nonnegative coefficient")
    n_x = max(len(rec.b), len(rec.e))  # iterates x_k .. x_(k-n_x+1) in the state
    n_s = max(len(rec.c) - 1, len(rec.f))  # earlier observations s_(k-1) .. s_(k-n_s)
    half = op.dimension // 2  # the first player's block in alternating mode
    observes = bool(rec.c or rec.f)  # s_k enters the update explicitly

    # xs holds x_(1-n_x) .. x_k, one more each step; ss holds s_(k-n_s) ..
    # s_(k-1), then s_k once observed. Terms index both from the end.
    ss = collections.deque(maxlen=n_s + 1)
    pending = None  # s_k when it is already known
    if history is None:
        xs = [x0] * n_x
        if n_s:
            s0 = observe(x0)
            ss.extend([s0] * n_s)
            if rec.evaluates_at_iterate:
                pending = s0
    else:
        history = [np.asarray(h, dtype=float) for h in history]
        n_hist = max(n_x - 1, n_s)
        if len(history) != n_hist:
            raise ValueError(f"history must supply exactly {n_hist} earlier points")
        if any(h.shape != x0.shape for h in history):
            raise ValueError(f"history points must have the shape of x0, {x0.shape}")
        xs = history[: n_x - 1][::-1] + [x0]
        for i in range(n_s - 1, -1, -1):  # oldest first
            ss.append(observe(history[i]))
    y_terms = [(w, xs, -1 - i) for i, w in enumerate(rec.e)]
    y_terms += [(-w, ss, -1 - i) for i, w in enumerate(rec.f)]
    x_terms = [(w, xs, -1 - i) for i, w in enumerate(rec.b)]
    x_terms += [(-w, ss, -1 - i) for i, w in enumerate(rec.c)]
    solve = None
    if rec.implicit:
        solve = _implicit_stepper(op, adversary, counter, rec.implicit, observes)

    traj = Trajectory(distances=[float(np.linalg.norm(x0 - fp))])
    bound = DIVERGENCE_FACTOR * max(traj.distances[0], 1e-12)

    for _ in range(steps):
        y = _combine(y_terms)  # x_k itself for a method that evaluates at its iterates
        if observes:
            ss.append(observe(y) if pending is None else pending)
        x = _combine(x_terms)
        if alternate:
            # the second block observes at (x_(k+1), y_k); the combine is
            # elementwise, so redoing it leaves the first block as it was
            s = observe(np.concatenate([x[:half], xs[-1][half:]]))  # a fresh array
            s[:half] = ss[-1][:half]
            ss[-1] = s
            x = _combine(x_terms)
        x, pending = (x, None) if solve is None else solve(x)
        xs.append(x)
        r = x - fp
        # np.linalg.norm, minus its overhead: inf or NaN exactly when x is not
        # finite or r.r overflows. Only an infinite bound (from an infinite
        # initial distance) leaves d = inf to the finiteness test.
        d = math.sqrt(r.dot(r))
        if not d <= bound or (d == math.inf and not np.isfinite(x).all()):
            traj.distances.append(math.inf if math.isnan(d) else d)
            traj.diverged = True
            break
        traj.distances.append(d)
    traj.points = xs[n_x - 1:]
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
