import itertools
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from freqcert.dynamics import DIVERGENCE_FACTOR, Trajectory, apply_noise
from freqcert.operators import eval_operator
from freqcert.transfer import MethodSpec

SLACK_TOL = 1e-9


def _schur_recursion_stable(p) -> bool:
    """Reference Schur test on coefficients alone: every root of the
    ascending coefficients ``p`` lies strictly inside the unit circle.

    Classic coefficient-shrinking recursion: make the polynomial monic, then
    strip one degree per round, rejecting whenever the trailing (reflection)
    coefficient reaches 1 in magnitude.
    """
    c = np.asarray(p)[::-1] / p[-1]
    while c.size > 1:
        k = c[-1]
        if not np.isfinite(k) or abs(k) >= 1.0:
            return False
        c = (c - k * c[::-1])[:-1] / (1.0 - k * k)
    return True


@pytest.fixture
def schur_recursion():
    """The reference oracle ``is_schur`` is checked against."""
    return _schur_recursion_stable


def _family_corpus(seed):
    """Two seeded methods of each of the nine families, with the
    allow_improper flag each needs, spread over their certifiable ranges."""
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: float(rng.uniform(lo, hi))

    def weights(n):
        return tuple(float(v) for v in rng.dirichlet(np.ones(n)))

    out = []
    for i in range(2):
        out += [
            (MethodSpec("gd", eta=u(0.05, 0.45)), False),
            (MethodSpec("ogd", eta=u(0.01, 0.16)), False),
            (MethodSpec("gogd", alpha=u(0.05, 0.25), beta=u(0.0, 0.1)), False),
            (MethodSpec("pp", eta=u(0.1, 4.0)), True),
            (MethodSpec("pid", kp=u(0.02, 0.1), ki=u(0.05, 0.25), kd=u(-0.05, 0.02)),
             True),
            (MethodSpec("hgd", eta=u(0.02, 0.3), a=weights(2 + i)), False),
            (MethodSpec("general", eta=u(0.05, 0.6), a=weights(2 + i), b=weights(2 + i)),
             False),
            (MethodSpec("pegd", eta=u(0.02, 0.16)), False),
            (MethodSpec("rgd", eta=u(0.02, 0.16)), False),
        ]
    return out


def _refined_gain(k):
    """sup |K| on the unit circle from below: the largest of 4001 float
    samples in [0, pi], each of the three largest refined by golden-section
    search at 30 digits between its neighbours."""
    ws = np.linspace(0.0, np.pi, 4001)
    z = np.exp(1j * ws)
    samples = np.abs(np.polynomial.polynomial.polyval(z, k.num) / np.polynomial.polynomial.polyval(z, k.den))
    with mpmath.workdps(30):
        num, den = ([mpmath.mpf(c) for c in p[::-1]] for p in (k.num, k.den))

        def gain(w):
            z = mpmath.expj(w)
            return abs(mpmath.polyval(num, z) / mpmath.polyval(den, z))

        phi = (mpmath.sqrt(5) - 1) / 2
        best = mpmath.mpf(0)
        for i in np.argsort(samples)[-3:]:
            a, b = mpmath.mpf(ws[max(i - 1, 0)]), mpmath.mpf(ws[min(i + 1, ws.size - 1)])
            c, d = b - phi * (b - a), a + phi * (b - a)
            gc, gd = gain(c), gain(d)
            for _ in range(50):
                if gc > gd:
                    b, d, gd = d, c, gc
                    c = b - phi * (b - a)
                    gc = gain(c)
                else:
                    a, c, gc = c, d, gd
                    d = a + phi * (b - a)
                    gd = gain(d)
            best = max(best, gc, gd, gain(mpmath.mpf(ws[i])))
        return float(best)


@pytest.fixture
def family_corpus():
    """Seeded methods of all nine families; see ``_family_corpus``."""
    return _family_corpus


@dataclass(frozen=True)
class SectorReport:
    """Worst slack of the sector inequalities over a sample of point pairs.

    Margins are the smallest left-minus-right values seen; a check passes
    when its margin stays above ``-SLACK_TOL``.
    """

    monotone_ok: bool
    cocoercive_ok: bool
    qsb_ok: bool
    worst_margins: dict[str, float]


def check_sector(op, sector, pairs) -> SectorReport:
    """Sector oracle for ``derived_sector``: monotonicity, co-coercivity and
    the combined quadratic bound on every supplied ``(x, x')`` pair."""
    if len(pairs) == 0:
        raise ValueError("at least one sample pair is required")
    mu, L = sector.mu, sector.L
    worst = {"monotone": np.inf, "cocoercive": np.inf, "qsb": np.inf}
    for x, xp in pairs:
        du = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
        dv = eval_operator(op, x) - eval_operator(op, xp)
        ip = float(du @ dv)
        nu2 = float(du @ du)
        nv2 = float(dv @ dv)
        worst["monotone"] = min(worst["monotone"], ip - mu * nu2)
        worst["cocoercive"] = min(worst["cocoercive"], ip - nv2 / L)
        worst["qsb"] = min(
            worst["qsb"], -2.0 * mu * L * nu2 + 2.0 * (L + mu) * ip - 2.0 * nv2
        )
    return SectorReport(
        monotone_ok=worst["monotone"] >= -SLACK_TOL,
        cocoercive_ok=worst["cocoercive"] >= -SLACK_TOL,
        qsb_ok=worst["qsb"] >= -SLACK_TOL,
        worst_margins=dict(worst),
    )


def sample_pairs(dimension: int, count: int, seed: int = 0, box: float = 10.0):
    """Seeded point pairs drawn uniformly from the centered hypercube."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-box, box, size=(count, 2, dimension))
    return [(draws[i, 0], draws[i, 1]) for i in range(count)]


def alternating_ogd(eta, op, x0, steps, adv):
    """Reference alternating ogd on a bilinear game, written out by hand: x
    moves on obs(A y), then y on obs(A' x_new), each player with its own
    previous observation. ``dynamics.run`` must reproduce it bit for bit
    under noise that does not depend on the observation index."""
    counter = itertools.count()
    A = np.asarray(op.matrix, dtype=float)
    n = A.shape[0]
    x0 = np.asarray(x0, dtype=float)
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
