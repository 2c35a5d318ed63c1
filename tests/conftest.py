import numpy as np
import pytest

from freqcert.transfer import MethodSpec


def _schur_recursion_stable(p) -> bool:
    """Reference Schur test on coefficients alone: every root of ``p`` lies
    strictly inside the unit circle.

    Classic coefficient-shrinking recursion: make the polynomial monic, then
    strip one degree per round, rejecting whenever the trailing (reflection)
    coefficient reaches 1 in magnitude.
    """
    c = np.asarray(p.coeffs)[::-1] / p.coeffs[-1]
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


@pytest.fixture
def family_corpus():
    """Seeded methods of all nine families; see ``_family_corpus``."""
    return _family_corpus
