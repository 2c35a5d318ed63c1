"""H-infinity norm of stable scalar transfer functions via cosine substitution.

The squared magnitude of a real-coefficient rational function on the unit
circle is a ratio of polynomials in x = cos(omega): every cross term
c_k c_l e^(j(k-l)omega) contributes cos((k-l)omega) = T_(k-l)(x), a Chebyshev
polynomial. Maximizing that ratio over [-1, 1] gives the supremum of the
magnitude over all frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

from .stability import Polynomial, is_schur
from .transfer import RationalTF

# Unused here; kept bound because perfbench/tracer.py's grid_points counter reads them.
GRID_MIN = 4096
GRID_PER_DEGREE = 512


class UnstableSystemError(ValueError):
    """The gain is asked of a system whose denominator is not Schur-stable."""


@dataclass(frozen=True)
class CosRational:
    """Ratio P(x)/Q(x) equal to |K(e^{j omega})|^2 under x = cos(omega).

    ``p`` and ``q`` hold Chebyshev-series coefficients in x, for
    ``numpy.polynomial.chebyshev``. Q has no real root in [-1, 1] whenever the
    source denominator is Schur-stable, so the ratio is finite on the whole
    domain.
    """

    p: tuple[float, ...]
    q: tuple[float, ...]


def _cos_power_profile(coeffs) -> np.ndarray:
    """|sum_k c_k e^{jk omega}|^2 as Chebyshev coefficients in cos(omega)."""
    c = np.asarray(coeffs, dtype=float)
    # Chebyshev coefficient m collects c_k c_l over |k - l| = m: the
    # autocorrelation at lag m, counted once for m = 0 and twice otherwise.
    cheb = np.correlate(c, c, "full")[c.size - 1:]
    cheb[1:] *= 2.0
    return cheb


def magnitude_squared_as_cos_rational(k: RationalTF) -> CosRational:
    return CosRational(
        p=tuple(_cos_power_profile(k.num)),
        q=tuple(_cos_power_profile(k.den)),
    )


def hinf_norm(k: RationalTF) -> tuple[float, float]:
    """Supremum of |K(e^{j omega})| over omega, with the maximizing frequency.

    This is the one place the certification pipeline decides stability: it
    raises :class:`UnstableSystemError` when the denominator is not
    Schur-stable. The maximum of P/Q over x in [-1, 1] lies at x = -1, x = 1
    or a real root of P'Q - PQ' (Bruinsma and Steinbuch 1990). The ratio is
    evaluated at both endpoints and at the real part of every root of that
    Chebyshev series, clipped to [-1, 1]; a spurious candidate is still a
    point of the domain, so it cannot raise the maximum above the true one.
    The result is a float maximum, not a bound: where Q nearly vanishes at
    the peak, rounding moves the root and the gain can be underestimated.
    Returns (gain, omega) with omega = arccos(x*) in [0, pi]; the mirrored
    frequency attains the same value.
    """
    den = Polynomial(k.den)
    if den.degree >= 1 and not is_schur(den, 0.0):
        raise UnstableSystemError("gain undefined for unstable system")

    cr = magnitude_squared_as_cos_rational(k)
    p = np.asarray(cr.p)
    q = np.asarray(cr.q)
    slope = C.chebsub(C.chebmul(C.chebder(p), q), C.chebmul(p, C.chebder(q)))
    xs = np.concatenate(([-1.0, 1.0], np.clip(C.chebroots(slope).real, -1.0, 1.0)))
    vals = C.chebval(xs, p) / C.chebval(xs, q)
    i = int(np.argmax(vals))
    return float(np.sqrt(max(vals[i], 0.0))), float(np.arccos(xs[i]))
