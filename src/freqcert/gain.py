"""H-infinity norm of stable scalar transfer functions via cosine substitution.

The squared magnitude of a real-coefficient rational function on the unit
circle is a ratio of polynomials in x = cos(omega): every cross term
c_k c_l e^(j(k-l)omega) contributes cos((k-l)omega) = T_(k-l)(x), a Chebyshev
polynomial. Maximizing that ratio over [-1, 1] gives the supremum of the
magnitude over all frequencies.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as C

from .stability import Polynomial, is_schur
from .transfer import RationalTF

# Unused here; kept bound because perfbench/tracer.py's grid_points counter reads them.
GRID_MIN = 4096
GRID_PER_DEGREE = 512


class UnstableSystemError(ValueError):
    """The gain is asked of a system whose denominator is not Schur-stable."""


def cos_power_profile(coeffs) -> np.ndarray:
    """|sum_k c_k e^{jk omega}|^2 as Chebyshev coefficients in x = cos(omega),
    for ``numpy.polynomial.chebyshev``."""
    c = np.asarray(coeffs, dtype=float)
    # Chebyshev coefficient m collects c_k c_l over |k - l| = m: the
    # autocorrelation at lag m, counted once for m = 0 and twice otherwise.
    cheb = np.correlate(c, c, "full")[c.size - 1:]
    cheb[1:] *= 2.0
    return cheb


def hinf_norm(k: RationalTF) -> tuple[float, float]:
    """Supremum of |K(e^{j omega})| over omega, with the maximizing frequency.

    This is the one place the certification pipeline decides stability: it
    raises :class:`UnstableSystemError` when the denominator is not
    Schur-stable. The maximum of P/Q over x in [-1, 1] lies at x = -1, x = 1
    or a real root of P'Q - PQ' (Bruinsma and Steinbuch 1990). Those
    candidates are the endpoints and the real part of every root of that
    Chebyshev series, clipped to [-1, 1]; a spurious candidate is still a
    point of the domain, so it cannot raise the maximum above the true one.
    Each candidate is read as |N(z)/D(z)| at z = e^(j arccos x), not as P/Q:
    the Chebyshev sums of the squared profiles cancel where |D| is small,
    while the Horner sums of N and D lose only eps * sum|d_i| / |D(z)|
    relative. The result is a float maximum, not a bound: where Q nearly
    vanishes at the peak, rounding moves the root and the gain can be
    underestimated. Returns (gain, omega) with omega = arccos(x*) in [0, pi];
    the mirrored frequency attains the same value.
    """
    den = Polynomial(k.den)
    if den.degree >= 1 and not is_schur(den):
        raise UnstableSystemError("gain undefined for unstable system")

    p = cos_power_profile(k.num)
    q = cos_power_profile(k.den)
    slope = C.chebsub(C.chebmul(C.chebder(p), q), C.chebmul(p, C.chebder(q)))
    xs = np.concatenate(([-1.0, 1.0], np.clip(C.chebroots(slope).real, -1.0, 1.0)))
    omegas = np.arccos(xs)
    z = np.exp(1j * omegas)
    horner = np.polynomial.polynomial.polyval
    vals = np.abs(horner(z, k.num) / horner(z, k.den))
    i = int(np.argmax(vals))
    return float(vals[i]), float(omegas[i])
