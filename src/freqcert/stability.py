"""Polynomial roots and Schur stability tests for discrete-time systems.

A polynomial is a sequence of ascending-power real coefficients."""

from __future__ import annotations

import numpy as np

COEFF_TRIM_TOL = 1e-14
MARGINAL_ROOT_BAND = 1e-9


def trim(coeffs, cut: float = COEFF_TRIM_TOL) -> tuple[float, ...]:
    """Drop leading coefficients of magnitude at most ``cut``, keeping at
    least one; raises ValueError on an empty sequence."""
    c = [float(v) for v in coeffs]
    if not c:
        raise ValueError("empty coefficient vector")
    while len(c) > 1 and abs(c[-1]) <= cut:
        c.pop()
    return tuple(c)


def horner(p, z):
    """p(z) for a number or an array ``z``, by Horner's rule; bit for bit
    what ``numpy.polynomial.polynomial.polyval`` returns, without its
    conversion of ``p`` to an array."""
    acc = p[-1] + z * 0
    for c in p[-2::-1]:
        acc = c + acc * z
    return acc


def roots(p) -> list[complex]:
    """All roots of the polynomial ``p`` with multiplicity, via
    companion-matrix eigenvalues, after :func:`trim`.

    Residuals satisfy |p(r)| <= 1e-8 * ||coeffs|| for the polynomial scales
    handled here (low degree, moderate coefficients). Degree-0 input yields
    an empty list.
    """
    rts = np.roots(trim(p)[::-1])
    return sorted((complex(r) for r in rts), key=lambda r: (r.real, r.imag))


def spectral_radius_poly(p) -> float:
    """Largest root magnitude of the polynomial ``p``."""
    rts = roots(p)
    if not rts:
        raise ValueError("spectral radius needs degree >= 1")
    return max(abs(r) for r in rts)


def is_schur(p) -> bool:
    """True when every root of the polynomial ``p`` lies strictly inside the
    unit circle.

    The verdict comes from the largest root magnitude alone. Roots within
    ``MARGINAL_ROOT_BAND`` of the boundary are classified as unstable so
    certification stays conservative. The tests check this verdict against
    the Schur coefficient recursion.
    """
    radius = spectral_radius_poly(p)
    return 1.0 - radius > MARGINAL_ROOT_BAND
