"""Polynomial roots and Schur stability tests for discrete-time systems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COEFF_TRIM_TOL = 1e-14
MARGINAL_ROOT_BAND = 1e-9


def trim(coeffs) -> tuple[float, ...]:
    """Drop leading coefficients of magnitude at most ``COEFF_TRIM_TOL``,
    keeping at least one."""
    c = [float(v) for v in coeffs]
    while len(c) > 1 and abs(c[-1]) <= COEFF_TRIM_TOL:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored as ascending-power coefficients.

    Coefficients above the last one exceeding ``COEFF_TRIM_TOL`` in magnitude
    are dropped, so the leading coefficient of a nonzero polynomial is nonzero.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("empty coefficient vector")
        object.__setattr__(self, "coeffs", trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, np.asarray(self.coeffs))


def roots(p: Polynomial) -> list[complex]:
    """All roots of ``p`` with multiplicity, via companion-matrix eigenvalues.

    Residuals satisfy |p(r)| <= 1e-8 * ||coeffs|| for the polynomial scales
    handled here (low degree, moderate coefficients). Degree-0 input yields
    an empty list.
    """
    if p.degree < 1:
        return []
    rts = np.roots(p.coeffs[::-1])
    return sorted((complex(r) for r in rts), key=lambda r: (r.real, r.imag))


def spectral_radius_poly(p: Polynomial) -> float:
    """Largest root magnitude of ``p``."""
    if p.degree < 1:
        raise ValueError("spectral radius needs degree >= 1")
    return max(abs(r) for r in roots(p))


def is_schur(p: Polynomial) -> bool:
    """True when every root of ``p`` lies strictly inside the unit circle.

    The verdict comes from the largest root magnitude alone. Roots within
    ``MARGINAL_ROOT_BAND`` of the boundary are classified as unstable so
    certification stays conservative. The tests check this verdict against
    the Schur coefficient recursion.
    """
    if p.degree < 1:
        raise ValueError("stability test needs degree >= 1")
    radius = spectral_radius_poly(p)
    return radius < 1.0 and abs(radius - 1.0) > MARGINAL_ROOT_BAND
