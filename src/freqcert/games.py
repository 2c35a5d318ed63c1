"""Characteristic-equation analysis of simultaneous vs alternating optimistic
updates on bilinear saddle games.

For f(x, y) = x'Ay the closed-loop spectrum factors per eigenvalue lambda of
AA': each lambda contributes one low-degree polynomial whose roots are the
induced multipliers. The whole system is stable exactly when every factor is
Schur, so thresholds reduce to where the worst factor's radius crosses 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# roots stays bound here: the benchmark tracer counts freqcert.games.roots
from .stability import Polynomial, roots, spectral_radius_poly  # noqa: F401

_ALT_BOUNDARY = 2.0 / 3.0
_SIM_BOUNDARY = 1.0 / np.sqrt(3.0)


@dataclass(frozen=True)
class BilinearGame:
    """Square non-singular coupling A with the derived spectral data."""

    A: tuple[tuple[float, ...], ...]
    gamma: float
    eigs_AAT: tuple[float, ...]

    @classmethod
    def from_matrix(cls, matrix) -> "BilinearGame":
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("coupling matrix must be square")
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise ValueError("coupling matrix must be non-singular")
        # the eigenvalues of AA' are the squared singular values of A
        return cls(
            A=tuple(tuple(row) for row in A),
            gamma=float(sv[0]),
            eigs_AAT=tuple(sorted(float(s * s) for s in sv)),
        )


def alt_char_poly(lam: float, eta: float) -> Polynomial:
    """Cubic factor z(z-1)^2 + eta^2 lam (2z-1)^2 of the alternating update."""
    if lam <= 0 or eta <= 0:
        raise ValueError("lam and eta must be positive")
    s2 = eta * eta * lam
    return Polynomial((s2, 1.0 - 4.0 * s2, 4.0 * s2 - 2.0, 1.0))


def sim_char_poly(lam: float, eta: float) -> Polynomial:
    """Quartic factor z^2(z-1)^2 + eta^2 lam (2z-1)^2 of the simultaneous update."""
    if lam <= 0 or eta <= 0:
        raise ValueError("lam and eta must be positive")
    s2 = eta * eta * lam
    return Polynomial((s2, -4.0 * s2, 1.0 + 4.0 * s2, -2.0, 1.0))


def _factor_for(mode: str, s: float) -> Polynomial:
    if mode == "alt":
        return alt_char_poly(1.0, s)
    if mode == "sim":
        return sim_char_poly(1.0, s)
    raise ValueError(f"unknown mode {mode!r}")


def spectrum_curve(mode: str, points) -> list[tuple[float, float]]:
    """Largest multiplier magnitude as a function of s = eta sqrt(lam)."""
    out = []
    for s in points:
        if s <= 0:
            raise ValueError("s values must be positive")
        out.append((float(s), spectral_radius_poly(_factor_for(mode, float(s)))))
    return out


def bilinear_threshold(mode: str, game: BilinearGame) -> float:
    """Largest stable step size: 2/(3 gamma) alternating, 1/(sqrt(3) gamma)
    simultaneous. The boundaries are where the unit-game factor's spectral
    radius crosses 1; the acceptance tests bisect each factor against them."""
    if mode == "alt":
        boundary = _ALT_BOUNDARY
    elif mode == "sim":
        boundary = _SIM_BOUNDARY
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return boundary / game.gamma
