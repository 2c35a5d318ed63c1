"""Characteristic-equation analysis of simultaneous vs alternating updates on
bilinear saddle games.

For f(x, y) = x'Ay the closed-loop spectrum factors per eigenvalue lambda of
AA': each lambda contributes one low-degree polynomial, read off the method's
transfer function, whose roots are the induced multipliers. The whole system
is stable exactly when every factor is Schur, so thresholds reduce to where
the worst factor's radius crosses 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import coupling_singular_values

# roots stays bound here: the benchmark tracer counts freqcert.games.roots
from .stability import roots, spectral_radius_poly, trim  # noqa: F401
from .transfer import MethodSpec, Recursion, build_transfer

_ALT_BOUNDARY = 2.0 / 3.0
_SIM_BOUNDARY = 1.0 / np.sqrt(3.0)


@dataclass(frozen=True)
class BilinearGame:
    """Spectral data of a square non-singular coupling A."""

    gamma: float

    @classmethod
    def from_matrix(cls, matrix) -> "BilinearGame":
        return cls(gamma=float(coupling_singular_values(matrix)[0]))


def game_factor(method: MethodSpec, mode: str, lam: float) -> tuple[float, ...]:
    """Characteristic factor of ``method`` on the game direction of an
    eigenvalue ``lam`` of AA', read off its transfer function K = num/den.

    The coupling's multipliers there are +-j sqrt(lam), and the method's
    characteristic polynomial on F = c x is den - c num, so the simultaneous
    update ("sim") gives den^2 + lam num^2. In the alternating update ("alt")
    the second player observes the first player's new iterate, one factor
    of z: den^2 + lam z num^2. That form needs ``Recursion.alternates``.
    Returns the factor's ascending coefficients, trimmed.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if mode not in ("alt", "sim"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "alt" and not Recursion.of(method).alternates:
        raise ValueError(f"{method.family} has no alternating update")
    k = build_transfer(method)
    coupled = lam * np.convolve(k.num, k.num)
    factor = np.convolve(k.den, k.den)
    low = 1 if mode == "alt" else 0  # the factor z
    factor[low : low + coupled.size] += coupled
    return trim(factor)


def spectrum_curve(mode: str, points) -> list[tuple[float, float]]:
    """Largest multiplier magnitude of ogd as a function of s = eta sqrt(lam)."""
    out = []
    for s in points:
        factor = game_factor(MethodSpec("ogd", eta=float(s)), mode, 1.0)
        out.append((float(s), spectral_radius_poly(factor)))
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
