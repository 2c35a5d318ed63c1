"""H-infinity norm of stable scalar transfer functions via cosine substitution.

The squared magnitude of a real-coefficient rational function on the unit
circle is a ratio of polynomials in x = cos(omega): every cross term
c_k c_l e^(j(k-l)omega) contributes cos((k-l)omega), which Chebyshev reduction
turns into a polynomial in x. Maximizing that ratio over [-1, 1] gives the
supremum of the magnitude over all frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stability import Polynomial, is_schur
from .transfer import RationalTF

GRID_MIN = 4096
GRID_PER_DEGREE = 512
REFINE_TOL = 1e-12
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


class UnstableSystemError(ValueError):
    """The gain is asked of a system whose denominator is not Schur-stable."""


@dataclass(frozen=True)
class CosRational:
    """Ratio P(x)/Q(x) equal to |K(e^{j omega})|^2 under x = cos(omega).

    Q has no real root in [-1, 1] whenever the source denominator is
    Schur-stable, so the ratio is finite on the whole domain.
    """

    p: tuple[float, ...]
    q: tuple[float, ...]


def _cos_power_profile(coeffs) -> np.ndarray:
    """|sum_k c_k e^{jk omega}|^2 as ascending power-basis coefficients in cos(omega)."""
    c = np.asarray(coeffs, dtype=float)
    # Chebyshev coefficient m collects c_k c_l over |k - l| = m: the
    # autocorrelation at lag m, counted once for m = 0 and twice otherwise.
    cheb = np.correlate(c, c, "full")[c.size - 1:]
    cheb[1:] *= 2.0
    return np.polynomial.chebyshev.cheb2poly(cheb)


def magnitude_squared_as_cos_rational(k: RationalTF) -> CosRational:
    return CosRational(
        p=tuple(_cos_power_profile(k.num)),
        q=tuple(_cos_power_profile(k.den)),
    )


def _horner(c, x: float) -> float:
    """Scalar polynomial value in the operation order of
    ``np.polynomial.polynomial.polyval``, so results are bit-identical."""
    acc = c[-1] + x * 0
    for ci in c[-2::-1]:
        acc = ci + acc * x
    return acc


def _golden_max(f, lo: float, hi: float, tol: float = REFINE_TOL) -> float:
    a, b = lo, hi
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    return 0.5 * (a + b)


def hinf_norm(k: RationalTF, grid_points: int | None = None) -> tuple[float, float]:
    """Supremum of |K(e^{j omega})| over omega, with the maximizing frequency.

    This is the one place the certification pipeline decides stability: it
    raises :class:`UnstableSystemError` when the denominator is not
    Schur-stable. The maximum of the cosine-substituted ratio is located on
    a dense grid over x in [-1, 1] (at least ``GRID_MIN`` points, scaled with
    the denominator degree) and refined by golden-section search inside the
    best grid cell; both endpoints are always evaluated exactly. The result
    is a sampled maximum, not a bound: a resonance narrower than the grid
    spacing can be missed and the gain underestimated. Returns (gain, omega)
    with omega = arccos(x*) in [0, pi]; the mirrored frequency attains the
    same value.
    """
    den = Polynomial(k.den)
    if den.degree >= 1 and not is_schur(den, 0.0):
        raise UnstableSystemError("gain undefined for unstable system")

    cr = magnitude_squared_as_cos_rational(k)
    p = np.asarray(cr.p)
    q = np.asarray(cr.q)

    def ratio(x):
        return np.polynomial.polynomial.polyval(x, p) / np.polynomial.polynomial.polyval(x, q)

    p_list, q_list = p.tolist(), q.tolist()

    def ratio_scalar(x: float) -> float:
        # a float division by zero raises where numpy's returns inf or nan
        den = _horner(q_list, x)
        return _horner(p_list, x) / den if den else ratio(x)

    n = max(GRID_MIN, GRID_PER_DEGREE * max(q.size - 1, 1), grid_points or 0)
    xs = np.linspace(-1.0, 1.0, n)
    vals = ratio(xs)
    i = int(np.argmax(vals))

    best_x, best_v = float(xs[i]), float(vals[i])
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, n - 1)])
    x_ref = _golden_max(ratio_scalar, lo, hi)
    v_ref = float(ratio(x_ref))
    if v_ref > best_v:
        best_x, best_v = float(x_ref), v_ref
    for x_end in (-1.0, 1.0):
        v_end = float(ratio(x_end))
        if v_end > best_v:
            best_x, best_v = x_end, v_end

    gain = float(np.sqrt(max(best_v, 0.0)))
    omega = float(np.arccos(np.clip(best_x, -1.0, 1.0)))
    return gain, omega
