"""H-infinity norm of stable scalar transfer functions via cosine substitution.

The squared magnitude of a real-coefficient rational function on the unit
circle is a ratio of polynomials in x = cos(omega): every cross term
c_k c_l e^(j(k-l)omega) contributes cos((k-l)omega) = T_(k-l)(x), a Chebyshev
polynomial. Maximizing that ratio over [-1, 1] gives the supremum of the
magnitude over all frequencies.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as C

from .stability import horner, is_schur, spectral_radius_poly, trim
from .transfer import RationalTF

# Unused here; kept bound because perfbench/tracer.py's grid_points counter reads them.
GRID_MIN = 4096
GRID_PER_DEGREE = 512


class UnstableSystemError(ValueError):
    """The gain is asked of a system whose denominator is not Schur-stable."""


def cross_profile(a, b) -> np.ndarray:
    """Re(a(z) conj(b(z))) on |z| = 1, a(z) = sum_k a_k z^k, as Chebyshev
    coefficients in x = cos(omega), for equal-length real ``a`` and ``b``."""
    c = np.correlate(a, b, "full")
    m = c.size // 2  # lag 0
    # Chebyshev coefficient d collects a_k b_l over k - l = d and k - l = -d:
    # the correlation at lags d and -d, lag 0 once (with one coefficient,
    # cheb[1:] is empty and nothing is added)
    cheb = c[m:]
    cheb[1:] += c[m - 1::-1]
    return cheb


def cos_power_profile(coeffs) -> np.ndarray:
    """|sum_k c_k e^{jk omega}|^2 as Chebyshev coefficients in x = cos(omega),
    for ``numpy.polynomial.chebyshev``."""
    c = np.asarray(coeffs, dtype=float)
    return cross_profile(c, c)


def _scaled_num(num):
    """(e, num times 2^-e), e the binary exponent of num's largest
    coefficient. A squared numerator leaves the float range past about
    1e154. 2^-e is exact and chebroots divides by the leading coefficient,
    so no root moves; a caller that scales what it compares with num (the
    gain read back, gamma, the step) by 2^e as well keeps its squares finite
    and its result scale-free bit for bit."""
    e = math.frexp(max(map(abs, num)))[1]
    return e, np.array([math.ldexp(c, -e) for c in num])


def _scaled_loop(num, den):
    """(e, n, d): n is :func:`_scaled_num`'s num, padded to den's length so
    that the profiles align; d is den as an array."""
    e, scaled = _scaled_num(num)
    n = np.zeros(len(den))
    n[: len(num)] = scaled
    return e, n, np.array(den)


def _chebroots(series):
    """Roots of the Chebyshev ``series`` once its leading coefficients of at
    most 1e-14 times its largest are dropped. chebroots divides by the
    leading coefficient: a negligible one, left by a method weight many
    orders below the others, fills the companion matrix with entries near
    its inverse, which lose the roots in [-1, 1] to rounding or overflow to
    inf. |T_n| <= 1 on [-1, 1], so a dropped c_n moves the series there by
    at most |c_n|, about one rounding of its largest coefficient; the roots
    that leave with it lie far outside [-1, 1]. A series that is not finite
    is passed on whole, so chebroots still raises on it."""
    top = np.abs(series).max()
    return C.chebroots(trim(series, 1e-14 * top) if np.isfinite(top) else series)


def _candidates(series, n, d):
    """(omegas, n(z), d(z)) at x = -1, x = 1 and the clipped real part of
    every root of the Chebyshev ``series`` (:func:`_chebroots`);
    omega = arccos x, z = e^(j omega). n and d are read by Horner, which
    loses only eps * sum|d_i| / |d(z)| relative, not as their squared
    profiles, whose sums cancel where |d| is small."""
    xs = np.concatenate(([-1.0, 1.0], np.clip(_chebroots(series).real, -1.0, 1.0)))
    omegas = np.arccos(xs)
    z = np.exp(1j * omegas)
    return omegas, horner(n, z), horner(d, z)


def level_radius(k: RationalTF, gamma: float, cap: float = math.inf) -> float:
    """rho* = sup |z| over |N(z)| >= gamma |D(z)|, for the loop k = N/D, by the
    criss-cross method (Mengi and Overton 2005). From the circle through the
    largest root of D, each pass finds the arcs of |z| = r inside that level
    set, roots of a Chebyshev series in x = cos(omega), and moves r out along
    the ray through each arc's middle to where the ray leaves the set, a root
    of a polynomial in r. Numerator and gamma are scaled by one power of two
    (:func:`_scaled_loop`).

    r only grows, so the search stops at an r >= ``cap`` as soon as it
    reaches one, before the first pass or mid-pass: a caller that only asks
    whether rho* < cap gets its answer early. Below the cap the passes, and
    the result, are those of the uncapped call. Where the scaled gamma
    squared overflows, |D| <= |N| / gamma holds only within rounding of D's
    roots, and r, their largest magnitude, is returned."""
    r = spectral_radius_poly(k.den)
    if r >= cap:  # D's roots already reach it: no pass, and no scaled loop
        return float(r)
    e, num, den = _scaled_loop(k.num, k.den)
    try:
        g2 = math.ldexp(gamma, -e) ** 2
    except OverflowError:
        return r
    prev = -1.0
    while prev * (1.0 + 1e-15) < r < cap:  # r grew in the last pass, and is below the cap
        powers = r ** np.arange(den.size)
        s = cos_power_profile(num * powers) - g2 * cos_power_profile(den * powers)
        # every root splits [-1, 1], a complex one too: the sign at each
        # piece's middle decides whether that piece is in the level set
        xs = _chebroots(s)
        xs = np.array(sorted({-1.0, 1.0, *np.clip(xs.real, -1.0, 1.0)}))
        keep = C.chebval(0.5 * (xs[:-1] + xs[1:]), s) >= 0
        omegas = [0.5 * (math.acos(a) + math.acos(b)) for a, b in zip(xs[:-1][keep], xs[1:][keep])]
        # an arc through x = 1 or -1 is centred at omega = 0 or pi; its half's
        # middle stays a candidate in case that centre only touches the set
        omegas += [0.0] * bool(keep[-1]) + [math.pi] * bool(keep[0])
        prev = r
        for w in omegas:
            a, b = (c * np.exp(1j * w * np.arange(den.size)) for c in (num, den))
            rs = np.roots((np.convolve(a, a.conj()).real - g2 * np.convolve(b, b.conj()).real)[::-1])
            r = max(r, rs.real[(abs(rs.imag) <= 1e-9) & (rs.real > 0)].max(initial=0.0))
            if r >= cap:
                break
    return float(r)


def step_margin(unit: RationalTF, rho: float, h: float, r: float) -> list[float]:
    """The step sizes e > 0, sorted, at which the loop e * unit, shifted by
    h and scaled by rho, may start or stop reaching the gain 1/r on |z| = rho.

    With unit = n1/d1, that gain is reached where d1(z) / (e n1(z)) meets the
    disk of centre h and radius r: where G(x, e) = a1 e^2 + b1 e + c1 = 0,
    with a1 = (h^2 - r^2) |n1|^2, b1 = -2h Re(d1 conj(n1)) and c1 = |d1|^2 as
    Chebyshev series in x = cos(omega). Those x change only at an extremum
    of a root e(x): at x = -1, x = 1 or a common root of G and dG/dx, where
    their resultant in e, (a1 c2 - a2 c1)^2 - (a1 b2 - a2 b1)(b1 c2 - b2 c1)
    with a2, b2, c2 the x-derivatives, vanishes. Both roots e at every
    candidate x (:func:`_candidates`) are touches. G < 0 puts d1/(e n1)
    inside the disk, where the gain exceeds 1/r. A touch at which some
    candidate x has G(x, e) < -1e-9 (|a1| e^2 + |b1| e + |c1|) is dropped:
    the gain exceeds 1/r on both sides of it, so the verdict cannot change
    there. Every touch where it can change is kept; at a spurious one kept,
    the gain is still reached at that frequency. h and r are scaled by one
    power of two and n1 by another (:func:`_scaled_loop`)."""
    s = math.frexp(h)[1]
    hs, rs = math.ldexp(h, -s), math.ldexp(r, -s)
    t, n1, d1 = _scaled_loop(unit.num, unit.den)
    powers = rho ** np.arange(d1.size)
    n1, d1 = n1 * powers, d1 * powers
    # the series of G in u = e 2^(s + t), the step size the scaled h and n1 see
    a1 = (hs - rs) * (hs + rs) * cos_power_profile(n1)
    b1 = -2.0 * hs * cross_profile(d1, n1)
    c1 = cos_power_profile(d1)
    a2, b2, c2 = (C.chebder(p) for p in (a1, b1, c1))
    ac = C.chebsub(C.chebmul(a1, c2), C.chebmul(a2, c1))
    ab = C.chebsub(C.chebmul(a1, b2), C.chebmul(a2, b1))
    bc = C.chebsub(C.chebmul(b1, c2), C.chebmul(b2, c1))
    _, n, d = _candidates(C.chebsub(C.chebmul(ac, ac), C.chebmul(ab, bc)), n1, d1)
    a = (hs - rs) * (hs + rs) * abs(n) ** 2
    b = -2.0 * hs * (d * n.conj()).real
    c = abs(d) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # both roots of a u^2 + b u + c without cancellation; a = 0 leaves the
        # linear root -c/b as c/q and q/a infinite. A complex pair gives NaN
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        us = np.concatenate((q / a, c / q))
        es = np.ldexp(us, -(s + t))
        touch = np.isfinite(es) & (es > 0)
        u = us[touch]
        # G at every (candidate, touch); NaN from an overflow keeps the touch
        g = (a[:, None] * u + b[:, None]) * u + c[:, None]
        slack = 1e-9 * ((abs(a)[:, None] * u + abs(b)[:, None]) * u + c[:, None])
        touch[touch] = ~(g < -slack).any(axis=0)
    # Python floats, so that a caller's e * c overflows to inf without a warning
    return np.unique(es[touch]).tolist()


def hinf_norm(k: RationalTF) -> tuple[float, float]:
    """Supremum of |K(e^{j omega})| over omega, with the maximizing frequency.

    This is the one place the certification pipeline decides stability: it
    raises :class:`UnstableSystemError` when the denominator is not
    Schur-stable. The maximum of P/Q over x in [-1, 1] lies at x = -1, x = 1
    or a real root of P'Q - PQ' (Bruinsma and Steinbuch 1990). Those
    candidates are the endpoints and the real part of every root of that
    Chebyshev series, clipped to [-1, 1]; a spurious candidate is still a
    point of the domain, so it cannot raise the maximum above the true one.
    Each candidate is read as |N(z)/D(z)|, not as P/Q (:func:`_candidates`),
    and N is scaled by a power of two (:func:`_scaled_num`). The result is
    a float maximum, not a bound: where Q nearly vanishes at the peak,
    rounding moves the root and the gain can be underestimated. Returns
    (gain, omega) with omega = arccos(x*) in [0, pi]; the mirrored frequency
    attains the same value."""
    if k.den_degree >= 1 and not is_schur(k.den):
        raise UnstableSystemError("gain undefined for unstable system")

    # unpadded: zeros would regroup np.correlate's sums (P's bits) and slow Horner
    e, num = _scaled_num(k.num)
    p = cos_power_profile(num)
    q = cos_power_profile(k.den)
    slope = C.chebsub(C.chebmul(C.chebder(p), q), C.chebmul(p, C.chebder(q)))
    omegas, n, d = _candidates(slope, num, k.den)
    vals = np.abs(n / d)
    i = int(np.argmax(vals))
    return math.ldexp(float(vals[i]), e), float(omegas[i])
