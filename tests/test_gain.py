from fractions import Fraction
from itertools import zip_longest

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from numpy.testing import assert_allclose

from freqcert.gain import cos_power_profile, hinf_norm
from freqcert.stability import Polynomial, spectral_radius_poly
from freqcert.transfer import (
    MethodSpec,
    RationalTF,
    build_transfer,
    complementary_sensitivity,
    evaluate,
    rho_scale,
)


def _ogd_loop(L, lam, eps, rho):
    mu = lam * L
    eta = (2.0 / (3.0 * L)) * (1.0 - eps)
    shifted = complementary_sensitivity(
        build_transfer(MethodSpec("ogd", eta=eta)), (L + mu) / 2.0
    )
    return rho_scale(shifted, rho)


def test_profile_of_pure_delay_is_constant():
    k = RationalTF.from_coeffs([-0.4], [0.0, 1.0])
    assert_allclose(cos_power_profile(k.num), [0.16], rtol=1e-15)
    # |z|^2 = 1: the lag-1 term of [0, 1] is an exact zero
    assert_allclose(C.chebtrim(cos_power_profile(k.den), 0), [1.0], rtol=1e-15)


def test_profile_of_gd_controller():
    # |e^{jw} - 1|^2 = 2 - 2 cos(w)
    k = RationalTF.from_coeffs([-0.4], [-1.0, 1.0])
    assert_allclose(cos_power_profile(k.num), [0.16], rtol=1e-15)
    assert_allclose(cos_power_profile(k.den), [2.0, -2.0], rtol=1e-15)


def test_profile_matches_the_optimistic_closed_form():
    L, lam, eps = 4.0, 0.125, 0.3
    rho = 1.0 - (2.0 / 3.0) * eps * (1.0 - eps) * lam
    eta = (2.0 / (3.0 * L)) * (1.0 - eps)
    loop = _ogd_loop(L, lam, eps, rho)
    p, q = cos_power_profile(loop.num), cos_power_profile(loop.den)

    a0, a1 = 1.0 + 4.0 * rho**2, -4.0 * rho
    c1 = (2 * lam - 2 * eps * lam - 2 * eps - 1) / 3.0
    c0 = -(1 - eps) * (1 + lam) / 3.0
    b0 = rho**4 + c0**2 + c1**2 * rho**2
    b1 = 2.0 * c1 * rho * (rho**2 + c0)
    b2 = 2.0 * c0 * rho**2
    p_expected = np.array([a0, a1]) * eta**2
    q_expected = np.array([b0, b1, b2])  # cos(m w) = T_m(x)

    # the computed profile carries the monic normalization of the loop, so
    # compare after matching a single common scale
    scale = q_expected[0] / q[0]
    assert_allclose(p * scale, p_expected, rtol=1e-12)
    assert_allclose(q * scale, q_expected, rtol=1e-12)


def test_profile_consistency_at_random_frequencies():
    rng = np.random.default_rng(5)
    loops = [
        _ogd_loop(4.0, 0.125, 0.4, 0.95),
        rho_scale(
            complementary_sensitivity(build_transfer(MethodSpec("gd", eta=0.25)), 2.25),
            0.9,
        ),
    ]
    for k in loops:
        p, q = cos_power_profile(k.num), cos_power_profile(k.den)
        for _ in range(1000):
            w = rng.uniform(-np.pi, np.pi)
            x = np.cos(w)
            profile = C.chebval(x, p) / C.chebval(x, q)
            direct = abs(evaluate(k, np.exp(1j * w))) ** 2
            assert_allclose(profile, direct, rtol=1e-10)


def test_tuned_gd_gain_is_eta_over_rho():
    L, mu = 4.0, 0.5
    eta = 2.0 / (L + mu)
    for rho in (0.9, 0.8):
        loop = rho_scale(
            complementary_sensitivity(build_transfer(MethodSpec("gd", eta=eta)), (L + mu) / 2),
            rho,
        )
        gain, _ = hinf_norm(loop)
        assert_allclose(gain, eta / rho, rtol=1e-12)


def test_gd_gain_at_one_over_L():
    L, mu = 4.0, 0.5
    kappa_inv = mu / L
    rho = 0.95
    loop = rho_scale(
        complementary_sensitivity(build_transfer(MethodSpec("gd", eta=1 / L)), (L + mu) / 2),
        rho,
    )
    gain, omega = hinf_norm(loop)
    assert_allclose(gain, (1 / L) / (rho - (1 - kappa_inv) / 2), rtol=1e-12)
    assert_allclose(omega, 0.0, atol=1e-6)  # maximum at z = 1


def test_optimistic_gain_is_an_endpoint_value():
    L, lam, eps = 4.0, 0.125, 0.5
    rho = 1.0 - (2.0 / 3.0) * eps * (1.0 - eps) * lam
    loop = _ogd_loop(L, lam, eps, rho)
    gain, _ = hinf_norm(loop)
    expected = max(abs(evaluate(loop, 1.0)), abs(evaluate(loop, -1.0)))
    assert_allclose(gain, expected, rtol=1e-12)


def test_endpoint_maximum_across_the_parameter_grid():
    # numeric verification that the optimistic profile peaks at omega in {0, pi}
    for eps in np.linspace(0.1, 0.9, 9):
        for lam in np.linspace(0.1, 0.9, 9):
            rho = 1.0 - (2.0 / 3.0) * eps * (1.0 - eps) * lam
            loop = _ogd_loop(4.0, lam, eps, rho)
            _, omega = hinf_norm(loop)
            assert abs(np.cos(omega)) > 1.0 - 1e-9, (eps, lam)


def test_gain_dominates_random_frequency_samples():
    rng = np.random.default_rng(17)
    loop = _ogd_loop(4.0, 0.125, 0.35, 0.99)
    gain, _ = hinf_norm(loop)
    for _ in range(10_000):
        w = rng.uniform(-np.pi, np.pi)
        assert abs(evaluate(loop, np.exp(1j * w))) <= gain * (1 + 1e-12)


def test_grid_maximum_never_exceeds_refined_maximum():
    for eps in (0.2, 0.5, 0.8):
        loop = _ogd_loop(4.0, 0.25, eps, 0.99)
        p, q = cos_power_profile(loop.num), cos_power_profile(loop.den)
        xs = np.linspace(-1, 1, 4096)
        grid_max = np.max(C.chebval(xs, p) / C.chebval(xs, q))
        gain, _ = hinf_norm(loop)
        assert np.sqrt(grid_max) <= gain * (1 + 1e-12)


def test_unstable_system_is_rejected():
    k = RationalTF.from_coeffs([1.0], [-1.5, 1.0])  # pole at 1.5
    with pytest.raises(ValueError, match="unstable"):
        hinf_norm(k)


def _double_loop_profile(coeffs):
    # reference: every pair (k, l) contributes c_k c_l to Chebyshev term |k - l|
    c = np.asarray(coeffs, dtype=float)
    n = c.size
    cheb = np.zeros(n)
    for k in range(n):
        for l in range(n):
            cheb[abs(k - l)] += c[k] * c[l]
    return cheb


def test_cos_power_profile_matches_the_double_loop():
    rng = np.random.default_rng(3)
    for n in range(1, 13):
        for _ in range(20):
            c = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            got = cos_power_profile(c)
            want = _double_loop_profile(c)
            assert got.shape == want.shape
            assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


def _narrow_resonance():
    # K = [2(1 - r)(z - 0.5) + (z - a)(z - conj a)] / [(z - a)(z - conj a)(z - 0.5)]
    r = 0.9999
    a = r * np.exp(0.01j)
    pair = np.poly([a, np.conj(a)]).real[::-1]
    num = np.polynomial.polynomial.polyadd(pair, 2.0 * (1.0 - r) * np.array([-0.5, 1.0]))
    den = np.polynomial.polynomial.polymul(pair, [-0.5, 1.0])
    return RationalTF.from_coeffs(num, den)


def test_narrow_resonance_is_found():
    # a dense omega grid puts the peak at 100.087, omega = 0.0099975. The read
    # depends on coefficient rounding: the pair built as [r^2, -2 Re a, 1]
    # reads 53.8 (ROADMAP item 2)
    gain, omega = hinf_norm(_narrow_resonance())
    assert gain > 99.0
    assert abs(omega - 0.01) < 1e-4


def _exact_cos_profile(coeffs):
    """Power-basis coefficients in x of |sum_k c_k e^{jk omega}|^2, as exact
    rationals: lag-m autocorrelation times T_m(x), T_(m+1) = 2x T_m - T_(m-1)."""
    c = [Fraction(v) for v in coeffs]
    n = len(c)
    t = [[1], [0, 1]]
    while len(t) < n:
        t.append([2 * u - v for u, v in zip_longest([0] + t[-1], t[-2], fillvalue=0)])
    out = [Fraction(0)] * n
    for m in range(n):
        lag = sum(c[k] * c[k + m] for k in range(n - m)) * (1 if m == 0 else 2)
        for i, ti in enumerate(t[m]):
            out[i] += lag * ti
    return out


def _exact_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _exact_der(a):
    return [i * v for i, v in enumerate(a)][1:] or [Fraction(0)]


def _reference_gain(k):
    """sup |K| on the unit circle at 40 digits: the slope P'Q - PQ' is formed
    exactly, so its degree is exact, and its roots come from mpmath."""
    p, q = _exact_cos_profile(k.num), _exact_cos_profile(k.den)
    slope = [
        u - v
        for u, v in zip_longest(_exact_mul(_exact_der(p), q), _exact_mul(p, _exact_der(q)),
                                fillvalue=0)
    ]
    while len(slope) > 1 and slope[-1] == 0:
        slope.pop()
    with mpmath.workdps(40):
        def mp(a):
            return [mpmath.mpf(v.numerator) / v.denominator for v in reversed(a)]

        xs = [mpmath.mpf(-1), mpmath.mpf(1)]
        if len(slope) > 1:
            roots = mpmath.polyroots(mp(slope), maxsteps=500, extraprec=400)
            xs += [min(max(mpmath.re(r), -1), 1) for r in roots]
        best = max(mpmath.polyval(mp(p), x) / mpmath.polyval(mp(q), x) for x in xs)
        return float(mpmath.sqrt(best))


def test_gain_matches_a_40_digit_reference_on_all_families(family_corpus):
    # scaled loops from well inside the stability margin to 1e-4 of the pole
    # radius; near a pole the error is bounded by the rounding in evaluating
    # Q at the peak, eps * sum|q_m| / Q(x*), and sum|q_m| / Q(x*) reaches
    # about 1e10 on the closest loops
    eps = np.finfo(float).eps
    families = set()
    for method, _ in family_corpus(5):
        shifted = complementary_sensitivity(build_transfer(method), 2.25)
        den = Polynomial(shifted.den)
        radius = spectral_radius_poly(den) if den.degree >= 1 else 0.0
        if radius >= 1.0:
            continue
        families.add(method.family)
        for frac in (1e-4, 1e-2, 0.1, 0.5):
            loop = rho_scale(shifted, radius + (1.0 - radius) * frac)
            gain, omega = hinf_norm(loop)
            want = _reference_gain(loop)
            q = cos_power_profile(loop.den)
            kappa = np.sum(np.abs(q)) / C.chebval(np.cos(omega), q)
            assert abs(gain - want) <= (1e-10 + eps * kappa) * want, (method, frac)
    assert len(families) == 9


def test_gain_is_within_the_horner_floor_of_the_reference(family_corpus):
    # the gain reads |N/D| at the candidate, so its error is bounded by the
    # Horner rounding of D there, eps * sum|d_i| / |D(e^{j omega*})|; near a
    # real pole this is the square root of the profile's floor above
    eps = np.finfo(float).eps
    checked = 0
    for method, _ in family_corpus(5):
        shifted = complementary_sensitivity(build_transfer(method), 2.25)
        den = Polynomial(shifted.den)
        radius = spectral_radius_poly(den) if den.degree >= 1 else 0.0
        if radius >= 1.0:
            continue
        for frac in (1e-4, 1e-2, 0.1, 0.5):
            loop = rho_scale(shifted, radius + (1.0 - radius) * frac)
            gain, omega = hinf_norm(loop)
            want = _reference_gain(loop)
            d_star = np.polynomial.polynomial.polyval(np.exp(1j * omega), loop.den)
            kappa = np.sum(np.abs(loop.den)) / abs(d_star)
            assert abs(gain - want) <= (1e-10 + eps * kappa) * want, (method, frac)
            checked += 1
    assert checked == 72
