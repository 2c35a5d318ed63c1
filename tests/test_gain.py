import math
from fractions import Fraction
from itertools import zip_longest

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from numpy.testing import assert_allclose

from conftest import _refined_gain
from freqcert.certify import RHO_PROBE
from freqcert.gain import cos_power_profile, cross_profile, hinf_norm, step_margin
from freqcert.stability import spectral_radius_poly
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


def test_cross_profile_of_a_sequence_with_itself_is_its_power_profile():
    # bit for bit, and bit for bit the autocorrelation doubled at lags >= 1
    # that cos_power_profile computed before cross_profile existed
    rng = np.random.default_rng(4)
    for n in range(1, 13):
        for _ in range(50):
            c = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5, size=n)
            doubled = np.correlate(c, c, "full")[n - 1:]
            doubled[1:] *= 2.0
            got = cross_profile(c, c)
            assert got.tobytes() == cos_power_profile(c).tobytes() == doubled.tobytes()


def test_cross_profile_matches_dense_samples():
    rng = np.random.default_rng(5)
    omegas = np.linspace(0.0, np.pi, 2001)
    z = np.exp(1j * omegas)
    for n in range(1, 11):
        for _ in range(20):
            a, b = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-3, 3, size=(2, 1))
            want = (np.polyval(a[::-1], z) * np.conj(np.polyval(b[::-1], z))).real
            got = C.chebval(np.cos(omegas), cross_profile(a, b))
            scale = np.sum(np.abs(a)) * np.sum(np.abs(b))
            assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


def test_step_margin_reads_the_gd_step_limits():
    # gd's unit loop is -1/(z - 1): on |z| = rho, d1/(e n1) = (1 - z)/e is the
    # circle of centre 1/e and radius rho/e, which touches the disk of centre
    # h and radius r on the real axis, where (1 -+ rho)/e = h +- r. h = r
    # leaves a linear equation and no touch at h - r; h < r puts it at a
    # negative step. There part of the circle lies inside the disk at every
    # step above 0.025, so the touch at 0.475, where the rest enters, is dropped
    gd = build_transfer(MethodSpec("gd", eta=1.0))
    assert_allclose(step_margin(gd, 0.9, 2.25, 1.75), [0.025, 0.2, 0.475, 3.8], rtol=1e-12)
    for h, r in ((2.0, 2.0), (1.0, 3.0)):
        assert_allclose(step_margin(gd, 0.9, h, r), [0.025], rtol=1e-12)
    # at rho near 1, |d1| = |1 - z| is small near omega = 0, where Chebyshev
    # sums of the squared series lost 1.5e-4 relative on the least touch
    rho = 1.0 - 1e-6
    touches = [(1.0 - rho) / 4.0, (1.0 - rho) / 0.5, (1.0 + rho) / 4.0, (1.0 + rho) / 0.5]
    assert_allclose(step_margin(gd, rho, 2.25, 1.75), touches, rtol=1e-12)


def test_step_margin_is_scale_free():
    # h and r times a power of two c: every step divides by c bit for bit
    rng = np.random.default_rng(6)
    for _ in range(20):
        unit = build_transfer(MethodSpec("hgd", eta=1.0, a=tuple(rng.dirichlet(np.ones(3)))))
        base = step_margin(unit, 1.0 - 1e-6, 2.25, 1.75)
        assert base == sorted(base) and base[0] > 0.0
        assert any(1e-3 < e < 10.0 for e in base)
        for k in (-1000, 1000, int(rng.integers(-1000, 1001))):
            c = 2.0**k
            assert [e * c for e in step_margin(unit, 1.0 - 1e-6, 2.25 * c, 1.75 * c)] == base


def test_hinf_norm_is_scale_free(family_corpus):
    # the numerator times a power of two c: the gain times c at the same
    # frequency, bit for bit. One c puts the numerator near 1e200, where its
    # unscaled square overflows
    rng = np.random.default_rng(12)
    for method, _ in family_corpus(5):
        loop = rho_scale(complementary_sensitivity(build_transfer(method), 2.25), RHO_PROBE)
        gain, omega = hinf_norm(loop)
        top = max(map(abs, loop.num))
        near = 2.0 ** (666 - math.frexp(top)[1])
        assert 1e200 <= near * top < 1e201  # its square is past the float range
        for c in (2.0**-1000, 2.0**1000, 2.0 ** int(rng.integers(-1000, 1001)), near):
            scaled = RationalTF(tuple(v * c for v in loop.num), loop.den)
            assert hinf_norm(scaled) == (gain * c, omega), (method, c)


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
        den = shifted.den
        radius = spectral_radius_poly(den) if len(den) > 1 else 0.0
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
        den = shifted.den
        radius = spectral_radius_poly(den) if len(den) > 1 else 0.0
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


def test_gain_with_a_negligible_leading_weight_is_within_the_horner_floor():
    # hgd loops whose last weight is 1e-12 to 1e-300 of the others: it leaves
    # the slope series a negligible leading coefficient, which must not hide
    # the roots in [-1, 1]. Horner floor as in the test above
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    checked = 0
    while checked < 24:
        a = rng.uniform(-1.0, 1.0, int(rng.integers(2, 7)))
        a[-1] *= 10.0 ** -rng.uniform(12.0, 300.0)
        method = MethodSpec("hgd", eta=float(rng.uniform(0.01, 0.5)), a=tuple(map(float, a)))
        shifted = complementary_sensitivity(build_transfer(method), 2.25)
        radius = spectral_radius_poly(shifted.den)
        if radius >= 1.0:
            continue
        loop = rho_scale(shifted, radius + (1.0 - radius) * float(rng.uniform(0.01, 0.5)))
        gain, omega = hinf_norm(loop)
        want = _refined_gain(loop)
        d_star = np.polynomial.polynomial.polyval(np.exp(1j * omega), loop.den)
        kappa = np.sum(np.abs(loop.den)) / abs(d_star)
        assert abs(gain - want) <= (1e-10 + eps * kappa) * want, (method, loop)
        checked += 1
