import numpy as np
import pytest
from numpy.testing import assert_allclose

from freqcert.gain import (
    _cos_power_profile,
    _horner,
    hinf_norm,
    magnitude_squared_as_cos_rational,
)
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
    cr = magnitude_squared_as_cos_rational(k)
    assert_allclose(cr.p, [0.16], rtol=1e-15)
    assert_allclose(cr.q, [1.0], rtol=1e-15)


def test_profile_of_gd_controller():
    # |e^{jw} - 1|^2 = 2 - 2 cos(w)
    k = RationalTF.from_coeffs([-0.4], [-1.0, 1.0])
    cr = magnitude_squared_as_cos_rational(k)
    assert_allclose(cr.p, [0.16], rtol=1e-15)
    assert_allclose(cr.q, [2.0, -2.0], rtol=1e-15)


def test_profile_matches_the_optimistic_closed_form():
    L, lam, eps = 4.0, 0.125, 0.3
    rho = 1.0 - (2.0 / 3.0) * eps * (1.0 - eps) * lam
    eta = (2.0 / (3.0 * L)) * (1.0 - eps)
    loop = _ogd_loop(L, lam, eps, rho)
    cr = magnitude_squared_as_cos_rational(loop)

    a0, a1 = 1.0 + 4.0 * rho**2, -4.0 * rho
    c1 = (2 * lam - 2 * eps * lam - 2 * eps - 1) / 3.0
    c0 = -(1 - eps) * (1 + lam) / 3.0
    b0 = rho**4 + c0**2 + c1**2 * rho**2
    b1 = 2.0 * c1 * rho * (rho**2 + c0)
    b2 = 2.0 * c0 * rho**2
    p_expected = np.array([a0, a1]) * eta**2
    q_expected = np.array([b0 - b2, b1, 2 * b2])  # cos(2w) = 2x^2 - 1

    # the computed profile carries the monic normalization of the loop, so
    # compare after matching a single common scale
    scale = q_expected[0] / cr.q[0]
    assert_allclose(np.asarray(cr.p) * scale, p_expected, rtol=1e-12)
    assert_allclose(np.asarray(cr.q) * scale, q_expected, rtol=1e-12)


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
        cr = magnitude_squared_as_cos_rational(k)
        p = np.asarray(cr.p)
        q = np.asarray(cr.q)
        for _ in range(1000):
            w = rng.uniform(-np.pi, np.pi)
            x = np.cos(w)
            profile = np.polynomial.polynomial.polyval(x, p) / np.polynomial.polynomial.polyval(x, q)
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
        cr = magnitude_squared_as_cos_rational(loop)
        p, q = np.asarray(cr.p), np.asarray(cr.q)
        xs = np.linspace(-1, 1, 4096)
        grid_max = np.max(
            np.polynomial.polynomial.polyval(xs, p) / np.polynomial.polynomial.polyval(xs, q)
        )
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
    return np.polynomial.chebyshev.cheb2poly(cheb)


def test_cos_power_profile_matches_the_double_loop():
    rng = np.random.default_rng(3)
    for n in range(1, 13):
        for _ in range(20):
            c = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            got = _cos_power_profile(c)
            want = _double_loop_profile(c)
            assert got.shape == want.shape
            assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


def test_scalar_horner_is_bit_identical_to_polyval():
    def same_bits(x, c):
        want = np.polynomial.polynomial.polyval(x, np.asarray(c))
        return np.float64(_horner(c, x)).tobytes() == np.float64(want).tobytes()

    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for _ in range(50):
            c = (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)).tolist()
            assert same_bits(float(rng.uniform(-1.0, 1.0)), c)
    # signed zeros follow polyval too
    for c in ([-0.0], [0.0, -0.0], [-0.0, -0.0]):
        for x in (-0.5, 0.0, 0.5):
            assert same_bits(x, c)
