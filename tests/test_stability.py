import numpy as np
import pytest
from numpy.testing import assert_allclose

from freqcert.stability import (
    MARGINAL_ROOT_BAND,
    horner,
    is_schur,
    roots,
    spectral_radius_poly,
    trim,
)

polyval = np.polynomial.polynomial.polyval


def test_horner_is_polyval_bit_for_bit():
    # signed zeros included: both start from p[-1] + z * 0
    rng = np.random.default_rng(11)
    polys = [(0.0,), (-0.0, 1.0), (0.3, -0.0, -2.0), tuple(rng.normal(size=7))]
    zs = [0.0, -0.0, 2.0, -1.5, 1j, np.exp(0.3j), np.complex128(-0.0 - 0.0j),
          np.exp(1j * np.linspace(0.0, np.pi, 9)), np.array([-0.0, 0.5, -2.0])]
    for p in polys:
        for z in zs:
            got, want = np.asarray(horner(p, z)), np.asarray(polyval(z, p))
            assert got.shape == want.shape
            for part in ("real", "imag"):
                a, b = getattr(got, part), getattr(want, part)
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_linear_root():
    assert_allclose(roots((-0.5, 1.0)), [0.5])


def test_quadratic_roots_match_the_formula():
    # z^2 + (6 eta - 1) z - 3 eta at eta = 0.25, solved by the quadratic formula
    eta = 0.25
    p = (-3 * eta, 6 * eta - 1, 1.0)
    disc = np.sqrt(36 * eta**2 + 1)
    expected = sorted([(1 - 6 * eta + disc) / 2, (1 - 6 * eta - disc) / 2])
    got = sorted(r.real for r in roots(p))
    assert_allclose(got, expected, rtol=1e-12)
    assert_allclose(expected, [-1.1513878188659973, 0.6513878188659973], rtol=1e-15)


def test_cubic_root_product_vieta():
    # alternating-update factor at eta=0.5: z^3 - z^2 + 0.25
    p = (0.25, 0.0, -1.0, 1.0)
    rts = roots(p)
    assert len(rts) == 3
    product = rts[0] * rts[1] * rts[2]
    assert_allclose(product, -0.25, rtol=1e-10)  # (-1)^3 c0 / c3
    # independent companion-matrix oracle
    comp = np.array([[1.0, 0.0, -0.25], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    oracle = sorted(np.linalg.eigvals(comp), key=lambda r: (r.real, r.imag))
    assert_allclose(sorted(rts, key=lambda r: (r.real, r.imag)), oracle, rtol=1e-9)


def test_root_residuals_are_small():
    # monic draws keep all roots within |z| <= 2 (Cauchy bound), the regime
    # the stability analysis operates in
    rng = np.random.default_rng(11)
    for _ in range(50):
        degree = int(rng.integers(1, 9))
        coeffs = np.append(rng.uniform(-1, 1, size=degree), 1.0)
        p = tuple(coeffs)
        norm = np.linalg.norm(p)
        for r in roots(p):
            assert abs(polyval(r, p)) <= 1e-8 * norm


def test_degree_zero_has_no_roots():
    assert roots((3.0,)) == []


def test_is_schur_examples():
    assert is_schur((-0.5, 1.0))
    # root at -1.1514 from the quadratic above
    assert not is_schur((-0.75, 0.5, 1.0))
    # boundary case: z = -1 is an exact root
    boundary = (4 / 9, -7 / 9, -2 / 9, 1.0)
    assert abs(polyval(-1.0, boundary)) < 1e-15
    assert not is_schur(boundary)


def test_marginal_band_is_one_in_a_billion():
    # a root 1e-8 inside the circle is stable; one 5e-10 inside lies in the
    # band and is not. A band of 1e-6 fails the first, one of 1e-10 the second.
    assert is_schur((-(1 - 1e-8), 1.0))
    assert not is_schur((-(1 - 5e-10), 1.0))
    # at the band's edge r = 1 - 1e-9, for a root at r or -r: stable one ulp
    # below the edge, not on it, one ulp above it or at 1
    for sign in (-1.0, 1.0):
        assert is_schur((sign * 0.9999999989999999, 1.0))
        for r in (0.999999999, 0.9999999990000001, 1.0):
            assert not is_schur((sign * r, 1.0)), (sign, r)


def test_spectral_radius_examples():
    assert_allclose(spectral_radius_poly((0.0, 1.0, -2.0, 1.0)), 1.0, rtol=1e-9)
    assert_allclose(spectral_radius_poly((4 / 9, -7 / 9, -2 / 9, 1.0)), 1.0, rtol=1e-9)
    assert_allclose(spectral_radius_poly((-0.25, 0.0, 1.0)), 0.5, rtol=1e-12)


def test_degree_validation():
    with pytest.raises(ValueError):
        spectral_radius_poly((2.0,))
    with pytest.raises(ValueError):
        is_schur((2.0,))


def test_dual_testers_agree_on_random_polynomials(schur_recursion):
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        degree = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1, 1, size=degree + 1)
        if abs(coeffs[-1]) < 1e-3:
            continue
        p = tuple(coeffs)
        radius = spectral_radius_poly(p)
        if abs(radius - 1.0) <= MARGINAL_ROOT_BAND:
            continue
        verdict = is_schur(p)
        assert verdict == schur_recursion(p), p
        assert verdict == (radius < 1.0)
        checked += 1


def test_roots_reconstruct_the_polynomial():
    rng = np.random.default_rng(7)
    for _ in range(200):
        degree = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1, 1, size=degree + 1)
        if abs(coeffs[-1]) < 1e-3:
            continue
        p = tuple(coeffs)
        rebuilt = np.poly(np.asarray(roots(p)))[::-1].real * p[-1]
        assert_allclose(rebuilt, p, rtol=1e-7, atol=1e-9)


def test_consistency_with_spectral_radius():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        degree = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1, 1, size=degree + 1)
        if abs(coeffs[-1]) < 1e-3:
            continue
        p = tuple(coeffs)
        radius = spectral_radius_poly(p)
        if abs(radius - 1.0) <= 1e-9:
            continue
        assert is_schur(p) == (radius < 1.0)


def test_trimming_drops_negligible_leading_terms():
    assert trim((1.0, 2.0, 1e-16)) == (1.0, 2.0)
    assert roots((1.0, 2.0, 1e-16)) == [-0.5]
