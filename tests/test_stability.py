import numpy as np
import pytest
from numpy.testing import assert_allclose

from freqcert.stability import (
    MARGINAL_ROOT_BAND,
    Polynomial,
    is_schur,
    roots,
    spectral_radius_poly,
)


def test_linear_root():
    assert_allclose(roots(Polynomial((-0.5, 1.0))), [0.5])


def test_quadratic_roots_match_the_formula():
    # z^2 + (6 eta - 1) z - 3 eta at eta = 0.25, solved by the quadratic formula
    eta = 0.25
    p = Polynomial((-3 * eta, 6 * eta - 1, 1.0))
    disc = np.sqrt(36 * eta**2 + 1)
    expected = sorted([(1 - 6 * eta + disc) / 2, (1 - 6 * eta - disc) / 2])
    got = sorted(r.real for r in roots(p))
    assert_allclose(got, expected, rtol=1e-12)
    assert_allclose(expected, [-1.1513878188659973, 0.6513878188659973], rtol=1e-15)


def test_cubic_root_product_vieta():
    # alternating-update factor at eta=0.5: z^3 - z^2 + 0.25
    p = Polynomial((0.25, 0.0, -1.0, 1.0))
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
        p = Polynomial(tuple(coeffs))
        norm = np.linalg.norm(p.coeffs)
        for r in roots(p):
            assert abs(p(r)) <= 1e-8 * norm


def test_degree_zero_has_no_roots():
    assert roots(Polynomial((3.0,))) == []


def test_is_schur_examples():
    assert is_schur(Polynomial((-0.5, 1.0)))
    # root at -1.1514 from the quadratic above
    assert not is_schur(Polynomial((-0.75, 0.5, 1.0)))
    # boundary case: z = -1 is an exact root
    boundary = Polynomial((4 / 9, -7 / 9, -2 / 9, 1.0))
    assert abs(boundary(-1.0)) < 1e-15
    assert not is_schur(boundary)


def test_spectral_radius_examples():
    assert_allclose(spectral_radius_poly(Polynomial((0.0, 1.0, -2.0, 1.0))), 1.0, rtol=1e-9)
    assert_allclose(spectral_radius_poly(Polynomial((4 / 9, -7 / 9, -2 / 9, 1.0))), 1.0, rtol=1e-9)
    assert_allclose(spectral_radius_poly(Polynomial((-0.25, 0.0, 1.0))), 0.5, rtol=1e-12)


def test_degree_validation():
    with pytest.raises(ValueError):
        spectral_radius_poly(Polynomial((2.0,)))
    with pytest.raises(ValueError):
        is_schur(Polynomial((2.0,)))


def test_dual_testers_agree_on_random_polynomials(schur_recursion):
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        degree = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1, 1, size=degree + 1)
        if abs(coeffs[-1]) < 1e-3:
            continue
        p = Polynomial(tuple(coeffs))
        radius = spectral_radius_poly(p)
        if abs(radius - 1.0) <= MARGINAL_ROOT_BAND:
            continue
        verdict = is_schur(p)
        assert verdict == schur_recursion(p), p.coeffs
        assert verdict == (radius < 1.0)
        checked += 1


def test_roots_reconstruct_the_polynomial():
    rng = np.random.default_rng(7)
    for _ in range(200):
        degree = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1, 1, size=degree + 1)
        if abs(coeffs[-1]) < 1e-3:
            continue
        p = Polynomial(tuple(coeffs))
        rebuilt = np.poly(np.asarray(roots(p)))[::-1].real * p.coeffs[-1]
        assert_allclose(rebuilt, p.coeffs, rtol=1e-7, atol=1e-9)


def test_consistency_with_spectral_radius():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        degree = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1, 1, size=degree + 1)
        if abs(coeffs[-1]) < 1e-3:
            continue
        p = Polynomial(tuple(coeffs))
        radius = spectral_radius_poly(p)
        if abs(radius - 1.0) <= 1e-9:
            continue
        assert is_schur(p) == (radius < 1.0)


def test_trimming_drops_negligible_leading_terms():
    p = Polynomial((1.0, 2.0, 1e-16))
    assert p.degree == 1
    assert p.coeffs == (1.0, 2.0)
