import numpy as np
import pytest
from numpy.testing import assert_allclose

from freqcert.games import (
    BilinearGame,
    alt_char_poly,
    bilinear_threshold,
    sim_char_poly,
    spectrum_curve,
)
from freqcert.stability import spectral_radius_poly


def test_alt_cubic_coefficients():
    p = alt_char_poly(1.0, 0.5)
    assert_allclose(p.coeffs, (0.25, 0.0, -1.0, 1.0), atol=1e-15)


def test_alt_cubic_boundary_root():
    # z = -1 solves the cubic exactly at eta sqrt(lam) = 2/3
    p = alt_char_poly(1.0, 2.0 / 3.0)
    assert abs(p(-1.0)) <= 1e-12
    assert_allclose(spectral_radius_poly(p), 1.0, atol=1e-9)


def test_alt_cubic_frozen_dynamics():
    p = alt_char_poly(1.0, 1e-9)
    assert_allclose(spectral_radius_poly(p), 1.0, atol=1e-6)


def test_sim_quartic_coefficients():
    p = sim_char_poly(1.0, 0.1)
    assert_allclose(p.coeffs, (0.01, -0.04, 1.04, -2.0, 1.0), atol=1e-15)


def test_sim_quartic_marginal_at_the_boundary():
    p = sim_char_poly(1.0, 1.0 / np.sqrt(3.0))
    assert_allclose(spectral_radius_poly(p), 1.0, atol=1e-9)


def test_spectrum_curve_boundaries():
    curve = spectrum_curve("alt", [2.0 / 3.0])
    assert_allclose(curve[0][1], 1.0, atol=1e-9)
    curve = spectrum_curve("sim", [1.0 / np.sqrt(3.0)])
    assert_allclose(curve[0][1], 1.0, atol=1e-9)
    curve = spectrum_curve("alt", [0.3])
    assert curve[0][1] < 1.0


def test_spectrum_curve_brackets_the_alt_boundary():
    grid = np.linspace(0.05, 1.0, 200)
    values = spectrum_curve("alt", grid)
    crossed = [
        (s1, s2)
        for (s1, v1), (s2, v2) in zip(values, values[1:])
        if v1 <= 1.0 < v2
    ]
    assert len(crossed) == 1
    s1, s2 = crossed[0]
    assert s1 <= 2.0 / 3.0 <= s2


def test_curves_approach_one_for_frozen_steps():
    for mode in ("alt", "sim"):
        (_, radius), = spectrum_curve(mode, [1e-6])
        assert_allclose(radius, 1.0, atol=1e-9)


def test_curves_keep_the_leading_term_at_large_steps():
    # at s = 1e7 the monic leading 1 is tiny beside the s^2 terms; dropping it
    # would leave a factor near (z - 1/2)^2 and report a contracting update
    (_, alt), = spectrum_curve("alt", [1e7])
    (_, sim), = spectrum_curve("sim", [1e7])
    assert_allclose(alt, 4e14, rtol=1e-6)
    assert_allclose(sim, 2e7, rtol=1e-6)


def test_alt_dominates_sim_outside_the_critical_window():
    # the simultaneous factor is critically damped near s = 1/2 (its quartic
    # becomes (z^2 - z + 1/2)^2 with all roots at 1/sqrt(2)), where it beats
    # the alternating factor; everywhere else in (0, 0.55] alternating wins
    grid = np.linspace(0.55 / 100, 0.55, 100)
    for s in grid:
        alt = spectral_radius_poly(alt_char_poly(1.0, s))
        sim = spectral_radius_poly(sim_char_poly(1.0, s))
        if 0.485 <= s <= 0.51:
            continue
        assert alt <= sim + 1e-12, s
    assert spectral_radius_poly(alt_char_poly(1.0, 0.5)) > spectral_radius_poly(
        sim_char_poly(1.0, 0.5)
    )
    # quadruple root: conditioning limits the achievable root accuracy
    assert_allclose(
        spectral_radius_poly(sim_char_poly(1.0, 0.5)), 1.0 / np.sqrt(2.0), rtol=1e-6
    )


def test_bilinear_thresholds():
    g = BilinearGame.from_matrix([[1.0]])
    assert_allclose(bilinear_threshold("alt", g), 2.0 / 3.0, rtol=1e-12)
    assert_allclose(bilinear_threshold("sim", g), 1.0 / np.sqrt(3.0), rtol=1e-12)
    g2 = BilinearGame.from_matrix([[1.0, 0.0], [0.0, 2.0]])
    assert_allclose(bilinear_threshold("alt", g2), 1.0 / 3.0, rtol=1e-12)


def test_game_spectral_data():
    g = BilinearGame.from_matrix([[1.0, 0.0], [0.0, 2.0]])
    assert_allclose(g.gamma, 2.0, rtol=1e-12)
    assert_allclose(g.eigs_AAT, (1.0, 4.0), rtol=1e-10)
    rng = np.random.default_rng(31)
    matrices = [rng.uniform(-1, 1, size=(3, 3))]
    matrices += [rng.uniform(-1, 1, size=(n, n)) for n in rng.integers(2, 7, size=20)]
    for A in matrices:
        g = BilinearGame.from_matrix(A)
        assert list(g.eigs_AAT) == sorted(g.eigs_AAT)
        assert_allclose(g.eigs_AAT, np.linalg.eigvalsh(A @ A.T), rtol=1e-8)
        assert_allclose(g.gamma, np.linalg.norm(A, 2), rtol=1e-10)


def test_full_game_stability_reduces_to_per_eigenvalue_factors():
    g = BilinearGame.from_matrix([[1.0, 0.3], [0.0, 2.0]])
    eta = 0.9 * bilinear_threshold("alt", g)
    assert all(
        spectral_radius_poly(alt_char_poly(lam, eta)) < 1.0 for lam in g.eigs_AAT
    )
    eta = 1.05 * bilinear_threshold("alt", g)
    assert any(
        spectral_radius_poly(alt_char_poly(lam, eta)) > 1.0 for lam in g.eigs_AAT
    )


def test_singular_coupling_rejected():
    with pytest.raises(ValueError):
        BilinearGame.from_matrix([[1.0, 1.0], [1.0, 1.0]])


def test_invalid_inputs():
    with pytest.raises(ValueError):
        alt_char_poly(-1.0, 0.5)
    with pytest.raises(ValueError):
        spectrum_curve("alt", [0.0])
    with pytest.raises(ValueError):
        spectrum_curve("diagonal", [0.5])
