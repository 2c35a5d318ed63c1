import numpy as np
import pytest
from numpy.testing import assert_allclose

from freqcert.games import (
    BilinearGame,
    bilinear_threshold,
    game_factor,
    spectrum_curve,
)
from freqcert.stability import spectral_radius_poly
from freqcert.transfer import MethodSpec, build_transfer


def ogd_alt_factor(lam, eta):
    return game_factor(MethodSpec("ogd", eta=eta), "alt", lam)


def ogd_sim_factor(lam, eta):
    return game_factor(MethodSpec("ogd", eta=eta), "sim", lam)


def _hand_cubic(lam, eta):
    """OGD's alternating factor written out: z(z-1)^2 + eta^2 lam (2z-1)^2."""
    s2 = eta * eta * lam
    return (s2, 1.0 - 4.0 * s2, 4.0 * s2 - 2.0, 1.0)


def _hand_quartic(lam, eta):
    """OGD's simultaneous factor: z^2(z-1)^2 + eta^2 lam (2z-1)^2."""
    s2 = eta * eta * lam
    return (s2, -4.0 * s2, 1.0 + 4.0 * s2, -2.0, 1.0)


def test_ogd_factors_equal_the_hand_written_polynomials_bit_for_bit():
    rng = np.random.default_rng(11)
    pairs = [(float(s), float(lam)) for s, lam in zip(
        np.exp(rng.uniform(np.log(1e-3), np.log(2.0), 200)),
        np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 200)),
    )]
    pairs += [(s, lam) for s in (1e-9, 1e-6, 1e7) for lam in (1.0, 0.37, 4.0)]
    for eta, lam in pairs:
        assert ogd_alt_factor(lam, eta) == (0.0, *_hand_cubic(lam, eta)), (eta, lam)
        assert ogd_sim_factor(lam, eta) == _hand_quartic(lam, eta), (eta, lam)


def test_alt_cubic_coefficients():
    p = ogd_alt_factor(1.0, 0.5)
    assert_allclose(p, (0.0, 0.25, 0.0, -1.0, 1.0), atol=1e-15)


def test_alt_cubic_boundary_root():
    # z = -1 solves the cubic exactly at eta sqrt(lam) = 2/3
    p = ogd_alt_factor(1.0, 2.0 / 3.0)
    assert abs(np.polynomial.polynomial.polyval(-1.0, p)) <= 1e-12
    assert_allclose(spectral_radius_poly(p), 1.0, atol=1e-9)


def test_alt_cubic_frozen_dynamics():
    p = ogd_alt_factor(1.0, 1e-9)
    assert_allclose(spectral_radius_poly(p), 1.0, atol=1e-6)


def test_sim_quartic_coefficients():
    p = ogd_sim_factor(1.0, 0.1)
    assert_allclose(p, (0.01, -0.04, 1.04, -2.0, 1.0), atol=1e-15)


def test_sim_quartic_marginal_at_the_boundary():
    p = ogd_sim_factor(1.0, 1.0 / np.sqrt(3.0))
    assert_allclose(spectral_radius_poly(p), 1.0, atol=1e-9)


def test_sim_factor_splits_into_the_two_coupling_multipliers(family_corpus):
    # on a game direction the operator acts as +-j sqrt(lam), so the roots of
    # den^2 + lam num^2 are those of den - j sqrt(lam) num and den + j sqrt(lam) num
    for method, _ in family_corpus(5):
        k = build_transfer(method)
        num = np.pad(k.num, (0, len(k.den) - len(k.num)))
        for lam in (0.3, 2.0):
            radius = max(
                np.max(np.abs(np.roots((np.asarray(k.den) + sign * np.sqrt(lam) * num)[::-1])))
                for sign in (1j, -1j)
            )
            got = spectral_radius_poly(game_factor(method, "sim", lam))
            assert_allclose(got, radius, rtol=1e-7, err_msg=f"{method} lam={lam}")


def test_alt_factor_needs_an_alternating_recursion():
    for method in (
        MethodSpec("pp", eta=0.5),
        MethodSpec("pid", kp=0.1, ki=0.1, kd=0.0),
        MethodSpec("pegd", eta=0.1),
        MethodSpec("rgd", eta=0.1),
    ):
        with pytest.raises(ValueError, match="no alternating update"):
            game_factor(method, "alt", 1.0)
        game_factor(method, "sim", 1.0)


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
        alt = spectral_radius_poly(ogd_alt_factor(1.0, s))
        sim = spectral_radius_poly(ogd_sim_factor(1.0, s))
        if 0.485 <= s <= 0.51:
            continue
        assert alt <= sim + 1e-12, s
    assert spectral_radius_poly(ogd_alt_factor(1.0, 0.5)) > spectral_radius_poly(
        ogd_sim_factor(1.0, 0.5)
    )
    # quadruple root: conditioning limits the achievable root accuracy
    assert_allclose(
        spectral_radius_poly(ogd_sim_factor(1.0, 0.5)), 1.0 / np.sqrt(2.0), rtol=1e-6
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
    rng = np.random.default_rng(31)
    matrices = [rng.uniform(-1, 1, size=(3, 3))]
    matrices += [rng.uniform(-1, 1, size=(n, n)) for n in rng.integers(2, 7, size=20)]
    for A in matrices:
        g = BilinearGame.from_matrix(A)
        assert_allclose(g.gamma, np.linalg.norm(A, 2), rtol=1e-10)


def test_full_game_stability_reduces_to_per_eigenvalue_factors():
    A = np.array([[1.0, 0.3], [0.0, 2.0]])
    g = BilinearGame.from_matrix(A)
    lams = np.linalg.eigvalsh(A @ A.T)
    eta = 0.9 * bilinear_threshold("alt", g)
    assert all(spectral_radius_poly(ogd_alt_factor(lam, eta)) < 1.0 for lam in lams)
    eta = 1.05 * bilinear_threshold("alt", g)
    assert any(spectral_radius_poly(ogd_alt_factor(lam, eta)) > 1.0 for lam in lams)


def test_singular_coupling_rejected():
    with pytest.raises(ValueError):
        BilinearGame.from_matrix([[1.0, 1.0], [1.0, 1.0]])


def test_invalid_inputs():
    with pytest.raises(ValueError):
        ogd_alt_factor(-1.0, 0.5)
    with pytest.raises(ValueError, match="unknown mode"):
        game_factor(MethodSpec("ogd", eta=0.5), "diagonal", 1.0)
    with pytest.raises(ValueError):
        spectrum_curve("alt", [0.0])
    with pytest.raises(ValueError):
        spectrum_curve("diagonal", [0.5])
    with pytest.raises(ValueError, match="^unknown mode 'diag'$"):
        bilinear_threshold("diag", BilinearGame.from_matrix([[1.0]]))
