import numpy as np
import pytest
from numpy.testing import assert_allclose

from freqcert.operators import (
    OperatorSpec,
    SectorParams,
    bilinear_operator,
    build_minmax_operator,
    check_sector,
    derived_sector,
    diagonal_quadratic,
    eval_operator,
    sample_pairs,
    scalar_noncvx,
)


def test_eval_scalar_fixed_point():
    op = scalar_noncvx()
    assert_allclose(eval_operator(op, [0.0]), [0.0], atol=1e-15)
    assert_allclose(eval_operator(op, [1.0]), [2.0 + np.sin(1.0)])


def test_eval_bilinear():
    op = bilinear_operator([[1.0]])
    assert_allclose(eval_operator(op, [1.0, 2.0]), [2.0, -1.0])


def test_eval_diagonal():
    op = diagonal_quadratic([0.5, 4.0])
    assert_allclose(eval_operator(op, [1.0, 1.0]), [0.5, 4.0])
    shifted = diagonal_quadratic([2.0, 3.0], fixed_point=[1.0, -1.0])
    assert_allclose(eval_operator(shifted, [1.0, -1.0]), [0.0, 0.0], atol=1e-15)


def test_eval_rejects_dimension_mismatch():
    op = diagonal_quadratic([1.0, 2.0])
    with pytest.raises(ValueError, match="shape"):
        eval_operator(op, [1.0, 2.0, 3.0])


def test_scalar_sector_checks_pass_at_declared_constants():
    op = scalar_noncvx()
    report = check_sector(op, SectorParams(1.0, 3.0), sample_pairs(1, 1000, seed=1))
    assert report.monotone_ok and report.cocoercive_ok and report.qsb_ok


def test_scalar_monotonicity_fails_above_the_true_modulus():
    # slope at pi is 2 + cos(pi) = 1 < 1.5
    op = scalar_noncvx()
    pairs = sample_pairs(1, 1000, seed=2)
    pairs.append((np.array([np.pi - 0.01]), np.array([np.pi + 0.01])))
    report = check_sector(op, SectorParams(1.5, 3.0), pairs)
    assert not report.monotone_ok


def test_identical_pair_holds_with_equality():
    op = scalar_noncvx()
    x = np.array([0.7])
    report = check_sector(op, SectorParams(1.0, 3.0), [(x, x)])
    assert report.monotone_ok and report.cocoercive_ok and report.qsb_ok
    assert_allclose(report.worst_margins["monotone"], 0.0, atol=1e-15)


def test_minmax_build_example():
    op = build_minmax_operator([[0.5]], [[0.5]], [[1.0]], mu=0.5)
    assert_allclose(op.jacobian, [[0.5, 1.0], [-1.0, 0.5]])
    assert_allclose(eval_operator(op, [1.0, 0.0]), [0.5, -1.0])


def test_minmax_rejects_insufficient_convexity():
    with pytest.raises(ValueError, match="modulus"):
        build_minmax_operator([[0.0]], [[0.0]], [[1.0]], mu=0.5)


def test_minmax_cocoercivity_constant_is_the_minimal_one():
    # jacobian [[4, 1], [-1, 4]]: sym part 4I, M'M = 17I, so the smallest
    # valid co-coercivity constant is 17/4 (the spectral norm sqrt(17) fails)
    op = build_minmax_operator([[4.0]], [[4.0]], [[1.0]], mu=4.0)
    sec = derived_sector(op)
    assert_allclose(sec.L, 17.0 / 4.0, rtol=1e-12)
    pairs = sample_pairs(2, 2000, seed=3)
    report = check_sector(op, sec, pairs)
    assert report.monotone_ok and report.cocoercive_ok
    # spectral-norm sector is verifiably too small
    bad = check_sector(op, SectorParams(4.0, float(np.sqrt(17.0))), pairs)
    assert not bad.cocoercive_ok


def test_minmax_combined_bound_needs_slack_below_the_modulus():
    # at mu equal to the convexity modulus a rotational coupling violates the
    # combined quadratic bound for every L; declaring a smaller mu restores it
    tight = build_minmax_operator([[0.5]], [[0.5]], [[1.0]], mu=0.5)
    report = check_sector(tight, derived_sector(tight), sample_pairs(2, 1000, seed=4))
    assert report.monotone_ok and report.cocoercive_ok
    assert not report.qsb_ok

    slack = build_minmax_operator([[0.5]], [[0.5]], [[1.0]], mu=0.25)
    sec = derived_sector(slack)
    assert_allclose(sec.L, 4.5, rtol=1e-12)  # (mu0^2 + c^2 - mu mu0)/(mu0 - mu)
    report = check_sector(slack, sec, sample_pairs(2, 1000, seed=4))
    assert report.monotone_ok and report.cocoercive_ok and report.qsb_ok


def test_property_all_built_operators_pass_their_sectors():
    cases = [
        (scalar_noncvx(), SectorParams(1.0, 3.0)),
        (diagonal_quadratic([0.5, 1.3, 4.0]), SectorParams(0.5, 4.0)),
        (
            build_minmax_operator([[2.0]], [[2.0]], [[0.75]], mu=1.0),
            None,  # use the derived sector
        ),
    ]
    for op, sector in cases:
        sector = sector or derived_sector(op)
        report = check_sector(op, sector, sample_pairs(op.dimension, 10_000, seed=12))
        assert report.monotone_ok, (op.kind, report.worst_margins)
        assert report.cocoercive_ok, (op.kind, report.worst_margins)
        assert report.qsb_ok, (op.kind, report.worst_margins)


def test_shifted_values_stay_in_the_gain_ball():
    # || F(x) - h (x - x*) || <= (L - mu)/2 ||x - x*|| with h = (L + mu)/2
    cases = [
        (scalar_noncvx(), SectorParams(1.0, 3.0)),
        (diagonal_quadratic([0.5, 1.3, 4.0]), SectorParams(0.5, 4.0)),
        (build_minmax_operator([[2.0]], [[2.0]], [[0.75]], mu=1.0), None),
    ]
    rng = np.random.default_rng(8)
    for op, sector in cases:
        sector = sector or derived_sector(op)
        h = (sector.L + sector.mu) / 2.0
        radius = (sector.L - sector.mu) / 2.0
        fp = np.asarray(op.fixed_point)
        for _ in range(2000):
            x = rng.uniform(-10, 10, size=op.dimension)
            lhs = np.linalg.norm(eval_operator(op, x) - h * (x - fp))
            assert lhs <= radius * np.linalg.norm(x - fp) + 1e-9


def test_fixed_point_maps_to_zero():
    ops = [
        scalar_noncvx(),
        diagonal_quadratic([1.0, 2.0], fixed_point=[3.0, -1.0]),
        bilinear_operator([[1.0, 0.2], [0.0, 2.0]]),
        build_minmax_operator([[1.0]], [[1.5]], [[0.3]], mu=0.5),
    ]
    for op in ops:
        value = eval_operator(op, np.asarray(op.fixed_point))
        assert np.max(np.abs(value)) <= 1e-12, op.kind


def test_bilinear_rejects_singular_coupling():
    with pytest.raises(ValueError, match="non-singular"):
        bilinear_operator([[1.0, 1.0], [1.0, 1.0]])


def test_bilinear_has_no_strongly_monotone_sector():
    with pytest.raises(ValueError):
        derived_sector(bilinear_operator([[1.0]]))


def test_sector_params_validation():
    with pytest.raises(ValueError):
        SectorParams(2.0, 1.0)
    with pytest.raises(ValueError):
        SectorParams(1.0, 2.0, delta=-0.1)
    assert_allclose(SectorParams(0.5, 4.0).kappa_inv, 0.125)


@pytest.mark.parametrize("mu,L,delta", [(0.5, 4.0, np.nan), (0.5, np.inf, 0.0), (np.nan, 4.0, 0.0)])
def test_sector_params_reject_non_finite_values(mu, L, delta):
    # a nan delta used to pass every comparison and leave each method uncertified
    with pytest.raises(ValueError, match="finite"):
        SectorParams(mu, L, delta)


def test_operator_json_round_trip():
    ops = [
        scalar_noncvx(),
        diagonal_quadratic([1.0, 2.0], fixed_point=[3.0, -1.0]),
        bilinear_operator([[1.0, 0.2], [0.0, 2.0]]),
        build_minmax_operator([[1.0]], [[1.5]], [[0.3]], mu=0.5),
    ]
    for op in ops:
        rebuilt = OperatorSpec.from_json(op.to_json())
        assert rebuilt.kind == op.kind
        assert rebuilt.dimension == op.dimension
        x = np.linspace(0.5, 1.5, op.dimension)
        assert_allclose(eval_operator(rebuilt, x), eval_operator(op, x), rtol=1e-12)
    with pytest.raises(ValueError):
        OperatorSpec.from_json({"kind": "scalar-noncvx", "extra": 1})


def test_check_sector_requires_samples():
    with pytest.raises(ValueError):
        check_sector(scalar_noncvx(), SectorParams(1.0, 3.0), [])
