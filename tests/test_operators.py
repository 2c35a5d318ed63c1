import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import check_sector, sample_pairs
from freqcert.operators import (
    KINDS,
    OperatorSpec,
    SectorParams,
    bilinear_operator,
    build_minmax_operator,
    derived_sector,
    diagonal_quadratic,
    eval_operator,
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


@pytest.mark.parametrize("c", [2.0 ** -60, 1.0, 2.0 ** 60])
def test_operator_checks_are_scale_free(c):
    # each check compares against the operator's own magnitude: at c = 2^-60 an
    # absolute tolerance called c I singular, accepted a block of modulus 5c
    # below mu = 10c, and skipped the combined-bound enlargement of L
    bilinear_operator([[c, 0.0], [0.0, c]])
    with pytest.raises(ValueError, match="non-singular"):
        bilinear_operator([[c, c], [c, c]])
    build_minmax_operator([[5 * c]], [[5 * c]], [[c]], mu=5 * c)
    with pytest.raises(ValueError, match="modulus"):
        build_minmax_operator([[5 * c]], [[5 * c]], [[c]], mu=10 * c)
    P, Q, C = [[2 * c, 0.1 * c], [0.1 * c, 2 * c]], [[2 * c]], [[0.7 * c], [0.2 * c]]
    sec = derived_sector(build_minmax_operator(P, Q, C, mu=c))
    assert sec.mu == c
    assert_allclose(sec.L / c, 2.59397568299192, rtol=1e-13)


@pytest.mark.parametrize("c", [2.0**-600, 2.0**-400, 1.0, 2.0**400, 2.0**520])
def test_derived_sector_is_scale_free_to_the_float_limits(c):
    # M'M of the unscaled Jacobian underflows at 2^-600 (L came out 0) and
    # overflows at 2^520 (eigvalsh did not converge)
    P, Q, C = [[2 * c, 0.1 * c], [0.1 * c, 2 * c]], [[2 * c]], [[0.7 * c], [0.2 * c]]
    sec = derived_sector(build_minmax_operator(P, Q, C, mu=c))
    assert sec.mu / c == 1.0
    assert_allclose(sec.L / c, 2.59397568299192, rtol=1e-13)


def test_bilinear_has_no_strongly_monotone_sector():
    with pytest.raises(ValueError):
        derived_sector(bilinear_operator([[1.0]]))


def test_sector_params_validation():
    with pytest.raises(ValueError):
        SectorParams(2.0, 1.0)
    with pytest.raises(ValueError):
        SectorParams(1.0, 2.0, delta=-0.1)


def test_sector_params_json_round_trip():
    for sector in (SectorParams(0.5, 4.0), SectorParams(1e-3, 7.25, 0.04)):
        assert SectorParams.from_json(sector.to_json()) == sector


def test_numpy_scalars_and_arrays_are_read_as_floats():
    sector = SectorParams(np.float32(0.5), np.int64(4), np.float64(0.25))
    assert sector == SectorParams(0.5, 4.0, 0.25)
    assert all(type(v) is float for v in sector.to_json().values())
    op = diagonal_quadratic(np.array([1, 2]), np.zeros(2, dtype=np.float32))
    assert op == diagonal_quadratic([1.0, 2.0], fixed_point=[0.0, 0.0])
    assert all(type(v) is float for v in op.spectrum + op.fixed_point)
    assert bilinear_operator(np.eye(2)) == bilinear_operator([[1.0, 0.0], [0.0, 1.0]])
    minmax = build_minmax_operator(2.0 * np.eye(2), np.eye(2), np.ones((2, 2)), np.float32(0.5))
    assert minmax == build_minmax_operator([[2, 0], [0, 2]], [[1, 0], [0, 1]],
                                           [[1, 1], [1, 1]], 0.5)
    assert type(minmax.mu) is float


@pytest.mark.parametrize("mu,L,delta", [(0.5, 4.0, np.nan), (0.5, np.inf, 0.0), (np.nan, 4.0, 0.0)])
def test_sector_params_reject_non_finite_values(mu, L, delta):
    # a nan delta used to pass every comparison and leave each method uncertified
    with pytest.raises(ValueError, match="finite"):
        SectorParams(mu, L, delta)


# one literal config per kind, with the operator its constructor builds
OPERATOR_CONFIGS = [
    ({"kind": "scalar-noncvx"}, scalar_noncvx()),
    ({"kind": "diagonal-quadratic", "spectrum": [1.0, 2.0], "fixed_point": [3.0, -1.0]},
     diagonal_quadratic([1.0, 2.0], fixed_point=[3.0, -1.0])),
    ({"kind": "bilinear", "matrix": [[1.0, 0.2], [0.0, 2.0]]},
     bilinear_operator([[1.0, 0.2], [0.0, 2.0]])),
    ({"kind": "minmax-quadratic", "p": [[1.0]], "q": [[1.5]], "c": [[0.3]], "mu": 0.5},
     build_minmax_operator([[1.0]], [[1.5]], [[0.3]], mu=0.5)),
]


def test_operator_from_json_matches_its_constructor():
    assert sorted(cfg["kind"] for cfg, _ in OPERATOR_CONFIGS) == sorted(KINDS)
    for cfg, op in OPERATOR_CONFIGS:
        parsed = OperatorSpec.from_json(cfg)
        assert parsed == op, cfg["kind"]
        x = np.linspace(0.5, 1.5, op.dimension)
        assert_allclose(eval_operator(parsed, x), eval_operator(op, x), rtol=1e-15)


@pytest.mark.parametrize("cfg", [cfg for cfg, _ in OPERATOR_CONFIGS], ids=lambda c: c["kind"])
def test_operator_from_json_rejects_an_extra_field(cfg):
    with pytest.raises(ValueError, match="unknown operator fields"):
        OperatorSpec.from_json({**cfg, "extra": 1})


# one input per operator check, with the exact message it raises; for minmax
# the shapes are checked first, then the block moduli, then mu > 0
OPERATOR_REJECTIONS = [
    (diagonal_quadratic, "diagonal-quadratic", {"spectrum": [1.0, 0.0]},
     "spectrum entries must be positive"),
    (diagonal_quadratic, "diagonal-quadratic", {"spectrum": [1.0, -2.0], "fixed_point": [0.0]},
     "spectrum must be non-empty and match the dimension"),
    (bilinear_operator, "bilinear", {"matrix": [[1.0, 2.0]]}, "coupling matrix must be square"),
    (build_minmax_operator, "minmax-quadratic",
     {"p": [[1.0]], "q": [[1.0]], "c": [[0.5]], "mu": 0.0},
     "declared modulus mu must be positive"),
    (build_minmax_operator, "minmax-quadratic",
     {"p": [[-2.0]], "q": [[1.0]], "c": [[0.5]], "mu": -1.0},
     "convexity block has modulus -2, below the declared mu=-1"),
    (build_minmax_operator, "minmax-quadratic",
     {"p": [[1.0, 0.0], [0.0, 1.0]], "q": [[1.0]], "c": [[0.5]], "mu": -1.0},
     "block shapes are inconsistent"),
    (build_minmax_operator, "minmax-quadratic",
     {"p": [[1.0, 0.0]], "q": [[1.0]], "c": [[0.5]], "mu": 0.5}, "block shapes are inconsistent"),
]


@pytest.mark.parametrize("build, kind, fields, message", OPERATOR_REJECTIONS)
def test_operator_rejections_name_their_check(build, kind, fields, message):
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        build(**fields)
    with pytest.raises(ValueError, match=exact):
        OperatorSpec.from_json({"kind": kind, **fields})


@pytest.mark.parametrize("kind", [["bilinear"], {"bilinear": 1}, 1, None])
def test_a_kind_that_is_no_string_is_an_unknown_kind(kind):
    exact = f"^{re.escape(f'unknown operator kind {kind!r}')}$"
    with pytest.raises(ValueError, match=exact):
        OperatorSpec.from_json({"kind": kind, "matrix": [[1.0]]})
    with pytest.raises(ValueError, match=exact):
        OperatorSpec(kind=kind, fixed_point=(0.0, 0.0))


@pytest.mark.parametrize("data", [[0.5, 4.0], "sector", None])
def test_a_sector_that_is_no_object_is_rejected(data):
    with pytest.raises(ValueError, match="^sector must be a JSON object$"):
        SectorParams.from_json(data)


def test_a_single_eigenvalue_has_no_strict_sector():
    with pytest.raises(ValueError, match="^spectrum is degenerate, no strict sector exists$"):
        derived_sector(diagonal_quadratic([2.0, 2.0]))


def test_linear_map_is_read_only():
    op = bilinear_operator([[1.0, 0.2], [0.0, 2.0]])
    assert_allclose(op.linear_map, [[0, 0, 1.0, 0.2], [0, 0, 0, 2.0],
                                    [-1.0, 0, 0, 0], [-0.2, -2.0, 0, 0]])
    with pytest.raises(ValueError, match="read-only"):
        op.linear_map[0, 0] = 1.0
    assert scalar_noncvx().linear_map is None


def test_the_linear_map_is_derived_from_the_fields_the_spec_compares():
    # a replaced spectrum replaces the map: equal specs, equal F
    moved = dataclasses.replace(diagonal_quadratic([0.5, 4.0]), spectrum=(1.0, 2.0))
    twin = diagonal_quadratic([1.0, 2.0])
    assert moved == twin and hash(moved) == hash(twin)
    assert np.array_equal(moved.linear_map, twin.linear_map)
    assert eval_operator(moved, [1.0, 1.0]).tolist() == [1.0, 2.0]
    # a spec built without its constructor has its map too
    direct = OperatorSpec("diagonal-quadratic", (0.0,), spectrum=(3.0,))
    assert eval_operator(direct, [2.0]).tolist() == [6.0]
    game = bilinear_operator([[1.0, 0.2], [0.0, 2.0]])
    swapped = dataclasses.replace(game, matrix=((2.0, 0.0), (0.2, 1.0)))
    assert eval_operator(swapped, [0.0, 0.0, 1.0, 1.0]).tolist() == [2.0, 1.2, 0.0, 0.0]
    with pytest.raises(TypeError, match="linear_map"):
        OperatorSpec("diagonal-quadratic", (0.0,), spectrum=(3.0,), linear_map=np.eye(1))


def test_fixed_array_is_a_read_only_copy_outside_the_spec_identity():
    op = diagonal_quadratic([1.0, 2.0, 3.0], fixed_point=[0.5, -1.0, 2.0])
    assert op.fixed_array.dtype == float and op.fixed_array.tolist() == [0.5, -1.0, 2.0]
    with pytest.raises(ValueError, match="read-only"):
        op.fixed_array[0] = 0.0
    twin = diagonal_quadratic([1.0, 2.0, 3.0], fixed_point=[0.5, -1.0, 2.0])
    assert twin == op and hash(twin) == hash(op) and twin.fixed_array is not op.fixed_array
    assert repr(op) == (
        "OperatorSpec(kind='diagonal-quadratic', fixed_point=(0.5, -1.0, 2.0), "
        "spectrum=(1.0, 2.0, 3.0), matrix=None, jacobian=None, mu=None)"
    )
    moved = dataclasses.replace(op, fixed_point=(1.0, 1.0, 1.0))
    assert moved != op and moved.fixed_array.tolist() == [1.0, 1.0, 1.0]
    assert not moved.fixed_array.flags.writeable
    assert_allclose(eval_operator(moved, [1.0, 2.0, 4.0]), [0.0, 2.0, 9.0], rtol=0)
    assert scalar_noncvx().fixed_array.tolist() == [0.0]


def test_eval_operator_is_the_map_around_the_fixed_point_bit_for_bit():
    rng = np.random.default_rng(21)
    ops = []
    for n in (1, 3, 50):
        spectrum = rng.uniform(0.5, 4.0, size=n)
        ops.append(diagonal_quadratic(spectrum, fixed_point=rng.normal(size=n)))
    for n, m in ((1, 1), (2, 3), (4, 4)):
        P = np.eye(n) * 2.0 + 0.1 * rng.normal(size=(n, n))
        Q = np.eye(m) * 2.0 + 0.1 * rng.normal(size=(m, m))
        ops.append(build_minmax_operator(P, Q, rng.normal(size=(n, m)), mu=1.0))
    for op in ops:
        for _ in range(20):
            x = rng.normal(scale=10.0, size=op.dimension)
            expected = op.linear_map @ (x - np.asarray(op.fixed_point))
            assert np.array_equal(eval_operator(op, x), expected), op.kind


def test_check_sector_requires_samples():
    with pytest.raises(ValueError):
        check_sector(scalar_noncvx(), SectorParams(1.0, 3.0), [])
