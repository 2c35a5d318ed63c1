import json
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from freqcert.operators import diagonal_quadratic
from freqcert.stability import roots
from freqcert.transfer import (
    _FAMILIES,
    MethodSpec,
    RationalTF,
    build_transfer,
    complementary_sensitivity,
    evaluate,
    rho_scale,
    tf_equal,
)


def test_gd_coefficients():
    k = build_transfer(MethodSpec("gd", eta=0.1))
    assert_allclose(k.num, [-0.1], atol=1e-15)
    assert_allclose(k.den, [-1.0, 1.0], atol=1e-15)


def test_ogd_coefficients():
    k = build_transfer(MethodSpec("ogd", eta=0.5))
    assert_allclose(k.num, [0.5, -1.0], atol=1e-15)
    assert_allclose(k.den, [0.0, -1.0, 1.0], atol=1e-15)


def test_gogd_coefficients():
    k = build_transfer(MethodSpec("gogd", alpha=0.125, beta=0.0625))
    assert_allclose(k.num, [0.0625, -0.1875], atol=1e-15)
    assert_allclose(k.den, [0.0, -1.0, 1.0], atol=1e-15)


def test_pp_coefficients():
    k = build_transfer(MethodSpec("pp", eta=0.3))
    assert_allclose(k.num, [0.0, -0.3], atol=1e-15)
    assert_allclose(k.den, [-1.0, 1.0], atol=1e-15)


def test_pid_coefficients():
    k = build_transfer(MethodSpec("pid", kp=0.2, ki=0.3, kd=0.1))
    # -((kp+kd) z^2 + (-kp+ki-2kd) z + kd) / (z^2 - z)
    assert_allclose(k.num, [-0.1, 0.2 - 0.3 + 0.2, -0.3], atol=1e-15)
    assert_allclose(k.den, [0.0, -1.0, 1.0], atol=1e-15)


def test_hgd_matches_ogd_for_optimistic_weights():
    hgd = build_transfer(MethodSpec("hgd", eta=0.37, a=(2.0, -1.0)))
    ogd = build_transfer(MethodSpec("ogd", eta=0.37))
    assert_allclose(hgd.num, ogd.num, atol=1e-15)
    assert_allclose(hgd.den, ogd.den, atol=1e-15)


def test_pid_subsumes_gogd_and_pp():
    alpha, beta = 0.125, 0.0625
    assert tf_equal(
        build_transfer(MethodSpec("pid", kp=beta, ki=alpha, kd=-beta)),
        build_transfer(MethodSpec("gogd", alpha=alpha, beta=beta)),
    )
    eta = 0.7
    assert tf_equal(
        build_transfer(MethodSpec("pid", kp=eta, ki=eta, kd=0.0)),
        build_transfer(MethodSpec("pp", eta=eta)),
    )


def test_single_call_variants_share_the_optimistic_transfer():
    for eta in (0.1, 0.37, 1.3):
        ogd = build_transfer(MethodSpec("ogd", eta=eta))
        # coefficient for coefficient, not only as rational functions
        assert build_transfer(MethodSpec("pegd", eta=eta)) == ogd
        assert build_transfer(MethodSpec("rgd", eta=eta)) == ogd
    assert not tf_equal(ogd, build_transfer(MethodSpec("gd", eta=1.3)))


def test_two_zero_numerators_are_equal():
    # scale 0 meets the tolerance 0 times scale with equality
    zero = RationalTF(num=(0.0,), den=(-0.5, 1.0))
    assert tf_equal(zero, RationalTF(num=(0.0,), den=(0.25, 1.0)))


def test_from_coeffs_rejects_a_denominator_below_the_trim():
    with pytest.raises(ValueError, match="^denominator is identically zero$"):
        RationalTF.from_coeffs([1.0], [1e-15])


def test_equivalence_family():
    eta = 0.21
    ogd = build_transfer(MethodSpec("ogd", eta=eta))
    assert tf_equal(ogd, build_transfer(MethodSpec("gogd", alpha=eta, beta=eta)))
    assert tf_equal(ogd, build_transfer(MethodSpec("hgd", eta=eta, a=(2.0, -1.0))))
    gd = build_transfer(MethodSpec("gd", eta=0.3))
    assert tf_equal(gd, build_transfer(MethodSpec("gogd", alpha=0.3, beta=0.0)))


def test_general_historical_reduces_to_hgd():
    a = (1.5, -0.25, -0.25)
    hgd = build_transfer(MethodSpec("hgd", eta=0.2, a=a))
    gen = build_transfer(
        MethodSpec("general", eta=0.2, a=a, b=(1.0, 0.0, 0.0))
    )
    assert tf_equal(hgd, gen)


def test_general_historical_rejects_unnormalized_iterate_weights():
    with pytest.raises(ValueError):
        MethodSpec("general", eta=0.2, a=(2.0, -1.0), b=(0.5, 0.4))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: MethodSpec("gd"), "gd requires field 'eta'", id="gd-no-eta"),
        pytest.param(lambda: MethodSpec("general", eta=0.2, a=(1.0, 0.0), b=(1.0,)),
                     "a and b must share the horizon length", id="general-horizons"),
    ],
)
def test_method_spec_rejects_missing_and_mismatched_fields(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("rho", [0.0, -0.5, 1.5])
def test_rho_scale_rejects_a_rho_outside_the_unit_interval(rho):
    k = build_transfer(MethodSpec("gd", eta=0.3))
    with pytest.raises(ValueError, match=re.escape("rho must lie in (0, 1]")):
        rho_scale(k, rho)


def test_strict_properness_by_family():
    strictly_proper = [
        MethodSpec("gd", eta=0.1),
        MethodSpec("ogd", eta=0.1),
        MethodSpec("gogd", alpha=0.1, beta=0.2),
        MethodSpec("hgd", eta=0.1, a=(1.0, 2.0, -1.0)),
        MethodSpec("pegd", eta=0.1),
        MethodSpec("rgd", eta=0.1),
    ]
    for m in strictly_proper:
        assert build_transfer(m).strictly_proper, m.family
    assert not build_transfer(MethodSpec("pp", eta=0.1)).strictly_proper
    assert not build_transfer(MethodSpec("pid", kp=0.1, ki=0.2, kd=-0.05)).strictly_proper


def test_complementary_sensitivity_tuned_gd():
    # eta = 2/(L+mu) turns the pole into a pure delay: -eta/z
    L, mu = 4.0, 0.5
    eta = 2.0 / (L + mu)
    k = build_transfer(MethodSpec("gd", eta=eta))
    kp = complementary_sensitivity(k, (L + mu) / 2.0)
    assert_allclose(kp.num, [-eta], atol=1e-15)
    assert_allclose(kp.den, [0.0, 1.0], atol=1e-15)


def test_complementary_sensitivity_gd_at_one_over_L():
    L, mu = 4.0, 0.5
    k = build_transfer(MethodSpec("gd", eta=1.0 / L))
    kp = complementary_sensitivity(k, (L + mu) / 2.0)
    kappa_inv = mu / L
    assert_allclose(kp.num, [-1.0 / L], atol=1e-15)
    assert_allclose(kp.den, [-(1.0 - kappa_inv) / 2.0, 1.0], atol=1e-15)


def test_complementary_sensitivity_zero_shift_is_identity():
    # den - 0 num over a leading 1 returns every coefficient unchanged, also
    # where num reaches den's degree
    for method in (MethodSpec("ogd", eta=0.2), MethodSpec("pp", eta=0.5)):
        k = build_transfer(method)
        assert complementary_sensitivity(k, 0.0) == k


def test_rho_scale_shifts_the_gd_pole():
    k = build_transfer(MethodSpec("gd", eta=0.3))
    scaled = rho_scale(k, 0.5)
    assert_allclose(scaled.num, [-0.6], atol=1e-15)
    assert_allclose(scaled.den, [-2.0, 1.0], atol=1e-15)
    same = rho_scale(k, 1.0)
    assert_allclose(same.num, k.num, atol=1e-15)
    assert_allclose(same.den, k.den, atol=1e-15)


def test_rho_scale_ogd_denominator_matches_closed_form():
    L, lam, eps = 4.0, 0.125, 0.4
    mu = lam * L
    eta = (2.0 / (3.0 * L)) * (1.0 - eps)
    rho = 0.9
    kp = complementary_sensitivity(
        build_transfer(MethodSpec("ogd", eta=eta)), (L + mu) / 2.0
    )
    scaled = rho_scale(kp, rho)
    c1 = (2 * lam - 2 * eps * lam - 2 * eps - 1) / 3.0
    c0 = -(1 - eps) * (1 + lam) / 3.0
    expected = np.array([c0, c1 * rho, rho**2]) / rho**2  # monic normalization
    assert_allclose(scaled.den, expected, rtol=1e-13)


def test_rho_scale_composes():
    k = complementary_sensitivity(build_transfer(MethodSpec("ogd", eta=0.11)), 1.7)
    both = rho_scale(k, 0.9 * 0.8)
    nested = rho_scale(rho_scale(k, 0.9), 0.8)
    assert tf_equal(both, nested)


def test_complementary_sensitivity_rejects_a_cancelled_leading_term():
    # K(inf) = 1 and h = 1: 1 - h K has no leading term, the loop is ill posed
    k = RationalTF.from_coeffs([0.0, 1.0], [-0.5, 1.0])
    with pytest.raises(ValueError, match="well posed"):
        complementary_sensitivity(k, 1.0)
    # a rounding-level remainder is judged relative to the coefficient scale
    with pytest.raises(ValueError, match="well posed"):
        complementary_sensitivity(k, float(np.nextafter(1.0, 2.0)))
    kp = complementary_sensitivity(k, 0.5)
    assert kp.den_degree == 1 and kp.den[-1] == 1.0


def test_rho_scale_keeps_the_degree_at_tiny_rho():
    a = (0.3, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03)
    k = complementary_sensitivity(build_transfer(MethodSpec("hgd", eta=0.1, a=a)), 2.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = rho_scale(k, 1e-6)
    assert scaled.den_degree == k.den_degree == 10
    assert scaled.num_degree == k.num_degree
    assert scaled.den[-1] == 1.0
    assert np.all(np.isfinite(scaled.num)) and np.all(np.isfinite(scaled.den))
    poles = np.sort_complex(np.roots(scaled.den[::-1]))
    assert_allclose(poles, np.sort_complex(np.roots(k.den[::-1]) / 1e-6), rtol=1e-6)


def test_evaluate_examples():
    assert_allclose(evaluate(build_transfer(MethodSpec("gd", eta=0.1)), 2.0), -0.1)
    assert_allclose(evaluate(build_transfer(MethodSpec("ogd", eta=0.5)), -1.0), 0.75)
    assert_allclose(evaluate(build_transfer(MethodSpec("pp", eta=1.0)), 2.0), -2.0)


def test_evaluate_rejects_poles():
    k = build_transfer(MethodSpec("gd", eta=0.1))
    with pytest.raises(ZeroDivisionError):
        evaluate(k, 1.0)


def test_complementary_sensitivity_against_unreduced_formula():
    rng = np.random.default_rng(42)
    h = 2.25
    for m in (MethodSpec("ogd", eta=0.15), MethodSpec("pp", eta=0.6)):
        k = build_transfer(m)
        kp = complementary_sensitivity(k, h)
        for _ in range(100):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                kv = evaluate(k, z)
                expected = kv / (1.0 - h * kv)
                got = evaluate(kp, z)
            except ZeroDivisionError:
                continue
            assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_from_coeffs_keeps_common_roots():
    # (z - 0.5)(z - 2) / ((z - 0.5) z): the shared root at 0.5 is a mode of
    # the system, so neither side loses a degree
    num = np.convolve([-0.5, 1], [-2, 1])
    den = np.convolve([-0.5, 1], [0, 1])
    k = RationalTF.from_coeffs(num, den)
    assert k.num_degree == k.den_degree == 2
    assert_allclose(k.num, num, atol=1e-15)
    assert_allclose(k.den, den, atol=1e-15)


def test_trimming_is_relative_to_the_coefficient_scale():
    # every coefficient of this num lies below an absolute 1e-14; none is
    # negligible against the largest, so the -2 eta z term stays
    k = build_transfer(MethodSpec("ogd", eta=4e-15))
    assert k.num == (4e-15, -8e-15)


def test_numerator_cut_leaves_a_huge_denominator_whole():
    # z^2 + 1e14 z - (1 + 1e14) has a root near -1e14; a cut relative to its
    # largest coefficient would drop the leading 1 and that pole with it
    k = build_transfer(MethodSpec("general", eta=1e10, a=(0.0, 1.0), b=(-1e14, 1.0 + 1e14)))
    assert k.den == (-(1.0 + 1e14), 1e14, 1.0)
    assert k.num == (-1e10,)


@pytest.mark.parametrize("family", ["gd", "ogd", "pp", "pegd", "rgd", "hgd", "general"])
def test_transfer_is_the_step_size_times_the_unit_step_transfer(family):
    # K = eta K1 bit for bit, so max_learning_rate builds K1 once and scales
    # its numerator at each probe
    rng = np.random.default_rng(8)
    for _ in range(200):
        eta = float(np.exp(rng.uniform(np.log(1e-12), np.log(1e12))))
        n = int(rng.integers(1, 5))
        fields = {
            "hgd": dict(a=tuple(rng.uniform(-1.0, 1.0, n))),
            "general": dict(a=tuple(rng.uniform(-1.0, 1.0, n)),
                            b=tuple(float(v) for v in rng.dirichlet(np.ones(n)))),
        }.get(family, {})
        unit = build_transfer(MethodSpec(family, eta=1.0, **fields))
        k = build_transfer(MethodSpec(family, eta=eta, **fields))
        assert k == RationalTF(tuple(eta * c for c in unit.num), unit.den), (eta, fields)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: RationalTF.from_coeffs([1.0], []), id="empty-den"),
        pytest.param(lambda: RationalTF.from_coeffs([], [1.0, 1.0]), id="empty-num"),
        pytest.param(lambda: roots(()), id="empty-polynomial"),
        pytest.param(lambda: diagonal_quadratic([]), id="empty-spectrum"),
    ],
)
def test_empty_inputs_are_rejected(build):
    with pytest.raises(ValueError, match="empty"):
        build()


def test_from_coeffs_rejects_improper():
    with pytest.raises(ValueError):
        RationalTF.from_coeffs([1.0, 2.0, 3.0], [1.0, 1.0])


def test_method_spec_json_round_trip():
    specs = [
        MethodSpec("gd", eta=0.1),
        MethodSpec("gogd", alpha=0.125, beta=0.0625),
        MethodSpec("pid", kp=0.1, ki=0.2, kd=-0.1),
        MethodSpec("hgd", eta=0.1, a=(2.0, -1.0)),
        MethodSpec("general", eta=0.1, a=(2.0, -1.0), b=(0.75, 0.25)),
    ]
    assert sorted(VALID_FIELDS) == sorted(_FAMILIES)
    specs += [MethodSpec(family, **valid) for family, valid in VALID_FIELDS.items()]
    for m in specs:
        assert MethodSpec.from_json(m.to_json()) == m
        assert MethodSpec.from_json(json.loads(json.dumps(m.to_json()))) == m


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("hgd", dict(eta=0.1, a=(np.nan,))),
        ("general", dict(eta=0.1, a=(1.0, 0.0), b=(np.nan, 1.0))),
        ("gd", dict(eta=np.inf)),
        ("gogd", dict(alpha=0.1, beta=np.inf)),
        ("pid", dict(kp=0.1, ki=0.2, kd=np.nan)),
    ],
)
def test_method_spec_rejects_non_finite_values(family, kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        MethodSpec(family, **kwargs)


def test_method_spec_rejects_unknown_fields():
    with pytest.raises(ValueError):
        MethodSpec.from_json({"family": "gd", "eta": 0.1, "gamma": 3})
    with pytest.raises(ValueError):
        MethodSpec.from_json({"family": "warp", "eta": 0.1})
    with pytest.raises(ValueError):
        MethodSpec("gd", eta=0.1, alpha=0.5)


@pytest.mark.parametrize("family", [["gd"], {"gd": 1}])
def test_a_non_string_family_is_unknown(family):
    with pytest.raises(ValueError, match="^unknown method family"):
        MethodSpec(family, eta=0.1)
    with pytest.raises(ValueError, match="^unknown method family"):
        MethodSpec.from_json({"family": family, "eta": 0.1})


# one valid spec per family
VALID_FIELDS = {
    "gd": dict(eta=0.1),
    "ogd": dict(eta=0.1),
    "gogd": dict(alpha=0.1, beta=0.05),
    "pp": dict(eta=0.1),
    "pid": dict(kp=0.1, ki=0.2, kd=0.05),
    "hgd": dict(eta=0.1, a=(1.0,)),
    "general": dict(eta=0.1, a=(1.0,), b=(1.0,)),
    "pegd": dict(eta=0.1),
    "rgd": dict(eta=0.1),
}
# each field's value rule: values that break it and the message they raise
VALUE_RULES = {
    "eta": ((0.0, -0.1), "eta must be positive"),
    "alpha": ((0.0, -0.1), "alpha must be positive"),
    "ki": ((0.0, -0.1), "ki must be positive"),
    "beta": ((-0.1,), "beta must be nonnegative"),
    "kp": ((-0.1,), "kp must be nonnegative"),
    "a": (((),), "horizon must be at least 1"),
}


@pytest.mark.parametrize(
    "family, field, bad, message",
    [
        (family, field, bad, message)
        for family, valid in VALID_FIELDS.items()
        for field, (bads, message) in VALUE_RULES.items()
        if field in valid
        for bad in bads
    ],
)
def test_each_value_rule_holds_in_every_family_that_takes_the_field(family, field, bad, message):
    MethodSpec(family, **VALID_FIELDS[family])
    with pytest.raises(ValueError, match=f"^{message}$"):
        MethodSpec(family, **{**VALID_FIELDS[family], field: bad})


def test_numpy_scalars_and_arrays_pass_as_floats():
    m = MethodSpec("general", eta=np.float32(0.25), a=np.array([1, 0]),
                   b=np.array([0.5, 0.5], dtype=np.float32))
    assert m == MethodSpec("general", eta=0.25, a=(1.0, 0.0), b=(0.5, 0.5))
    assert all(type(v) is float for v in (m.eta, *m.a, *m.b))
    assert MethodSpec("pid", kp=np.int64(0), ki=np.float64(0.5), kd=np.float32(0.125)) == (
        MethodSpec("pid", kp=0.0, ki=0.5, kd=0.125))
