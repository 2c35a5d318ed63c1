import importlib
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from freqcert.certify import (
    RHO_PROBE,
    RHO_TOL,
    CertificationQuery,
    best_rate,
    certify,
    closed_form,
    frequency_response,
    gain_threshold,
    max_learning_rate,
    _bisect,
    _certified_at,
    _shifted_loop,
)
from freqcert.gain import hinf_norm, level_radius, step_margin
from freqcert.operators import SectorParams
from freqcert.stability import (
    MARGINAL_ROOT_BAND,
    is_schur,
    spectral_radius_poly,
)
from freqcert.transfer import (
    MethodSpec,
    RationalTF,
    build_transfer,
    complementary_sensitivity,
    rho_scale,
)

# the package re-exports the function certify under the module's name
certify_mod = importlib.import_module("freqcert.certify")

SECTOR = SectorParams(mu=0.5, L=4.0)


def test_certify_tuned_gd():
    res = certify(CertificationQuery(MethodSpec("gd", eta=2 / 4.5), SECTOR, rho=0.9))
    assert res.certified
    assert_allclose(res.gain, (2 / 4.5) / 0.9, rtol=1e-12)
    assert_allclose(res.threshold, 2 / 3.5, rtol=1e-15)
    assert res.margin > 0


def test_certify_fails_below_the_gd_rate():
    # (L - mu)/(L + mu) = 0.7778 is the certification boundary
    res = certify(CertificationQuery(MethodSpec("gd", eta=2 / 4.5), SECTOR, rho=0.7))
    assert not res.certified


def test_certify_rejects_large_optimistic_steps():
    res = certify(
        CertificationQuery(MethodSpec("ogd", eta=0.7 / 4.0), SECTOR, rho=0.999)
    )
    assert not res.certified


def test_noisy_threshold_and_certification():
    noisy = SectorParams(mu=0.5, L=4.0, delta=0.1)
    assert_allclose(gain_threshold(noisy), 1.0 / 2.15, rtol=1e-15)
    res = certify(CertificationQuery(MethodSpec("gd", eta=0.25), noisy, rho=0.985))
    assert res.certified
    # the boundary 1 - kappa^{ -1} + delta is sharp
    res = certify(CertificationQuery(MethodSpec("gd", eta=0.25), noisy, rho=0.974))
    assert not res.certified


def test_unstable_loop_reports_without_gain():
    # the shifted gd loop at eta = 1/L has its pole at (1 - kappa^{-1})/2;
    # scaling below that magnitude destabilizes it
    res = certify(CertificationQuery(MethodSpec("gd", eta=0.25), SECTOR, rho=0.4))
    assert not res.stable_ok
    assert res.gain is None and res.margin is None
    assert not res.certified


def test_a_pole_far_outside_the_circle_is_not_trimmed_away():
    # the scaled gd loop's denominator is z + 2e14 here; its monic leading 1
    # is negligible against the constant, and a loop that dropped it would
    # have no pole left and certify
    res = certify(CertificationQuery(MethodSpec("gd", eta=4.4e13), SECTOR, rho=0.5))
    assert not res.stable_ok
    assert not res.certified


def test_a_huge_pole_of_the_method_is_not_trimmed_away():
    # the method's denominator has a root near -1e14, so no rate certifies;
    # the search may also refuse the loop, whose leading 1 is negligible
    # against 1e14 once shifted
    method = MethodSpec("general", eta=1e10, a=(0.0, 1.0), b=(-1e14, 1.0 + 1e14))
    try:
        rate = best_rate(method, SECTOR)
    except ValueError:
        rate = None
    assert rate is None


def test_improper_methods_need_the_flag():
    q = CertificationQuery(MethodSpec("pp", eta=0.5), SECTOR, rho=0.9)
    assert not certify(q).certified
    assert not certify(q).proper_ok
    q2 = CertificationQuery(
        MethodSpec("pp", eta=0.5), SECTOR, rho=0.9, allow_non_strictly_proper=True
    )
    assert certify(q2).certified


def test_best_rate_matches_gd_theory():
    assert_allclose(
        best_rate(MethodSpec("gd", eta=2 / 4.5), SECTOR), 3.5 / 4.5, atol=1e-4
    )
    assert_allclose(best_rate(MethodSpec("gd", eta=0.25), SECTOR), 0.875, atol=1e-4)


def test_best_rate_pp():
    got = best_rate(MethodSpec("pp", eta=2 / 4.5), SECTOR, allow_improper=True)
    assert_allclose(got, 4.5 / 5.5, atol=1e-4)


def test_best_rate_ogd_beats_the_sufficient_bound():
    eps = 0.5
    eta = (2.0 / (3.0 * SECTOR.L)) * (1.0 - eps)
    bound = 1.0 - (2.0 / 3.0) * eps * (1.0 - eps) * SECTOR.mu / SECTOR.L
    got = best_rate(MethodSpec("ogd", eta=eta), SECTOR)
    assert got <= bound + 1e-4


def test_best_rate_uncertifiable():
    assert best_rate(MethodSpec("ogd", eta=0.7 / 4.0), SECTOR) is None


def test_max_learning_rate_ogd_tightness():
    sector = SectorParams(mu=1e-3, L=3.0)
    got = max_learning_rate(MethodSpec("ogd", eta=1.0), sector)
    assert 2 / 9 * (1 - 2e-6) <= got <= 2 / 9


def test_max_learning_rate_hgd_matches_ogd():
    sector = SectorParams(mu=1e-3, L=3.0)
    ogd = max_learning_rate(MethodSpec("ogd", eta=1.0), sector)
    hgd = max_learning_rate(MethodSpec("hgd", eta=1.0, a=(2.0, -1.0)), sector)
    assert hgd == ogd  # the same K


def test_max_learning_rate_gd_covers_the_tuned_point():
    got = max_learning_rate(MethodSpec("gd", eta=1.0), SECTOR)
    assert got >= 2 / 4.5
    # classical stability boundary 2/L for the plain gradient step; at
    # RHO_PROBE it is (1 + RHO_PROBE) / L, 5e-7 relative below
    assert 2.0 / SECTOR.L * (1 - 2e-6) <= got <= 2.0 / SECTOR.L


def test_closed_form_regimes():
    assert_allclose(
        closed_form(MethodSpec("gd", eta=2 / 4.5), SECTOR), 3.5 / 4.5, rtol=1e-12
    )
    assert_allclose(closed_form(MethodSpec("gd", eta=0.25), SECTOR), 0.875, rtol=1e-12)
    assert_allclose(
        closed_form(MethodSpec("gogd", alpha=0.125, beta=0.0625), SECTOR),
        0.96875,
        rtol=1e-12,
    )
    assert_allclose(
        closed_form(MethodSpec("gogd", alpha=0.25, beta=0.0625), SECTOR),
        1.0 - 0.5 * 0.5 * 0.125 / 2.0,
        rtol=1e-12,
    )
    assert_allclose(
        closed_form(MethodSpec("pp", eta=2 / 4.5), SECTOR), 4.5 / 5.5, rtol=1e-12
    )
    eps = 0.3
    eta = (2.0 / (3.0 * SECTOR.L)) * (1.0 - eps)
    assert_allclose(
        closed_form(MethodSpec("ogd", eta=eta), SECTOR),
        1.0 - (2.0 / 3.0) * eps * (1.0 - eps) * 0.125,
        rtol=1e-12,
    )
    assert closed_form(MethodSpec("gd", eta=0.123), SECTOR) is None
    assert closed_form(MethodSpec("ogd", eta=1.0), SECTOR) is None


def test_closed_form_is_none_outside_every_regime():
    noisy = SectorParams(mu=0.5, L=4.0, delta=0.05)
    # gd at neither step; ogd under noise away from eta = 1/(2L); gogd at
    # alpha = 1/(2L) with 2 L beta above 1, and at neither alpha; pp under noise
    assert closed_form(MethodSpec("gd", eta=0.1), noisy) is None
    assert closed_form(MethodSpec("ogd", eta=0.1), noisy) is None
    assert closed_form(MethodSpec("gogd", alpha=0.125, beta=0.2), SECTOR) is None
    assert closed_form(MethodSpec("gogd", alpha=0.1, beta=0.05), SECTOR) is None
    assert closed_form(MethodSpec("pp", eta=0.5), noisy) is None


def test_closed_form_noisy_regimes():
    noisy = SectorParams(mu=0.5, L=4.0, delta=0.05)
    assert_allclose(
        closed_form(MethodSpec("gd", eta=0.25), noisy), 1 - 0.125 + 0.05, rtol=1e-12
    )
    ogd_noise = SectorParams(mu=0.5, L=4.0, delta=0.5 / 12.0)
    assert_allclose(
        closed_form(MethodSpec("ogd", eta=0.125), ogd_noise),
        1.0 - 0.125 / 4.0,
        rtol=1e-12,
    )
    too_noisy = SectorParams(mu=0.5, L=4.0, delta=0.2)
    assert closed_form(MethodSpec("gd", eta=0.25), too_noisy) is None


def test_oracle_agreement_with_the_pipeline():
    # certification succeeds just above every closed-form rate
    cases = [
        (MethodSpec("gd", eta=2 / 4.5), SECTOR, False),
        (MethodSpec("gd", eta=0.25), SECTOR, False),
        (MethodSpec("ogd", eta=(2 / 12) * 0.7), SECTOR, False),
        (MethodSpec("gogd", alpha=0.125, beta=0.0625), SECTOR, False),
        (MethodSpec("pp", eta=1.0), SECTOR, True),
        (MethodSpec("gd", eta=0.25), SectorParams(0.5, 4.0, delta=0.05), False),
    ]
    for method, sector, allow in cases:
        rho = closed_form(method, sector)
        assert rho is not None
        res = certify(
            CertificationQuery(method, sector, rho + 1e-3, allow_non_strictly_proper=allow)
        )
        assert res.certified, (method.family, rho)


def test_sharp_theorems_fail_below_their_rate():
    # regimes whose stated rate is exactly the certification boundary
    cases = [
        (MethodSpec("gd", eta=2 / 4.5), SECTOR, False),
        (MethodSpec("gd", eta=0.25), SECTOR, False),
        (MethodSpec("pp", eta=1.0), SECTOR, True),
        (MethodSpec("gd", eta=0.25), SectorParams(0.5, 4.0, delta=0.05), False),
    ]
    for method, sector, allow in cases:
        rho = closed_form(method, sector)
        res = certify(
            CertificationQuery(method, sector, rho - 1e-3, allow_non_strictly_proper=allow)
        )
        assert not res.certified, method.family


def test_noise_monotonicity():
    thresholds = [
        gain_threshold(SectorParams(0.5, 4.0, delta=d)) for d in (0.0, 0.05, 0.1, 0.2)
    ]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    # a certificate at some delta survives any smaller delta
    for d_small, d_big in ((0.0, 0.05), (0.02, 0.05)):
        big = certify(
            CertificationQuery(
                MethodSpec("gd", eta=0.25), SectorParams(0.5, 4.0, delta=d_big), 0.95
            )
        )
        small = certify(
            CertificationQuery(
                MethodSpec("gd", eta=0.25), SectorParams(0.5, 4.0, delta=d_small), 0.95
            )
        )
        assert big.certified
        assert small.certified


def test_pid_certifies_identically_to_gogd():
    alpha, beta = 0.125, 0.0625
    for rho in (0.9, 0.97, 0.999):
        a = certify(
            CertificationQuery(MethodSpec("pid", kp=beta, ki=alpha, kd=-beta), SECTOR, rho)
        )
        b = certify(
            CertificationQuery(MethodSpec("gogd", alpha=alpha, beta=beta), SECTOR, rho)
        )
        assert a == b


def test_pid_certifies_identically_to_pp():
    eta = 0.5
    for rho in (0.85, 0.95):
        a = certify(
            CertificationQuery(
                MethodSpec("pid", kp=eta, ki=eta, kd=0.0), SECTOR, rho,
                allow_non_strictly_proper=True,
            )
        )
        b = certify(
            CertificationQuery(
                MethodSpec("pp", eta=eta), SECTOR, rho, allow_non_strictly_proper=True
            )
        )
        assert a == b


def test_frequency_response_examples():
    radius = gain_threshold(SECTOR)
    samples = frequency_response(MethodSpec("ogd", eta=0.25 / 4.0), SECTOR)
    assert len(samples) == 256
    assert all(abs(v) < radius for _, v in samples)
    samples = frequency_response(MethodSpec("ogd", eta=0.7 / 4.0), SECTOR)
    assert any(abs(v) >= radius for _, v in samples)
    samples = frequency_response(MethodSpec("gd", eta=2 / 4.5), SECTOR)
    radii = [abs(v) for _, v in samples]
    assert_allclose(radii, 2 / 4.5, rtol=1e-12)  # constant magnitude eta


def test_frequency_response_never_exceeds_the_gain():
    # the samples are points of the curve whose supremum hinf_norm returns
    for eta in (0.25 / 4, 0.5 / 4, 0.7 / 4):
        method = MethodSpec("ogd", eta=eta)
        peak = max(abs(v) for _, v in frequency_response(method, SECTOR, n_points=4096))
        gain, _ = hinf_norm(_shifted_loop(method, SECTOR)[1])
        assert peak <= gain * (1 + 1e-12), eta
        assert_allclose(peak, gain, rtol=1e-3)


def test_frequency_response_sample_count_validation():
    with pytest.raises(ValueError):
        frequency_response(MethodSpec("gd", eta=0.25), SECTOR, n_points=32)


def test_query_validation():
    with pytest.raises(ValueError):
        CertificationQuery(MethodSpec("gd", eta=0.1), SECTOR, rho=1.0)
    with pytest.raises(ValueError):
        CertificationQuery(MethodSpec("gd", eta=0.1), SECTOR, rho=0.0)


@pytest.mark.parametrize("rho, message", [
    ("0.9", "rho must be a JSON number, not '0.9'"),
    (True, "rho must be a JSON number, not True"),
    (float("nan"), "rho must be finite"),
])
def test_query_rho_must_be_a_finite_number(rho, message):
    # the same message the CLI prints for the same "rho" in a certify config
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CertificationQuery(MethodSpec("gd", eta=0.1), SECTOR, rho)
    query = CertificationQuery(MethodSpec("gd", eta=0.1), SECTOR, np.float32(0.5))
    assert query.rho == 0.5 and type(query.rho) is float


GENERAL_TRIM_REPRO = MethodSpec(
    "general",
    eta=0.010074100626863966,
    a=(3.12680034490014, -0.14612799241489602, -1.980672352485244),
    b=(0.06275204857026867, 0.09050934934410007, 0.8467386020856312),
)


def test_best_rate_keeps_the_leading_term_at_small_rho():
    # at the rho = 1e-6 probe the leading denominator term of this horizon-3
    # loop is rho^3 = 1e-18 before normalization and must not be trimmed
    rho = best_rate(GENERAL_TRIM_REPRO, SECTOR)
    assert rho is not None
    assert _shifted_pole_radius(GENERAL_TRIM_REPRO, SECTOR) < rho < 1.0


def test_scaled_loop_keeps_its_degree():
    method = MethodSpec("general", eta=0.3, a=(0.5, 0.5, 0.0), b=(0.2, 0.3, 0.5))
    _, shifted = _shifted_loop(method, SECTOR)
    loop = rho_scale(shifted, 1e-5)
    assert loop.den_degree == 3
    assert loop.den[-1] == 1.0


@pytest.mark.parametrize(
    "method, expected",
    [
        (MethodSpec("hgd", eta=0.05, a=(0.25,) * 4), 0.97398),
        (MethodSpec("hgd", eta=0.2, a=(1.0,) + (1e-4,) * 9), 0.89984),
    ],
)
def test_long_horizon_rates_lie_above_the_pole_radius(method, expected):
    # no rate at or below the pole radius of den - h*num can certify, in
    # particular not the first probe rho = 1e-6
    rho = best_rate(method, SECTOR)
    assert rho > _shifted_pole_radius(method, SECTOR)
    assert_allclose(rho, expected, atol=1e-5)


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_certify_builds_the_transfer_once(monkeypatch):
    builds = _count_calls(monkeypatch, certify_mod, "build_transfer")
    res = certify(CertificationQuery(MethodSpec("ogd", eta=1 / 12), SECTOR, rho=0.99))
    assert res.certified
    assert len(builds) == 1


def test_best_rate_reduces_once(monkeypatch):
    builds = _count_calls(monkeypatch, certify_mod, "build_transfer")
    reductions = _count_calls(monkeypatch, RationalTF, "from_coeffs")
    assert best_rate(MethodSpec("ogd", eta=1 / 12), SECTOR) is not None
    assert len(builds) == 1
    assert len(reductions) <= 1


def test_modes_shared_by_num_and_den_bound_the_rate():
    # each spec's K has a root common to num and den: z = 1 (the recursion
    # conserves x_k + eta s_(k-1)), z = -1, and z = 0.97. The simulation
    # never contracts faster than that mode, so neither may the certificate.
    integrator = MethodSpec("hgd", eta=0.2, a=(1.0, -1.0))
    assert best_rate(integrator, SECTOR) is None
    assert max_learning_rate(integrator, SECTOR) is None
    assert best_rate(MethodSpec("general", eta=0.1, a=(1.0, 1.0), b=(0.0, 1.0)), SECTOR) is None
    slow = MethodSpec("general", eta=0.1, a=(1.0, -0.97), b=(1.97, -0.97))
    assert best_rate(slow, SECTOR) >= 0.97


def test_common_roots_at_zero_leave_the_rate_unchanged():
    # zero weights add common roots at z = 0; they cancel exactly in |N/D|
    # and stay at 0 under rho scaling
    gd = MethodSpec("gd", eta=0.1)
    padded = MethodSpec("hgd", eta=0.1, a=(1.0, 0.0, 0.0))
    assert build_transfer(padded).den_degree == 3
    assert best_rate(padded, SECTOR) == best_rate(gd, SECTOR)


def test_best_rate_decides_stability_once_per_probe(monkeypatch):
    gain_mod = importlib.import_module("freqcert.gain")
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    schur = _count_calls(monkeypatch, gain_mod, "is_schur")
    schur += _count_calls(monkeypatch, certify_mod, "is_schur")
    assert best_rate(MethodSpec("ogd", eta=1 / 12), SECTOR) is not None
    assert len(scales) > 0
    assert len(schur) == len(scales)


def test_max_learning_rate_probes_without_certify(monkeypatch):
    ogd = MethodSpec("ogd", eta=1 / 12)
    edges = _gap_edges(ogd, SECTOR)
    certifies = _count_calls(monkeypatch, certify_mod, "certify")
    builds = _count_calls(monkeypatch, certify_mod, "build_transfer")
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    gains = _count_calls(monkeypatch, certify_mod, "hinf_norm")
    step = max_learning_rate(ogd, SECTOR)
    assert step is not None
    assert certifies == []
    # one hinf_norm per probe: the cap, whose failed probe settles the top
    # gap, the middle of each lower gap from the top down to the step's own,
    # then at least one and at most 7 rungs
    probed = sum(top > step for top in edges[1:])
    assert probed < len(gains) <= probed + 7
    assert len(builds) == 1  # K = eta K1: K1 is built once per search
    assert len(scales) == len(gains)


@pytest.mark.parametrize(
    "method, sector",
    [
        (MethodSpec("gd", eta=1.0), SectorParams(1e-9, 1.0)),
        (MethodSpec("ogd", eta=1.0), SectorParams(1e-9, 1.0)),
        (MethodSpec("hgd", eta=0.2, a=(1.0, -1.0)), SECTOR),
    ],
)
def test_max_learning_rate_gives_up_after_one_probe_per_gap(method, sector, monkeypatch):
    # nothing certifies: the search probes the cap, which settles the top
    # gap, and the middle of each gap below the last touch under the cap,
    # (touches below the cap) + 1 probes
    edges = _gap_edges(method, sector)
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    assert max_learning_rate(method, sector) is None
    assert len(scales) == len(edges) - 1 <= 7


def test_max_learning_rate_probes_few_gaps_on_long_horizons(monkeypatch):
    # step_margin drops the touches at which some frequency is clearly inside
    # the disk, so long horizons leave few gaps to probe. Keeping every touch,
    # this corpus took up to 20 probes per search; pruned, it takes 6
    rng = np.random.default_rng(19)
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    most = 0
    for i in range(20):
        n = int(rng.integers(6, 13))
        eta = float(rng.uniform(0.02, 0.3))
        a = tuple(map(float, rng.dirichlet(np.ones(n))))
        if i % 2:
            b = tuple(map(float, rng.dirichlet(np.ones(n))))
            method = MethodSpec("general", eta=eta, a=a, b=b)
        else:
            method = MethodSpec("hgd", eta=eta, a=a)
        for delta in (0.0, 0.04, 0.1):
            scales.clear()
            max_learning_rate(method, SectorParams(0.5, 4.0, delta))
            most = max(most, len(scales))
    assert most <= 6


@pytest.mark.parametrize("delta", [0.0, 0.04])
def test_max_learning_rate_is_the_largest_certified_step(delta, family_corpus):
    # no step certifies above the returned one: not the cap, and not at a
    # quarter, the middle or three quarters of any gap above it
    sector = SectorParams(mu=0.5, L=4.0, delta=delta)
    checked = 0
    for method, allow in family_corpus(1):
        if method.eta is None:
            continue
        step = max_learning_rate(method, sector, allow_improper=allow)
        certifiable = _step_probe(method, sector)
        edges = _gap_edges(method, sector)
        if step != edges[-1]:
            assert not certifiable(edges[-1]), (method, step)
        for lo, top in zip(edges, edges[1:]):
            if step is not None and lo < step:
                continue
            for frac in (0.25, 0.5, 0.75):
                assert not certifiable(lo + frac * (top - lo)), (method, step, lo, top)
                checked += 1
    assert checked > 50


@pytest.mark.parametrize(
    "method, step",
    [
        (MethodSpec("gd", eta=0.1), 0.49999961210918165),
        (MethodSpec("ogd", eta=0.1), 0.16666640235493646),
        (MethodSpec("pegd", eta=0.1), 0.16666640235493646),
    ],
)
def test_max_learning_rate_falls_back_to_bisection_when_every_rung_fails(
    monkeypatch, method, step
):
    # touches moved up by a relative 1e-5 put every rung, at most 2.6e-7
    # below its edge, above the exact step: each fails, and the search
    # bisects between the gap's middle and the last rung to width 1e-6 / L
    exact = max_learning_rate(method, SECTOR)
    monkeypatch.setattr(certify_mod, "step_margin",
                        lambda *args: [e * (1.0 + 1e-5) for e in step_margin(*args)])
    bisections = _count_calls(monkeypatch, certify_mod, "_bisect")
    probed = []
    certified_at = certify_mod._certified_at

    def recorded(shifted, *args):
        probed.append(shifted.num)
        return certified_at(shifted, *args)

    monkeypatch.setattr(certify_mod, "_certified_at", recorded)
    got = max_learning_rate(method, SECTOR)
    assert got == step
    assert len(bisections) == 1
    # the fallback's stop is the gap middle the walk saw certify: no step is
    # probed twice
    assert len(set(probed)) == len(probed)
    assert _certifies(replace(method, eta=got), SECTOR, RHO_PROBE, False)
    assert 0.0 < exact - got <= 1e-6 / SECTOR.L


def test_max_learning_rate_needs_a_step_size_field():
    with pytest.raises(ValueError, match="^method family must carry a learning-rate field$"):
        max_learning_rate(MethodSpec("gogd", alpha=0.1, beta=0.05), SECTOR)


def test_best_rate_rejects_an_improper_loop_before_the_level_set(monkeypatch):
    # pp's K is not strictly proper: without the flag the search returns
    # None before it reads the level set or makes a probe
    radii = _count_calls(monkeypatch, certify_mod, "level_radius")
    probes = _count_calls(monkeypatch, certify_mod, "_certified_at")
    assert best_rate(MethodSpec("pp", eta=0.1), SECTOR) is None
    assert radii == [] and probes == []
    assert best_rate(MethodSpec("pp", eta=0.1), SECTOR, allow_improper=True) is not None
    assert len(radii) == 1 and len(probes) == 1


def test_max_learning_rate_returns_the_pp_cap_after_one_probe(monkeypatch):
    # the implicit step certifies at every step size, so at the cap 4/mu
    gains = _count_calls(monkeypatch, certify_mod, "hinf_norm")
    assert max_learning_rate(MethodSpec("pp", eta=0.1), SECTOR, allow_improper=True) == 8.0
    assert len(gains) == 1


def test_max_learning_rate_rejects_an_improper_template_at_the_cap(monkeypatch):
    # properness does not depend on eta, so the first probe decides it
    builds = _count_calls(monkeypatch, certify_mod, "build_transfer")
    gains = _count_calls(monkeypatch, certify_mod, "hinf_norm")
    assert max_learning_rate(MethodSpec("pp", eta=0.1), SECTOR) is None
    assert len(builds) == 1
    assert gains == []


@pytest.mark.parametrize("delta", [0.0, 0.04])
def test_search_results_certify(delta, family_corpus):
    # the rate best_rate returns certifies at that rate and, above the first
    # probe RHO_TOL, not at rate - RHO_TOL; the step size max_learning_rate
    # returns certifies at the rate it probes
    sector = SectorParams(mu=0.5, L=4.0, delta=delta)
    rated, tight, stepped = set(), set(), set()
    for method, allow in family_corpus(5):
        rho = best_rate(method, sector, allow_improper=allow)
        if rho is not None:
            res = certify(CertificationQuery(method, sector, rho, allow))
            assert res.certified, (method, rho, res.diagnostics)
            rated.add(method.family)
            if rho > RHO_TOL:
                below = certify(CertificationQuery(method, sector, rho - RHO_TOL, allow))
                assert not below.certified, (method, rho, below.diagnostics)
                tight.add(method.family)
        if method.eta is None:
            continue
        eta = max_learning_rate(method, sector, allow_improper=allow)
        if eta is not None:
            step = replace(method, eta=eta)
            res = certify(CertificationQuery(step, sector, RHO_PROBE, allow))
            assert res.certified, (step, res.diagnostics)
            stepped.add(method.family)
    assert len(rated) == len(tight) == 9
    assert stepped == {"gd", "ogd", "pp", "hgd", "general", "pegd", "rgd"}


@pytest.mark.parametrize("delta", [0.0, 0.04])
def test_certification_is_monotone_above_best_rate(delta, family_corpus):
    # best_rate's bisection relies on this; see its docstring for the proof
    sector = SectorParams(mu=0.5, L=4.0, delta=delta)
    families = set()
    for method, allow in family_corpus(5):
        rho = best_rate(method, sector, allow_improper=allow)
        if rho is None:
            continue
        families.add(method.family)
        for frac in np.linspace(0.0, 1.0, 7)[1:-1]:
            probe = rho + (RHO_PROBE - rho) * frac
            res = certify(CertificationQuery(method, sector, probe, allow))
            assert res.certified, (method, probe, res.diagnostics)
    assert len(families) == 9


def test_is_schur_matches_the_recursion_on_a_rho_ladder(schur_recursion, family_corpus):
    # every shifted loop of all nine families, scaled over a fixed ladder of
    # rates and at rates within 1e-6 of its best rate, where its scaled poles
    # come closest to the unit circle
    checked = disagree = 0
    for delta in (0.0, 0.04):
        sector = SectorParams(mu=0.5, L=4.0, delta=delta)
        for method, allow in family_corpus(5):
            shifted = _shifted_loop(method, sector)[1]
            ladder = list(np.linspace(0.05, RHO_PROBE, 16))
            rate = best_rate(method, sector, allow_improper=allow)
            if rate is not None:
                ladder += [rate + d for d in (-1e-6, -1e-7, -1e-9, 0.0, 1e-9, 1e-7, 1e-6)]
            for rho in ladder:
                den = rho_scale(shifted, rho).den
                if abs(spectral_radius_poly(den) - 1.0) <= MARGINAL_ROOT_BAND:
                    continue
                checked += 1
                disagree += is_schur(den) != schur_recursion(den)
    assert checked > 500
    assert disagree == 0


def _bisected_rate(method, sector, allow):
    # the search best_rate ran before it read rho* off the level set
    k, shifted = _shifted_loop(method, sector)
    if not (k.strictly_proper or allow):
        return None
    threshold = gain_threshold(sector)

    def certified(rho):
        return _certified_at(shifted, rho, threshold)[0]

    if not certified(RHO_PROBE):
        return None
    if certified(RHO_TOL):
        return RHO_TOL
    return _bisect(certified, RHO_PROBE, RHO_TOL, RHO_TOL)


def _certifies(method, sector, rho, allow):
    return certify(CertificationQuery(method, sector, rho, allow)).certified


def _step_probe(method, sector):
    # max_learning_rate's probe of a step size: eta K1, shifted, at RHO_PROBE
    unit = build_transfer(replace(method, eta=1.0))
    h, threshold = (sector.mu + sector.L) / 2.0, gain_threshold(sector)

    def certifiable(eta):
        k = RationalTF(tuple(eta * c for c in unit.num), unit.den)
        return _certified_at(complementary_sensitivity(k, h), RHO_PROBE, threshold)[0]

    return certifiable


def _gap_edges(method, sector):
    # 0, the touches step_margin finds below the cap 4/mu, and the cap: the
    # edges of the gaps max_learning_rate probes
    cap = min(4.0 / sector.mu, sys.float_info.max)
    unit = build_transfer(replace(method, eta=1.0))
    h, r = (sector.mu + sector.L) / 2.0, 1.0 / gain_threshold(sector)
    return [0.0, *(e for e in step_margin(unit, RHO_PROBE, h, r) if e < cap), cap]


def _halving_bracket(certifiable, sector):
    # the cap 4/mu, then halvings: the first certified step (None if there is
    # none), the uncertified step probed before it, and the number of probes
    bad = eta = min(4.0 / sector.mu, sys.float_info.max)
    for probes in range(1, 82):
        if certifiable(eta):
            return eta, bad, probes
        bad, eta = eta, eta / 2.0
    return None, bad, 81


def _bisected_step(method, sector, allow):
    # the search max_learning_rate ran before it solved for the step
    if not (build_transfer(method).strictly_proper or allow):
        return None
    certifiable = _step_probe(method, sector)
    eta, bad, _ = _halving_bracket(certifiable, sector)
    return None if eta is None else _bisect(certifiable, eta, bad, 1e-6 / sector.L)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_max_learning_rate_lies_within_the_bisection_width_above_it(seed, family_corpus):
    # the step certifies and lies in [bisected, bisected + 1e-6 / L]: the
    # bisection ends below the exact step, the ladder's first rung just below it
    stepped = set()
    for delta in (0.0, 0.04, 0.1):
        sector = SectorParams(mu=0.5, L=4.0, delta=delta)
        for method, allow in family_corpus(seed):
            if method.eta is None:
                continue
            step = max_learning_rate(method, sector, allow_improper=allow)
            bisected = _bisected_step(method, sector, allow)
            assert (step is None) == (bisected is None), (method, delta)
            if step is None:
                continue
            stepped.add(method.family)
            assert bisected <= step <= bisected + 1e-6 / sector.L, (method, delta, step, bisected)
            assert _certifies(replace(method, eta=step), sector, RHO_PROBE, allow), (method, step)
    assert stepped == {"gd", "ogd", "pp", "hgd", "general", "pegd", "rgd"}


def test_bisect_stops_where_the_floats_run_out():
    # near 1e307 adjacent floats lie ~2e291 apart, far above the width: the
    # midpoint rounds to an end of the bracket, which then stops halving
    good = _bisect(lambda m: m <= 1.1e307, 1e307, 1.2e307, 1e-7)
    assert good <= 1.1e307 < np.nextafter(good, np.inf)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_best_rate_lies_within_the_bisection_width_below_it(seed, family_corpus):
    # the rate certifies, lies in [bisected - RHO_TOL, bisected], and 1e-9
    # below it nothing certifies: it is rho* up to the first rung of the ladder
    rated = 0
    for delta in (0.0, 0.04):
        sector = SectorParams(mu=0.5, L=4.0, delta=delta)
        for method, allow in family_corpus(seed):
            rate = best_rate(method, sector, allow_improper=allow)
            bisected = _bisected_rate(method, sector, allow)
            assert (rate is None) == (bisected is None), (method, delta)
            if rate is None:
                continue
            rated += 1
            assert _certifies(method, sector, rate, allow), (method, delta, rate)
            assert bisected - RHO_TOL <= rate <= bisected, (method, delta, rate, bisected)
            assert not _certifies(method, sector, rate - 1e-9, allow), (method, delta, rate)
    assert rated >= 30


def test_a_certified_search_makes_one_probe(monkeypatch, family_corpus):
    # the level set capped at RHO_PROBE decides the search: a certified one
    # probes the first rung of the ladder, and one whose level set reaches
    # RHO_PROBE makes no probe
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    counts = {True: set(), False: set()}
    for delta in (0.0, 0.04):
        sector = SectorParams(mu=0.5, L=4.0, delta=delta)
        for method, allow in family_corpus(5) + [(MethodSpec("hgd", eta=0.2, a=(1.0, -1.0)), False)]:
            scales.clear()
            rate = best_rate(method, sector, allow_improper=allow)
            counts[rate is not None].add(len(scales))
    assert counts == {True: {1}, False: {0}}


def test_a_loop_beyond_the_float_range_is_uncertified_without_a_probe(monkeypatch):
    # h eta overflows in den - h num; every probe of that loop would leave
    # the float range
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    assert best_rate(MethodSpec("gd", eta=1e300), SectorParams(0.5, 1e10)) is None
    assert scales == []


@pytest.mark.parametrize("delta", [0.0, 0.04])
def test_a_level_radius_too_low_falls_back_to_bisection(monkeypatch, delta, family_corpus):
    # with rho* halved every rung of the ladder is uncertified; the bisection
    # between the last rung and RHO_PROBE still returns a certified, tight rate
    level_radius = certify_mod.level_radius
    monkeypatch.setattr(certify_mod, "level_radius",
                        lambda k, gamma, cap: 0.5 * level_radius(k, gamma, cap))
    bisections = _count_calls(monkeypatch, certify_mod, "_bisect")
    sector = SectorParams(mu=0.5, L=4.0, delta=delta)
    rated = 0
    for method, allow in family_corpus(5):
        rate = best_rate(method, sector, allow_improper=allow)
        if rate is None:
            continue
        rated += 1
        assert _certifies(method, sector, rate, allow), (method, rate)
        if rate > RHO_TOL:
            assert not _certifies(method, sector, rate - RHO_TOL, allow), (method, rate)
    assert len(bisections) == rated > 0


@pytest.mark.parametrize("eta", [0.05, 0.2, 0.3, 0.4])
def test_level_radius_reads_the_closed_form_rates(eta):
    # gd's rate max|1 - eta lambda| over the sector ends, and pp's 1/(1 + mu eta)
    threshold = gain_threshold(SECTOR)
    gd = _shifted_loop(MethodSpec("gd", eta=eta), SECTOR)[1]
    assert_allclose(level_radius(gd, threshold), max(1 - 0.5 * eta, 4 * eta - 1), rtol=1e-14)
    pp = _shifted_loop(MethodSpec("pp", eta=eta), SECTOR)[1]
    assert_allclose(level_radius(pp, threshold), 1 / (1 + 0.5 * eta), rtol=1e-14)
    for c in (2.0**-1000, 2.0**1000):  # a power of two, scaled exactly
        scaled = RationalTF(tuple(v * c for v in gd.num), gd.den)
        assert level_radius(scaled, threshold * c) == level_radius(gd, threshold)


@pytest.mark.parametrize("delta", [0.0, 0.04])
def test_a_capped_level_radius_is_the_uncapped_one_below_the_cap(delta, family_corpus):
    # bit for bit below the cap; at or above it, some r >= cap
    sector = SectorParams(mu=0.5, L=4.0, delta=delta)
    threshold = gain_threshold(sector)
    below = above = 0
    for seed in range(1, 6):
        for method, _ in family_corpus(seed):
            shifted = _shifted_loop(method, sector)[1]
            rho = level_radius(shifted, threshold)
            for cap in (0.5, 0.9, rho, np.nextafter(rho, np.inf), RHO_PROBE):
                capped = level_radius(shifted, threshold, cap=cap)
                if rho < cap:
                    assert capped == rho, (method, cap)
                    below += 1
                else:
                    assert cap <= capped <= rho, (method, cap)
                    above += 1
    assert below > 100 and above > 100


def test_a_capped_level_radius_stops_in_the_pass_that_reaches_the_cap(monkeypatch):
    # one Chebyshev root call per circle pass: the uncapped search confirms
    # rho* in a second pass, a cap just past the poles ends it in the first,
    # and a cap at the poles before any
    threshold = gain_threshold(SECTOR)
    shifted = _shifted_loop(MethodSpec("ogd", eta=1 / 12), SECTOR)[1]
    passes = _count_calls(monkeypatch, np.polynomial.chebyshev, "chebroots")
    rho = level_radius(shifted, threshold)
    assert len(passes) == 2
    poles = spectral_radius_poly(shifted.den)
    passes.clear()
    assert level_radius(shifted, threshold, cap=poles) == poles and passes == []
    cap = poles + (rho - poles) * 1e-3
    assert cap <= level_radius(shifted, threshold, cap=cap) < rho and len(passes) == 1


def test_rungs_clipped_to_rho_probe_probe_it_once(monkeypatch):
    # gd at eta = 0.6 certifies at no rate (rho* = 4 eta - 1 = 1.4); with rho*
    # put 1e-9 below RHO_PROBE, rungs 4 .. 6 would reach RHO_PROBE and are
    # dropped: four rungs below it, then the fallback's one probe at it
    monkeypatch.setattr(certify_mod, "level_radius", lambda k, gamma, cap: RHO_PROBE * (1.0 - 1e-9))
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    assert best_rate(MethodSpec("gd", eta=0.6), SECTOR) is None
    assert len(scales) == 5


def test_an_empty_ladder_leaves_rho_probe_to_the_fallback(monkeypatch):
    # with rho* put 1e-13 below RHO_PROBE no rung lies below it; gd at
    # eta = 0.2 certifies there, and the bracket from rho* is already closed
    monkeypatch.setattr(certify_mod, "level_radius", lambda k, gamma, cap: RHO_PROBE * (1.0 - 1e-13))
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    assert best_rate(MethodSpec("gd", eta=0.2), SECTOR) == RHO_PROBE
    assert best_rate(MethodSpec("gd", eta=0.6), SECTOR) is None
    assert len(scales) == 2


def test_a_failed_first_rung_climbs_the_ladder(monkeypatch):
    # a seeded hgd whose rho* = 0.99984995451245 rounds so that the first rung,
    # rho* (1 + 1e-12), fails its probe; the second, rho* (1 + 8e-12), wins
    method = MethodSpec("hgd", eta=0.0016600926188407817, a=(0.6955280707910088, 0.9775755344270118))
    sector = SectorParams(0.06882932127532751, 0.09471673800101121, 0.15638646544621385)
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    rate = best_rate(method, sector)
    assert rate == 0.9998499545204501
    assert len(scales) == 2
    rho = level_radius(_shifted_loop(method, sector)[1], gain_threshold(sector))
    assert _certifies(method, sector, rate, False)
    assert not _certifies(method, sector, rho * (1.0 + 1e-12), False)


def test_coefficient_maps_find_no_roots(monkeypatch):
    k = build_transfer(MethodSpec("hgd", eta=0.1, a=(0.5, 0.3, 0.2)))
    root_calls = _count_calls(monkeypatch, np, "roots")
    shifted = complementary_sensitivity(k, 2.25)
    for rho in (1e-6, 0.5, RHO_PROBE):
        rho_scale(shifted, rho)
    assert root_calls == []


def test_a_large_lower_degree_numerator_leaves_the_loop_well_posed():
    # num has lower degree than den, so den - h num keeps den's leading 1
    # however large num is, and the loop is well posed
    rho = best_rate(MethodSpec("hgd", eta=0.1, a=(1.0, 1e15)), SECTOR)
    k, shifted = _shifted_loop(MethodSpec("hgd", eta=0.1, a=(1.0, 1e15)), SECTOR)
    assert shifted.den[-1] == 1.0 and len(shifted.den) == len(k.den)
    radius = spectral_radius_poly(shifted.den)
    assert rho is None or rho >= radius


def test_a_cancelled_improper_lead_still_raises():
    # pid with kp + kd = -1/h: 1 - h K(inf) = 1 + h (kp + kd) = 0
    with pytest.raises(ValueError, match="well posed"):
        best_rate(MethodSpec("pid", kp=0.1, ki=0.1, kd=-0.5), SectorParams(1.0, 4.0),
                  allow_improper=True)
    # pp has K(inf) = -eta, which a shift of -1/eta cancels
    with pytest.raises(ValueError, match="well posed"):
        complementary_sensitivity(build_transfer(MethodSpec("pp", eta=0.5)), -2.0)


def _extreme_specs(rng, per_family):
    """Specs of all nine families whose step sizes and weights are drawn
    log-uniformly from [1e-12, 1e12], weights and kd with random signs."""
    mag = lambda: float(np.exp(rng.uniform(np.log(1e-12), np.log(1e12))))
    signed = lambda: mag() * float(rng.choice((-1.0, 1.0)))
    out = []
    for _ in range(per_family):
        n = int(rng.integers(1, 5))
        b = np.array([mag() for _ in range(n)])
        out += [
            MethodSpec("gd", eta=mag()),
            MethodSpec("ogd", eta=mag()),
            MethodSpec("gogd", alpha=mag(), beta=mag()),
            MethodSpec("pp", eta=mag()),
            MethodSpec("pid", kp=mag(), ki=mag(), kd=signed()),
            MethodSpec("hgd", eta=mag(), a=tuple(signed() for _ in range(n))),
            MethodSpec("general", eta=mag(), a=tuple(signed() for _ in range(n)),
                       b=tuple(b / b.sum())),
            MethodSpec("pegd", eta=mag()),
            MethodSpec("rgd", eta=mag()),
        ]
    return out


def _shifted_pole_radius(method, sector):
    # roots of den - h num, computed apart from the pipeline's coefficient maps
    k = build_transfer(method)
    den = np.array(k.den)
    den[: len(k.num)] -= (sector.mu + sector.L) / 2.0 * np.array(k.num)
    return float(np.max(np.abs(np.roots(den[::-1]))))


def test_searches_survive_extreme_scales():
    rng = np.random.default_rng(7)
    specs = _extreme_specs(rng, 30)
    certified = 0
    for i, method in enumerate(specs):
        mu = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
        L = mu * float(np.exp(rng.uniform(np.log(1.5), np.log(1e3))))
        sector = SectorParams(mu, L, float(rng.uniform(0.0, 0.05)))
        rates = [best_rate(method, sector, allow_improper=True)]
        if certify(CertificationQuery(method, sector, 0.99, True)).certified:
            rates.append(0.99)
        for rho in rates:
            if rho is not None:
                assert rho >= _shifted_pole_radius(method, sector), (method, sector, rho)
                certified += 1
        if method.eta is not None and i % 2 == 0:
            eta = max_learning_rate(method, sector, allow_improper=True)
            if eta is not None:
                step = replace(method, eta=eta)
                assert RHO_PROBE >= _shifted_pole_radius(step, sector), (step, sector)
    assert len(specs) == 270 and certified > 20


def test_a_negligible_leading_weight_gets_no_false_certificate():
    # the 1e-77 weight leaves the gain's slope series a leading coefficient
    # about 1e-75 of its largest; chebroots on the untrimmed series lost every
    # root in [-1, 1], and the gain read 0.000999755 below the threshold
    # 0.00100025. At 50 digits it is 0.00124304, at omega = 0.304, and the
    # largest step that certifies at RHO_PROBE is 0.00332954530957125...
    method = MethodSpec("general", eta=0.0045, a=(0, 0, 0, 0.072, 1e-77), b=(0.5, 0.5, 0, 0, 0))
    sector = SectorParams(0.5, 2000.0)
    res = certify(CertificationQuery(method, sector, RHO_PROBE))
    assert not res.certified and res.gain > 1.2 * res.threshold
    assert best_rate(method, sector) is None
    exact = 0.0033295453095712
    assert exact * (1.0 - 2.6e-7) <= max_learning_rate(method, sector) <= exact


def test_a_subnormal_leading_weight_leaves_the_searches_well_posed():
    # a = (0.6, 1e-310) put 1/1e-310 = inf into chebroots' companion matrix,
    # and both searches raised LinAlgError; 1e-300 was already fine
    method, sector = MethodSpec("hgd", eta=0.5, a=(0.6, 1e-310)), SectorParams(0.5, 4.0)
    near = replace(method, a=(0.6, 1e-300))
    assert best_rate(method, sector) == best_rate(near, sector) is not None
    assert max_learning_rate(method, sector) == max_learning_rate(near, sector) is not None


def test_a_scaled_gamma_beyond_the_float_range_leaves_the_level_set_at_the_poles():
    # the numerator 1e-200 scaled to 1 takes gamma to about 1e200, whose
    # square overflows; the level set then lies within rounding of the poles
    method, sector = MethodSpec("hgd", eta=0.01, a=(1e-200,)), SectorParams(0.5, 4.0)
    shifted = _shifted_loop(method, sector)[1]
    assert level_radius(shifted, gain_threshold(sector)) == spectral_radius_poly(shifted.den)
    assert best_rate(method, sector) is None


def test_searches_are_scale_free(family_corpus):
    # the sector scaled by c = 2^k and every step field by 1/c leave every
    # probe's decision unchanged, and power-of-two scaling is exact
    rng = np.random.default_rng(11)
    steps = ("eta", "alpha", "beta", "kp", "ki", "kd")
    for method, allow in family_corpus(5):
        base = SectorParams(0.5, 4.0, 0.01)
        rate = best_rate(method, base, allow)
        eta = max_learning_rate(method, base, allow) if method.eta is not None else None
        for k in (-1000, 1000, int(rng.integers(-1000, 1001))):
            c = 2.0 ** k
            scaled = replace(method, **{
                f: getattr(method, f) / c for f in steps if getattr(method, f) is not None
            })
            sector = SectorParams(0.5 * c, 4.0 * c, 0.01)
            assert best_rate(scaled, sector, allow) == rate, (method, k)
            if eta is not None:
                assert max_learning_rate(scaled, sector, allow) * c == eta, (method, k)


def test_a_probe_beyond_the_float_range_is_uncertified():
    # rho^-n leaves the float range once n log10(1/rho) > 308; at the RHO_TOL
    # probe that is from horizon 52 on, where best_rate used to raise. gd's
    # exact rate is 0.9; the search returns the first rung above it
    gd = best_rate(MethodSpec("gd", eta=0.2), SECTOR)
    assert gd == 0.9000000000009002
    assert 0.9 < gd < 0.9 + 1e-9
    for n in (2, 51, 52, 120):
        assert best_rate(MethodSpec("hgd", eta=0.2, a=(1.0,) + (0.0,) * (n - 1)), SECTOR) == gd
    hgd3 = MethodSpec("hgd", eta=0.2, a=(1.0, 0.0, 0.0))
    result = certify(CertificationQuery(hgd3, SECTOR, 1e-110))
    assert not result.certified and not result.stable_ok and result.gain is None
    assert result.diagnostics == "scaled loop leaves the float range at rho=1e-110"
    with pytest.raises(OverflowError, match="leaves the float range"):
        frequency_response(hgd3, SECTOR, rho=1e-110)


def test_max_learning_rate_on_sectors_near_the_float_limits():
    # the cap 4/mu overflows on a subnormal mu; on ogd at mu = 3e-308 the cap
    # is finite but its probe overflows. Nothing certifies at RHO_PROBE with
    # L/mu that large, and probes beyond the float range count as uncertified
    assert max_learning_rate(MethodSpec("gd", eta=1.0), SectorParams(1e-310, 1.0)) is None
    assert max_learning_rate(MethodSpec("ogd", eta=1.0), SectorParams(3e-308, 1.0)) is None
    # h eta K1 overflows in the improper pp loop; that is no cancellation
    pp = MethodSpec("pp", eta=1.0)
    assert max_learning_rate(pp, SectorParams(3e-308, 10.0), allow_improper=True) is None


def test_a_linear_algebra_failure_still_propagates(monkeypatch):
    # only instability and overflow make a probe uncertified
    def failing(k):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(certify_mod, "hinf_norm", failing)
    with pytest.raises(np.linalg.LinAlgError):
        certify(CertificationQuery(MethodSpec("gd", eta=0.2), SECTOR, 0.95))
