import importlib
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
    _shifted_loop,
)
from freqcert.gain import hinf_norm
from freqcert.operators import SectorParams
from freqcert.stability import (
    MARGINAL_ROOT_BAND,
    Polynomial,
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
    bound = 1.0 - (2.0 / 3.0) * eps * (1.0 - eps) * SECTOR.kappa_inv
    got = best_rate(MethodSpec("ogd", eta=eta), SECTOR)
    assert got <= bound + 1e-4


def test_best_rate_uncertifiable():
    assert best_rate(MethodSpec("ogd", eta=0.7 / 4.0), SECTOR) is None


def test_max_learning_rate_ogd_tightness():
    sector = SectorParams(mu=1e-3, L=3.0)
    got = max_learning_rate(MethodSpec("ogd", eta=1.0), sector)
    assert 0.95 * (2 / 9) <= got <= 2 / 9


def test_max_learning_rate_hgd_matches_ogd():
    sector = SectorParams(mu=1e-3, L=3.0)
    ogd = max_learning_rate(MethodSpec("ogd", eta=1.0), sector)
    hgd = max_learning_rate(MethodSpec("hgd", eta=1.0, a=(2.0, -1.0)), sector)
    assert_allclose(hgd, ogd, atol=1e-5)


def test_max_learning_rate_gd_covers_the_tuned_point():
    got = max_learning_rate(MethodSpec("gd", eta=1.0), SECTOR)
    assert got >= 2 / 4.5
    # classical stability boundary 2/L for the plain gradient step
    assert_allclose(got, 2.0 / SECTOR.L, atol=1e-4)


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


def _shifted_pole_radius(method, sector):
    # poles of K/(1 - hK) straight from the build_transfer coefficients
    k = build_transfer(method)
    den = np.array(k.den)
    den[: len(k.num)] -= (sector.mu + sector.L) / 2.0 * np.asarray(k.num)
    return float(np.max(np.abs(np.roots(den[::-1]))))


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
    certifies = _count_calls(monkeypatch, certify_mod, "certify")
    builds = _count_calls(monkeypatch, certify_mod, "build_transfer")
    scales = _count_calls(monkeypatch, certify_mod, "rho_scale")
    gains = _count_calls(monkeypatch, certify_mod, "hinf_norm")
    assert max_learning_rate(MethodSpec("ogd", eta=1 / 12), SECTOR) is not None
    assert certifies == []
    assert len(gains) > 20  # one hinf_norm per probe
    assert len(builds) == len(scales) == len(gains)


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


def test_is_schur_matches_the_recursion_on_bisection_probes(
    monkeypatch, schur_recursion, family_corpus
):
    # every scaled denominator a best_rate search visits, over all nine families
    loops = []
    scale = certify_mod.rho_scale

    def recorded(tf, rho):
        loops.append(scale(tf, rho))
        return loops[-1]

    monkeypatch.setattr(certify_mod, "rho_scale", recorded)
    for delta in (0.0, 0.04):
        sector = SectorParams(mu=0.5, L=4.0, delta=delta)
        for method, allow in family_corpus(5):
            best_rate(method, sector, allow_improper=allow)
    checked = disagree = 0
    for loop in loops:
        den = Polynomial(loop.den)
        if den.degree < 1 or abs(spectral_radius_poly(den) - 1.0) <= MARGINAL_ROOT_BAND:
            continue
        checked += 1
        disagree += is_schur(den) != schur_recursion(den)
    assert checked > 500
    assert disagree == 0


def test_coefficient_maps_find_no_roots(monkeypatch):
    k = build_transfer(MethodSpec("hgd", eta=0.1, a=(0.5, 0.3, 0.2)))
    root_calls = _count_calls(monkeypatch, np, "roots")
    shifted = complementary_sensitivity(k, 2.25)
    for rho in (1e-6, 0.5, RHO_PROBE):
        rho_scale(shifted, rho)
    assert root_calls == []
