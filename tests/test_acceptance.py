"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Criterion 9
orders the alternating and simultaneous updates by the exact radii of their
characteristic factors. Its largest step size, eta = 0.5, lies in the
critically damped window (about s in [0.488, 0.506]) where simultaneous wins;
see the README note on the critically damped simultaneous update.
"""

import numpy as np

from freqcert.certify import (
    CertificationQuery,
    best_rate,
    certify,
    gain_threshold,
    max_learning_rate,
)
from freqcert.dynamics import NoiseAdversary, Trajectory, estimate_rate, run
from freqcert.gain import cos_power_profile, hinf_norm
from freqcert.games import BilinearGame, alt_char_poly, bilinear_threshold, sim_char_poly
from freqcert.operators import (
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
from freqcert.stability import (
    MARGINAL_ROOT_BAND,
    Polynomial,
    is_schur,
    spectral_radius_poly,
)
from freqcert.transfer import (
    MethodSpec,
    build_transfer,
    complementary_sensitivity,
    rho_scale,
    tf_equal,
)

SECTOR = SectorParams(mu=0.5, L=4.0)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _coeffs_match(k, num, den, tol=1e-12):
    return (
        len(k.num) == len(num)
        and len(k.den) == len(den)
        and max(abs(a - b) for a, b in zip(k.num, num)) <= tol
        and max(abs(a - b) for a, b in zip(k.den, den)) <= tol
    )


def test_criterion_1_transfer_table():
    eta, alpha, beta = 0.37, 0.125, 0.0625
    kp, ki, kd = 0.21, 0.34, -0.05
    ok = True
    ok &= _coeffs_match(build_transfer(MethodSpec("gd", eta=eta)), (-eta,), (-1.0, 1.0))
    ok &= _coeffs_match(
        build_transfer(MethodSpec("ogd", eta=eta)), (eta, -2 * eta), (0.0, -1.0, 1.0)
    )
    ok &= _coeffs_match(
        build_transfer(MethodSpec("gogd", alpha=alpha, beta=beta)),
        (beta, -(alpha + beta)),
        (0.0, -1.0, 1.0),
    )
    ok &= _coeffs_match(build_transfer(MethodSpec("pp", eta=eta)), (0.0, -eta), (-1.0, 1.0))
    ok &= _coeffs_match(
        build_transfer(MethodSpec("pid", kp=kp, ki=ki, kd=kd)),
        (-kd, kp - ki + 2 * kd, -(kp + kd)),
        (0.0, -1.0, 1.0),
    )
    for fam in ("pegd", "rgd"):
        ok &= _coeffs_match(
            build_transfer(MethodSpec(fam, eta=eta)), (eta, -2 * eta), (0.0, -1.0, 1.0)
        )
    ok &= tf_equal(
        build_transfer(MethodSpec("pid", kp=beta, ki=alpha, kd=-beta)),
        build_transfer(MethodSpec("gogd", alpha=alpha, beta=beta)),
    )
    ok &= tf_equal(
        build_transfer(MethodSpec("pid", kp=eta, ki=eta, kd=0.0)),
        build_transfer(MethodSpec("pp", eta=eta)),
    )
    _report("criterion-1 transfer-table", ok)


def test_criterion_2_gd_rates():
    tuned = best_rate(MethodSpec("gd", eta=2 / 4.5), SECTOR)
    cautious = best_rate(MethodSpec("gd", eta=0.25), SECTOR)
    ok = abs(tuned - 0.77778) <= 1e-4 and abs(cautious - 0.875) <= 1e-4
    _report("criterion-2 gd-rates", ok, f"{tuned:.6f}, {cautious:.6f}")


def test_criterion_3_ogd_rate_formula():
    failures = []
    for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
        for lam in (0.05, 0.125, 0.5):
            sector = SectorParams(mu=lam * 4.0, L=4.0)
            eta = (2.0 / (3.0 * 4.0)) * (1.0 - eps)
            rho = 1.0 - (2.0 / 3.0) * eps * (1.0 - eps) * lam + 1e-3
            res = certify(CertificationQuery(MethodSpec("ogd", eta=eta), sector, rho))
            if not res.certified:
                failures.append((eps, lam))
    _report("criterion-3 ogd-rate-formula", not failures, f"failures={failures}")


def test_criterion_4_ogd_tightness():
    sector = SectorParams(mu=1e-3, L=3.0)
    eta_star = max_learning_rate(MethodSpec("ogd", eta=1.0), sector)
    region_ok = 0.95 * (2 / 9) <= eta_star <= 2 / 9

    op = scalar_noncvx()
    sim_ok = True
    for eta in (0.23, 0.25):
        t = run(MethodSpec("ogd", eta=eta), op, [0.1], 3000)
        sim_ok &= t.distances[-1] > t.distances[0]
    for eta in (0.20, 0.22):
        t = run(MethodSpec("ogd", eta=eta), op, [0.1], 5000)
        sim_ok &= (not t.diverged) and t.distances[-1] < 1e-3 * t.distances[0]
    _report(
        "criterion-4 ogd-tightness",
        region_ok and sim_ok,
        f"eta*={eta_star:.6f}, bracket={sim_ok}",
    )


def test_criterion_5_gogd_rates():
    ok = True
    for ell in (0.0, 0.5, 1.0):
        m = MethodSpec("gogd", alpha=1 / 8, beta=ell / 8)
        ok &= certify(CertificationQuery(m, SECTOR, 0.96875 + 1e-3)).certified
    for eps in (0.25, 0.5):
        m = MethodSpec("gogd", alpha=1 / 4, beta=eps / 8)
        rho = 1.0 - eps * (1.0 - eps) * 0.125 / 2.0 + 1e-3
        ok &= certify(CertificationQuery(m, SECTOR, rho)).certified
    _report("criterion-5 gogd-rates", ok)


def test_criterion_6_proximal_rates():
    rates = []
    ok = True
    for t in (0.5, 1.0, 4.0):
        eta = 2.0 * t / 4.5
        got = best_rate(MethodSpec("pp", eta=eta), SECTOR, allow_improper=True)
        expected = 4.5 / (4.5 + 2 * 0.5 * t)
        ok &= abs(got - expected) <= 1e-4
        rates.append(got)
    ok &= rates[0] > rates[1] > rates[2]
    _report("criterion-6 proximal-rates", ok, f"rates={[f'{r:.5f}' for r in rates]}")


def test_criterion_7_noise():
    ok = True
    noisy = SectorParams(mu=0.5, L=4.0, delta=0.05)
    boundary = 1.0 - 0.125 + 0.05
    ok &= certify(
        CertificationQuery(MethodSpec("gd", eta=0.25), noisy, boundary + 1e-3)
    ).certified
    ok &= not certify(
        CertificationQuery(MethodSpec("gd", eta=0.25), noisy, boundary - 1e-3)
    ).certified

    ogd_noise = SectorParams(mu=0.5, L=4.0, delta=0.5 / 12.0)  # delta = mu/(3L)
    ok &= certify(
        CertificationQuery(MethodSpec("ogd", eta=0.125), ogd_noise, 1 - 0.125 / 4 + 1e-3)
    ).certified

    thr = gain_threshold(SectorParams(mu=0.5, L=4.0, delta=0.1))
    ok &= abs(1.0 / thr - 2.15) <= 1e-12
    _report("criterion-7 noise", ok)


def test_criterion_8_bilinear_thresholds():
    def crossing_eta(mode, lam):
        factor = alt_char_poly if mode == "alt" else sim_char_poly
        lo, hi = 1e-3, None
        eta = 0.05
        while eta < 2.0:
            if spectral_radius_poly(factor(lam, eta)) > 1.0 + 1e-12:
                hi = eta
                break
            lo = eta
            eta += 0.05
        assert hi is not None
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if spectral_radius_poly(factor(lam, mid)) > 1.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(8)
    matrices = [
        [[1.0]],
        [[1.0, 0.0], [0.0, 2.0]],
        rng.uniform(-1.0, 1.0, size=(3, 3)).tolist(),
    ]
    ok = True
    worst = 0.0
    for matrix in matrices:
        game = BilinearGame.from_matrix(matrix)
        for mode in ("alt", "sim"):
            analytic = bilinear_threshold(mode, game)
            measured = min(crossing_eta(mode, lam) for lam in game.eigs_AAT)
            worst = max(worst, abs(measured - analytic))
            ok &= abs(measured - analytic) <= 1e-6

    residual = abs(alt_char_poly(1.0, 2.0 / 3.0)(-1.0))
    ok &= residual <= 1e-12
    _report(
        "criterion-8 bilinear-thresholds",
        ok,
        f"worst crossing error={worst:.2e}, residual={residual:.2e}",
    )


def test_criterion_9_alternating_empirics():
    # The time-domain form of the exact comparison: at each step size the
    # update with the smaller factor radius must also decay faster. Alternating
    # wins at the four small steps; eta = 0.5 lies in the critically damped
    # window (about s in [0.488, 0.506]) where the simultaneous quartic is
    # (z^2 - z + 1/2)^2, all multipliers at 1/sqrt(2) = 0.707, and simultaneous
    # outpaces alternating (radius 0.772).
    op = bilinear_operator([[1.0]])
    steps_for = {0.02: 2000, 0.05: 2000, 0.1: 1500, 0.25: 400, 0.5: 120}
    failures = []
    for eta, steps in steps_for.items():
        alt = run(MethodSpec("ogd", eta=eta), op, [1.0, 1.0], steps, mode="alternating")
        sim = run(MethodSpec("ogd", eta=eta), op, [1.0, 1.0], steps, mode="simultaneous")
        alt_rate, sim_rate = estimate_rate(alt), estimate_rate(sim)
        alt_radius = spectral_radius_poly(alt_char_poly(1.0, eta))
        sim_radius = spectral_radius_poly(sim_char_poly(1.0, eta))
        if alt_radius < sim_radius:
            ordered = alt_rate < sim_rate
        else:
            ordered = sim_rate < alt_rate
        if not ordered:
            failures.append(eta)
    _report("criterion-9 alternating-empirics", not failures, f"failures={failures}")


def _measured_rate(t: Trajectory) -> float:
    # restrict the fit to the informative prefix above the distance floor
    d = np.asarray(t.distances)
    keep = np.nonzero(d > 1e-12)[0]
    end = int(keep[-1]) + 1
    trimmed = Trajectory(points=t.points[:end], distances=list(d[:end]), diverged=t.diverged)
    return estimate_rate(trimmed, burn_in=min(end // 5, max(0, end - 25)))


def test_criterion_10_property_suites(schur_recursion):
    ok = True
    details = []

    # sector bounds and the shifted gain ball on 1e4 seeded pairs
    cases = [
        (scalar_noncvx(), SectorParams(1.0, 3.0)),
        (diagonal_quadratic([0.5, 1.3, 4.0]), SectorParams(0.5, 4.0)),
        (build_minmax_operator([[2.0]], [[2.0]], [[0.75]], mu=1.0), None),
    ]
    for op, sector in cases:
        sector = sector or derived_sector(op)
        pairs = sample_pairs(op.dimension, 10_000, seed=12)
        report = check_sector(op, sector, pairs)
        ok &= report.monotone_ok and report.cocoercive_ok and report.qsb_ok
        h = (sector.L + sector.mu) / 2.0
        radius = (sector.L - sector.mu) / 2.0
        fp = np.asarray(op.fixed_point)
        for x, _ in pairs[:5000]:
            lhs = np.linalg.norm(eval_operator(op, x) - h * (x - fp))
            if lhs > radius * np.linalg.norm(x - fp) + 1e-9:
                ok = False
                break
    details.append(f"sector={ok}")

    # grid maximum never exceeds the critical-point gain
    for eps in (0.2, 0.5, 0.8):
        eta = (2.0 / 12.0) * (1.0 - eps)
        loop = rho_scale(
            complementary_sensitivity(build_transfer(MethodSpec("ogd", eta=eta)), 2.25),
            0.99,
        )
        xs = np.linspace(-1, 1, 4096)
        grid_max = np.max(
            np.polynomial.chebyshev.chebval(xs, cos_power_profile(loop.num))
            / np.polynomial.chebyshev.chebval(xs, cos_power_profile(loop.den))
        )
        gain, _ = hinf_norm(loop)
        ok &= np.sqrt(grid_max) <= gain * (1 + 1e-12)
    details.append("hinf-grid ok")

    # is_schur agrees with the Schur recursion on 1e3 random polynomials
    rng = np.random.default_rng(77)
    checked = disagree = 0
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
        disagree += verdict != schur_recursion(p) or verdict != (radius < 1.0)
        checked += 1
    ok &= disagree == 0
    details.append(f"schur-dual disagreements={disagree}")

    # certified-rate soundness across methods x operators x adversaries
    eta_ogd = (2.0 / 12.0) * 0.5
    ogd_rho = 1.0 - (2.0 / 3.0) * 0.25 * 0.125 + 1e-3
    methods = [
        (MethodSpec("gd", eta=2 / 4.5), 3.5 / 4.5 + 1e-3, False),
        (MethodSpec("gd", eta=0.25), 0.875 + 1e-3, False),
        (MethodSpec("ogd", eta=eta_ogd), ogd_rho, False),
        (MethodSpec("gogd", alpha=0.125, beta=0.0625), 0.96875 + 1e-3, False),
        (MethodSpec("hgd", eta=eta_ogd, a=(2.0, -1.0)), ogd_rho, False),
        (MethodSpec("pegd", eta=eta_ogd), ogd_rho, False),
        (MethodSpec("rgd", eta=eta_ogd), ogd_rho, False),
        (MethodSpec("pp", eta=2 / 4.5), 4.5 / 5.5 + 1e-3, True),
        (MethodSpec("pid", kp=0.0625, ki=0.125, kd=-0.0625), 0.96875 + 1e-3, True),
    ]
    operators = [
        (diagonal_quadratic([0.5, 4.0]), [1.0, -1.0]),
        (diagonal_quadratic([1.0, 2.0, 3.5]), [1.0, -1.0, 0.5]),
        (scalar_noncvx(), [2.0]),
        (build_minmax_operator([[2.0]], [[2.0]], [[0.75]], mu=1.0), [1.5, -1.0]),
    ]
    worst_excess = -np.inf
    for m, rho, allow in methods:
        res = certify(CertificationQuery(m, SECTOR, rho, allow))
        ok &= res.certified
        steps = min(600, max(80, int(np.log(1e-10) / np.log(rho))))
        for op, x0 in operators:
            rate = _measured_rate(run(m, op, x0, steps))
            worst_excess = max(worst_excess, rate - rho)
            ok &= rate <= rho + 0.02

    noisy = SectorParams(mu=0.5, L=4.0, delta=0.04)
    noisy_methods = [
        (MethodSpec("gd", eta=0.25), 1 - 0.125 + 0.04 + 1e-3),
        (MethodSpec("ogd", eta=0.125), 1 - 0.125 / 4 + 1e-3),
    ]
    for m, rho in noisy_methods:
        ok &= certify(CertificationQuery(m, noisy, rho)).certified
        steps = min(600, max(80, int(np.log(1e-10) / np.log(rho))))
        for op, x0 in operators:
            for strategy in ("none", "scale_up", "scale_down", "rotate", "random"):
                adv = NoiseAdversary(strategy, 0.04, seed=13)
                rate = _measured_rate(run(m, op, x0, steps, adversary=adv))
                worst_excess = max(worst_excess, rate - rho)
                ok &= rate <= rho + 0.02
    details.append(f"soundness worst excess={worst_excess:.4f}")

    _report("criterion-10 property-suites", ok, "; ".join(details))
