import numpy as np
import pytest
from numpy.testing import assert_allclose

from freqcert.dynamics import (
    NoiseAdversary,
    Trajectory,
    apply_noise,
    estimate_rate,
    run,
)
from freqcert.operators import (
    bilinear_operator,
    diagonal_quadratic,
    eval_operator,
    scalar_noncvx,
)
from freqcert.transfer import MethodSpec, build_transfer


def test_gd_contracts_at_the_equalized_rate():
    op = diagonal_quadratic([0.5, 4.0])
    t = run(MethodSpec("gd", eta=2 / 4.5), op, [1.0, 1.0], 100)
    assert not t.diverged
    assert_allclose(estimate_rate(t), 3.5 / 4.5, atol=1e-6)
    # every step contracts by exactly |1 - eta s| = 7/9 in both coordinates
    ratios = np.asarray(t.distances[1:]) / np.asarray(t.distances[:-1])
    assert_allclose(ratios, 3.5 / 4.5, rtol=1e-12)


def test_optimistic_step_size_bracket_on_the_scalar_operator():
    op = scalar_noncvx()
    for eta in (0.23, 0.25, 0.30):
        t = run(MethodSpec("ogd", eta=eta), op, [0.1], 3000)
        assert t.distances[-1] > t.distances[0], eta  # never settles
    for eta in (0.18, 0.20, 0.22):
        t = run(MethodSpec("ogd", eta=eta), op, [0.1], 5000)
        assert not t.diverged
        assert t.distances[-1] < 1e-3 * t.distances[0], eta


def test_alternating_beats_simultaneous_at_small_steps():
    op = bilinear_operator([[1.0]])
    alt = run(MethodSpec("ogd", eta=0.1), op, [1.0, 1.0], 2000, mode="alternating")
    sim = run(MethodSpec("ogd", eta=0.1), op, [1.0, 1.0], 2000, mode="simultaneous")
    assert not alt.diverged and not sim.diverged
    assert estimate_rate(alt) < estimate_rate(sim)
    assert alt.distances[-1] < sim.distances[-1]


def test_both_update_orders_converge_at_eta_half():
    # eta = 0.5 sits below both stability thresholds (2/3 and 1/sqrt(3));
    # the simultaneous order is critically damped here and actually decays
    # faster, so only convergence itself is asserted
    op = bilinear_operator([[1.0]])
    for mode in ("alternating", "simultaneous"):
        t = run(MethodSpec("ogd", eta=0.5), op, [1.0, 1.0], 2000, mode=mode)
        assert not t.diverged
        assert t.distances[-1] < 1e-12


def test_alternating_mode_requires_a_bilinear_operator():
    with pytest.raises(ValueError):
        run(MethodSpec("ogd", eta=0.1), scalar_noncvx(), [0.1], 10, mode="alternating")


def test_estimate_rate_exact_geometric_input():
    dists = [0.9**k for k in range(200)]
    t = Trajectory(points=[np.zeros(1)] * 200, distances=dists, diverged=False)
    assert_allclose(estimate_rate(t), 0.9, atol=1e-12)


def test_estimate_rate_rejects_diverged_and_short_inputs():
    t = Trajectory(points=[], distances=[1.0, 2.0], diverged=True)
    with pytest.raises(ValueError):
        estimate_rate(t)
    flat = Trajectory(
        points=[], distances=[1e-15] * 100, diverged=False
    )
    with pytest.raises(ValueError, match="insufficient"):
        estimate_rate(flat)


def test_apply_noise_strategies():
    adv = NoiseAdversary("none", 0.5)
    assert_allclose(apply_noise(adv, [2.0, 0.0], 0), [2.0, 0.0])
    adv = NoiseAdversary("scale_down", 0.1)
    assert_allclose(apply_noise(adv, [2.0, 0.0], 0), [1.8, 0.0])
    adv = NoiseAdversary("scale_up", 0.1)
    assert_allclose(apply_noise(adv, [2.0, 0.0], 0), [2.2, 0.0])
    adv = NoiseAdversary("rotate", 0.1)
    assert_allclose(apply_noise(adv, [2.0, 0.0], 0), [2.0, 0.2])


def test_noise_magnitude_is_exactly_relative():
    rng = np.random.default_rng(3)
    for strategy in ("scale_up", "scale_down", "rotate", "random"):
        adv = NoiseAdversary(strategy, 0.3, seed=11)
        for k in range(50):
            v = rng.uniform(-5, 5, size=3)
            r = apply_noise(adv, v, k) - v
            assert np.linalg.norm(r) <= 0.3 * np.linalg.norm(v) + 1e-12
            if strategy in ("rotate", "random"):
                assert_allclose(np.linalg.norm(r), 0.3 * np.linalg.norm(v), rtol=1e-12)


def test_rotate_is_orthogonal_and_seeded_random_is_deterministic():
    v = np.array([1.0, 2.0, -3.0])
    r = apply_noise(NoiseAdversary("rotate", 0.2), v, 0) - v
    assert abs(r @ v) <= 1e-12
    a = apply_noise(NoiseAdversary("random", 0.2, seed=5), v, 7)
    b = apply_noise(NoiseAdversary("random", 0.2, seed=5), v, 7)
    c = apply_noise(NoiseAdversary("random", 0.2, seed=5), v, 8)
    assert_allclose(a, b, rtol=0)
    assert not np.allclose(a, c)


def test_unknown_noise_strategies_are_rejected():
    for name in ("seeded_random", "bogus"):
        with pytest.raises(ValueError, match="unknown noise strategy"):
            NoiseAdversary(name, 0.1)


def test_rotate_in_one_dimension_is_inert():
    assert_allclose(apply_noise(NoiseAdversary("rotate", 0.5), [3.0], 0), [3.0])


def test_time_domain_equivalences_are_bitwise():
    op = scalar_noncvx()
    t_ogd = run(MethodSpec("ogd", eta=0.1), op, [0.3], 60)
    t_gogd = run(MethodSpec("gogd", alpha=0.1, beta=0.1), op, [0.3], 60)
    t_hgd = run(MethodSpec("hgd", eta=0.1, a=(2.0, -1.0)), op, [0.3], 60)
    for a, b in zip(t_ogd.points, t_gogd.points):
        assert np.array_equal(a, b)
    for a, b in zip(t_ogd.points, t_hgd.points):
        assert np.array_equal(a, b)


def test_past_extragradient_aligns_with_the_optimistic_iterates():
    # the half points follow the optimistic recursion started at x0 - eta F(x0)
    # with the stale gradient taken at x0
    op = scalar_noncvx()
    eta = 0.1
    x0 = np.array([0.3])
    pegd = run(MethodSpec("pegd", eta=eta), op, x0, 40)
    shifted_start = x0 - eta * eval_operator(op, x0)
    ogd = run(MethodSpec("ogd", eta=eta), op, shifted_start, 39, history=[x0])
    for half, point in zip(pegd.half_points, ogd.points):
        assert_allclose(half, point, atol=5e-16)


def test_reflected_step_aligns_with_the_optimistic_iterates():
    # with a replicated start the reflected half points follow the optimistic
    # recursion whose stale gradient history is zero (taken at the fixed point)
    op = scalar_noncvx()
    eta = 0.1
    x0 = np.array([0.3])
    rgd = run(MethodSpec("rgd", eta=eta), op, x0, 40)
    ogd = run(MethodSpec("ogd", eta=eta), op, x0, 39, history=[np.zeros(1)])
    for half, point in zip(rgd.half_points, ogd.points):
        assert_allclose(half, point, atol=5e-16)


def test_proximal_step_residuals():
    m = MethodSpec("pp", eta=1.0)
    for op, x0 in (
        (diagonal_quadratic([0.5, 4.0]), [1.0, -2.0]),
        (scalar_noncvx(), [2.0]),
    ):
        t = run(m, op, x0, 40)
        for k in range(1, len(t.points)):
            res = t.points[k] - t.points[k - 1] + 1.0 * eval_operator(op, t.points[k])
            bound = 1e-12 * (1.0 + np.linalg.norm(t.points[k - 1]))
            assert np.linalg.norm(res) <= bound


def test_proximal_step_residuals_under_scaling_noise():
    m = MethodSpec("pp", eta=0.5)
    op = scalar_noncvx()
    adv = NoiseAdversary("scale_up", 0.1)
    t = run(m, op, [2.0], 40, adversary=adv)
    for k in range(1, len(t.points)):
        observed = (1.0 + 0.1) * eval_operator(op, t.points[k])
        res = t.points[k] - t.points[k - 1] + 0.5 * observed
        assert np.linalg.norm(res) <= 1e-12 * (1.0 + np.linalg.norm(t.points[k - 1]))


def test_pid_simulation_matches_its_algebraic_equivalents():
    op = diagonal_quadratic([0.5, 4.0])
    x0 = [1.0, -1.0]
    pid = run(MethodSpec("pid", kp=0.0625, ki=0.125, kd=-0.0625), op, x0, 50)
    gogd = run(MethodSpec("gogd", alpha=0.125, beta=0.0625), op, x0, 50)
    for a, b in zip(pid.points, gogd.points):
        assert_allclose(a, b, atol=1e-14)
    pid_pp = run(MethodSpec("pid", kp=0.3, ki=0.3, kd=0.0), op, x0, 50)
    pp = run(MethodSpec("pp", eta=0.3), op, x0, 50)
    for a, b in zip(pid_pp.points, pp.points):
        assert_allclose(a, b, atol=1e-13)


def test_divergence_is_flagged_and_truncated():
    op = diagonal_quadratic([0.5, 4.0])
    t = run(MethodSpec("gd", eta=2.0), op, [1.0, 1.0], 200)  # eta > 2/L blows up
    assert t.diverged
    assert len(t.distances) < 201
    assert t.distances[-1] > 1e6 * t.distances[0]
    # a single-step overflow to non-finite values carries the same invariant
    t = run(MethodSpec("gd", eta=1e308, a=None), op, [1.0, 1.0], 10)
    assert t.diverged
    assert t.distances[-1] > 1e6 * t.distances[0]


def test_explicit_history_is_honored():
    op = scalar_noncvx()
    x0 = np.array([0.5])
    xm1 = np.array([0.2])
    t = run(MethodSpec("ogd", eta=0.1), op, x0, 5, history=[xm1])
    f0 = eval_operator(op, x0)
    fm1 = eval_operator(op, xm1)
    assert_allclose(t.points[1], x0 - 0.2 * f0 + 0.1 * fm1, rtol=1e-15)
    with pytest.raises(ValueError):
        run(MethodSpec("ogd", eta=0.1), op, x0, 5, history=[xm1, xm1])


def test_general_historical_simulation():
    op = diagonal_quadratic([1.0, 2.0])
    m = MethodSpec("general", eta=0.1, a=(1.0, 0.5, -0.5), b=(0.5, 0.25, 0.25))
    t = run(m, op, [1.0, -1.0], 400)
    assert not t.diverged
    assert t.distances[-1] < 1e-6


def test_pid_rejects_a_negative_implicit_coefficient():
    with pytest.raises(ValueError):
        run(MethodSpec("pid", kp=0.1, ki=0.1, kd=-0.2), scalar_noncvx(), [0.5], 10)


def test_pid_observes_each_point_once_under_random_noise():
    # the implicit step stores the observation it solved with, so the whole
    # trajectory satisfies the pid recursion in one noisy signal g_j, read at
    # x_j under noise index j (the replicated start fills g_(-1) with g_0)
    kp, ki, kd = 0.1, 0.15, 0.03
    m = MethodSpec("pid", kp=kp, ki=ki, kd=kd)
    adv = NoiseAdversary("random", 0.3, seed=4)
    for op, x0 in (
        (diagonal_quadratic([0.5, 4.0]), [1.0, -2.0]),
        (scalar_noncvx(), [2.0]),
    ):
        t = run(m, op, x0, 60, adversary=adv)
        g = [apply_noise(adv, eval_operator(op, x), j) for j, x in enumerate(t.points)]
        g = [g[0]] + g
        for k in range(len(t.points) - 1):
            res = (
                t.points[k + 1] - t.points[k]
                + (kp + kd) * g[k + 2]
                + (-kp + ki - 2.0 * kd) * g[k + 1]
                + kd * g[k]
            )
            assert np.linalg.norm(res) <= 1e-11 * (1.0 + np.linalg.norm(t.points[k])), k


def test_simulator_and_certifier_see_the_same_system():
    # on F(x) = lam x the loop closes where den - lam num = 0, so the slowest
    # root of that polynomial is the rate the simulation must show
    methods = [
        MethodSpec("gd", eta=0.1),
        MethodSpec("ogd", eta=0.1),
        MethodSpec("gogd", alpha=0.1, beta=0.05),
        MethodSpec("hgd", eta=0.1, a=(1.5, -0.3, 0.1)),
        MethodSpec("general", eta=0.1, a=(1.0, 0.4), b=(0.7, 0.3)),
        # num and den share the root 0.97, the slowest mode of the recursion
        MethodSpec("general", eta=0.1, a=(1.0, -0.97), b=(1.97, -0.97)),
        MethodSpec("pp", eta=0.3),
        MethodSpec("pid", kp=0.05, ki=0.15, kd=0.02),
        MethodSpec("pegd", eta=0.1),
        MethodSpec("rgd", eta=0.08),
    ]
    for m in methods:
        k = build_transfer(m)
        n = len(k.den)
        num = np.pad(k.num, (0, n - len(k.num)))
        for lam in (0.7, 2.5):
            radius = max(abs(np.roots((np.asarray(k.den) - lam * num)[::-1])))
            steps = max(60, int(np.log(1e-9) / np.log(radius)))
            t = run(m, diagonal_quadratic([lam]), [1.0], steps)
            assert abs(estimate_rate(t) - radius) <= 1e-6, (m.family, lam)
