import collections
import importlib
import itertools
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import alternating_ogd
from freqcert.dynamics import (
    NoiseAdversary,
    Trajectory,
    apply_noise,
    estimate_rate,
    run,
)
from freqcert.operators import (
    bilinear_operator,
    build_minmax_operator,
    diagonal_quadratic,
    eval_operator,
    scalar_noncvx,
)
from freqcert.games import game_factor
from freqcert.stability import spectral_radius_poly
from freqcert.transfer import MethodSpec, Recursion, build_transfer


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


def test_alternating_ogd_matches_the_hand_written_update_bit_for_bit():
    cases = [
        (bilinear_operator([[1.0]]), eta, [1.0, 1.0], steps)
        for eta, steps in {0.02: 2000, 0.05: 2000, 0.1: 1500, 0.25: 400, 0.5: 120}.items()
    ]
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        for _ in range(2):
            A = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
            op = bilinear_operator(A)
            eta = float(rng.uniform(0.1, 0.7)) * 2.0 / (3.0 * np.linalg.norm(A, 2))
            cases.append((op, eta, rng.normal(size=2 * n), 250))
    cases.append((bilinear_operator([[1.0]]), 0.9, [1.0, 1.0], 400))  # diverges
    for op, eta, x0, steps in cases:
        for strategy in ("none", "scale_up", "scale_down"):
            adv = NoiseAdversary(strategy, 0.0 if strategy == "none" else 0.03)
            got = run(MethodSpec("ogd", eta=eta), op, x0, steps, adv, mode="alternating")
            want = alternating_ogd(eta, op, x0, steps, adv)
            assert got.diverged == want.diverged
            assert got.distances == want.distances, (eta, strategy)
            assert all(np.array_equal(a, b) for a, b in zip(got.points, want.points))
            assert len(got.points) == len(want.points)


@pytest.mark.parametrize(
    "method",
    [
        MethodSpec("gd", eta=0.3),
        MethodSpec("gogd", alpha=0.2, beta=0.1),
        MethodSpec("hgd", eta=0.1, a=(1.0, 0.5, -0.3)),
        MethodSpec("general", eta=0.2, a=(1.5, -0.5), b=(0.9, 0.1)),
    ],
)
def test_alternating_runs_decay_at_their_game_factor_radius(method):
    # gd alternates with every multiplier on the unit circle: bounded, no decay
    op = bilinear_operator([[1.0]])
    t = run(method, op, [1.0, 1.0], 600, mode="alternating")
    radius = spectral_radius_poly(game_factor(method, "alt", 1.0))
    assert not t.diverged
    assert abs(estimate_rate(t) - radius) <= 1e-4


def test_alternating_mode_needs_an_explicit_step_at_the_iterate():
    op = bilinear_operator([[1.0]])
    for method in (
        MethodSpec("pp", eta=0.5),
        MethodSpec("pid", kp=0.1, ki=0.1, kd=0.0),
        MethodSpec("pegd", eta=0.1),
        MethodSpec("rgd", eta=0.1),
    ):
        with pytest.raises(ValueError, match="no alternating update"):
            run(method, op, [1.0, 1.0], 10, mode="alternating")
    with pytest.raises(ValueError, match="history"):
        run(MethodSpec("ogd", eta=0.1), op, [1.0, 1.0], 10, mode="alternating",
            history=[np.zeros(2)])


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
            observed = apply_noise(adv, v, k)
            r = observed - v
            assert np.linalg.norm(r) <= 0.3 * np.linalg.norm(v) + 1e-12
            if strategy == "random":
                assert_allclose(np.linalg.norm(r), 0.3 * np.linalg.norm(v), rtol=1e-12)
            if strategy == "rotate":
                # a real skew map in odd dimension is singular: the quarter
                # turns leave the last coordinate alone
                assert observed[2] == v[2]
    # in even dimension every coordinate is turned, so the magnitude is exact
    adv = NoiseAdversary("rotate", 0.3)
    for n in (2, 4, 6):
        for _ in range(50):
            v = rng.uniform(-5, 5, size=n)
            r = apply_noise(adv, v, 0) - v
            assert_allclose(np.linalg.norm(r), 0.3 * np.linalg.norm(v), rtol=1e-12)


def test_deterministic_noise_maps_a_matrix_column_by_column():
    # the implicit step builds its resolvent from apply_noise on the
    # operator's matrix, so that must be the observation map of each column
    rng = np.random.default_rng(8)
    for strategy in ("none", "scale_up", "scale_down", "rotate"):
        adv = NoiseAdversary(strategy, 0.2)
        for n in (1, 2, 3, 4, 5):
            M = rng.normal(size=(n, n + 1))
            columns = [apply_noise(adv, M[:, j], j) for j in range(n + 1)]
            assert np.array_equal(apply_noise(adv, M, 0), np.column_stack(columns))


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


@pytest.mark.parametrize(
    "x0, steps, mode, message",
    [
        ([1.0, 1.0], 0, "simultaneous", "steps must be positive"),
        ([1.0], 5, "simultaneous", "x0 dimension mismatch"),
        ([1.0, 1.0], 5, "sideways", "unknown mode 'sideways'"),
    ],
)
def test_run_rejects_malformed_arguments(x0, steps, mode, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(MethodSpec("gd", eta=0.2), diagonal_quadratic([0.5, 4.0]), x0, steps, mode=mode)


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


def _recursion_by_hand(method, op, adv, x0, steps, history):
    """The points of y_k = sum_i e_i x_(k-i) - sum_i f_i s_(k-1-i) and
    x_(k+1) = sum_i b_i x_(k-i) - sum_i c_i s_(k-i), each sum taken in that
    order, with s_k = F_obs(y_k) observed under consecutive noise indices."""
    rec = Recursion.of(method)
    n_x = max(len(rec.b), len(rec.e))
    n_s = max(len(rec.c) - 1, len(rec.f))
    index = itertools.count()

    def observe(y):
        return apply_noise(adv, eval_operator(op, y), next(index))

    x0 = np.asarray(x0, dtype=float)
    x, s = {0: x0}, {}  # x_j and s_j by their index j
    if history is None:  # x0 fills every earlier slot and is observed once
        x.update({-j: x0 for j in range(1, n_x)})
        if n_s:
            s0 = observe(x0)
            s.update({-j: s0 for j in range(1, n_s + 1)})
            if rec.e == (1.0,) and not rec.f:  # y_0 is x0, observed already
                s[0] = s0
    else:  # history[i] is x_(-1-i), where s_(-1-i) was observed, oldest first
        x.update({-1 - i: np.asarray(h, dtype=float) for i, h in enumerate(history)})
        for i in range(n_s - 1, -1, -1):
            s[-1 - i] = observe(history[i])

    def total(terms):
        acc = None
        for w, v in terms:
            acc = w * v if acc is None else acc + w * v
        return acc

    for k in range(steps):
        y = total([(w, x[k - i]) for i, w in enumerate(rec.e)]
                  + [(-w, s[k - 1 - i]) for i, w in enumerate(rec.f)])
        if k not in s:
            s[k] = observe(y)
        x[k + 1] = total([(w, x[k - i]) for i, w in enumerate(rec.b)]
                         + [(-w, s[k - i]) for i, w in enumerate(rec.c)])
    return [x[k] for k in range(steps + 1)]


@pytest.mark.parametrize("method", [
    MethodSpec("gd", eta=0.3),
    MethodSpec("ogd", eta=0.2),
    MethodSpec("gogd", alpha=0.2, beta=0.1),
    MethodSpec("hgd", eta=0.1, a=(1.0, 0.5, -0.3)),
    MethodSpec("general", eta=0.2, a=(1.5, -0.5), b=(0.9, 0.1)),
    MethodSpec("general", eta=0.1, a=(1.0, 0.5, -0.5), b=(0.5, 0.3, 0.2)),
    MethodSpec("pegd", eta=0.2),
    MethodSpec("rgd", eta=0.15),
])
def test_run_follows_its_recursion_bit_for_bit(method):
    op = diagonal_quadratic([0.5, 1.5, 3.0], [0.25, -1.0, 2.0])
    x0 = np.array([1.0, -0.5, 0.75])
    rec = Recursion.of(method)
    n_hist = max(max(len(rec.b), len(rec.e)) - 1, max(len(rec.c) - 1, len(rec.f)))
    rng = np.random.default_rng(3)
    history = [x0 + 0.1 * rng.normal(size=3) for _ in range(n_hist)]
    for hist in (None, history):
        for strategy in ("none", "scale_up", "random"):  # random pins the noise indices
            adv = NoiseAdversary(strategy, 0.0 if strategy == "none" else 0.05, seed=2)
            t = run(method, op, x0, 30, adv, history=hist)
            want = _recursion_by_hand(method, op, adv, x0, 30, hist)
            assert not t.diverged and len(t.points) == len(want) == 31
            assert all(np.array_equal(a, b) for a, b in zip(t.points, want)), (hist, strategy)


def test_run_copies_its_start_point():
    op = diagonal_quadratic([0.5, 2.0])
    for method in (MethodSpec("gd", eta=0.3), MethodSpec("pp", eta=0.5), MethodSpec("rgd", eta=0.2)):
        x0 = np.array([1.0, -1.0])
        t = run(method, op, x0, 5)
        x0[:] = 7.0
        assert np.array_equal(t.points[0], [1.0, -1.0]), method.family
        before = [np.array(p) for p in t.points]
        t.points[1][:] = 9.0
        assert all(np.array_equal(a, b) for a, b in zip(t.points[2:], before[2:]))
        assert np.array_equal(t.points[0], before[0])


def test_an_implicit_step_that_does_not_settle_raises(monkeypatch):
    # scalar-noncvx has no linear map, so pp takes the damped iteration;
    # one iteration from x0 = 1 leaves the residual at eta F(1)
    monkeypatch.setattr(importlib.import_module("freqcert.dynamics"), "IMPLICIT_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="^implicit step did not reach the residual tolerance$"):
        run(MethodSpec("pp", eta=0.5), scalar_noncvx(), [1.0], 5)


def _evaluation_points(monkeypatch, *args):
    """The points the operator evaluations of ``run(*args)`` receive, in order:
    ``run`` evaluates through the function ``_evaluator`` builds for it."""
    dynamics = importlib.import_module("freqcert.dynamics")
    seen = []
    build = dynamics._evaluator

    def recording(op):
        evaluate = build(op)

        def recorded(x):
            seen.append(np.array(x))
            return evaluate(x)

        return recorded

    monkeypatch.setattr(dynamics, "_evaluator", recording)
    run(*args)
    monkeypatch.undo()
    return seen


def test_past_extragradient_aligns_with_the_optimistic_iterates(monkeypatch):
    # the half points follow the optimistic recursion started at x0 - eta F(x0)
    # with the stale gradient taken at x0
    op = scalar_noncvx()
    eta = 0.1
    x0 = np.array([0.3])
    halves = _evaluation_points(monkeypatch, MethodSpec("pegd", eta=eta), op, x0, 40)
    assert len(halves) == 41  # one at x0, then one per step
    halves = halves[1:]  # the first observation, at x0, fills s_(-1)
    shifted_start = x0 - eta * eval_operator(op, x0)
    ogd = run(MethodSpec("ogd", eta=eta), op, shifted_start, 39, history=[x0])
    for half, point in zip(halves, ogd.points):
        assert_allclose(half, point, atol=5e-16)


def test_reflected_step_aligns_with_the_optimistic_iterates(monkeypatch):
    # with a replicated start the reflected half points follow the optimistic
    # recursion whose stale gradient history is zero (taken at the fixed point)
    op = scalar_noncvx()
    eta = 0.1
    x0 = np.array([0.3])
    # the first recorded point is y_0: rgd makes no observation before it
    halves = _evaluation_points(monkeypatch, MethodSpec("rgd", eta=eta), op, x0, 40)
    assert len(halves) == 40  # one per step
    ogd = run(MethodSpec("ogd", eta=eta), op, x0, 39, history=[np.zeros(1)])
    for half, point in zip(halves, ogd.points):
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


def _minmax_operator(rng):
    sym = lambda: (lambda N: 0.1 * (N + N.T))(rng.normal(size=(2, 2)))
    return build_minmax_operator(
        2.0 * np.eye(2) + sym(), 2.0 * np.eye(2) + sym(),
        0.75 * np.eye(2) + 0.1 * rng.normal(size=(2, 2)), mu=1.0)


def _linear_operators(rng):
    return [
        diagonal_quadratic(rng.uniform(0.5, 4.0, 5), rng.uniform(-1, 1, 5)),
        bilinear_operator(rng.normal(size=(3, 3)) + 2.0 * np.eye(3)),
        _minmax_operator(rng),
    ]


def test_closed_form_implicit_step_solves_the_observed_equation():
    # each proximal step must satisfy x_(k+1) = x_k - eta F_obs(x_(k+1)) with
    # the observation apply_noise makes, whichever strategy
    rng = np.random.default_rng(12)
    eta = 0.7
    for op in _linear_operators(rng):
        x0 = np.asarray(op.fixed_point) + rng.normal(size=op.dimension)
        for strategy in ("none", "scale_up", "scale_down", "rotate", "random"):
            adv = NoiseAdversary(strategy, 0.3)
            t = run(MethodSpec("pp", eta=eta), op, x0, 20, adversary=adv)
            for k in range(len(t.points) - 1):
                x, rhs = t.points[k + 1], t.points[k]
                res = x - rhs + eta * apply_noise(adv, eval_operator(op, x), k)
                assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs), (op.kind, strategy)


def test_random_noise_leaves_every_implicit_step_solvable():
    # the damped iteration this closed form replaced diverged on bilinear
    # games: it raised on the first case and on 3 of the 6 pp runs below
    cases = [(MethodSpec("pp", eta=2.0), bilinear_operator([[1.0]]), [1.0, 1.0],
              NoiseAdversary("random", 1e-4, seed=1))]
    rng = np.random.default_rng(4)
    op = bilinear_operator(rng.normal(size=(3, 3)) + 2.0 * np.eye(3))
    for eta in rng.uniform(0.2, 1.0, 6):
        adv = NoiseAdversary("random", float(rng.uniform(0.03, 0.3)), seed=int(rng.integers(1 << 30)))
        cases.append((MethodSpec("pp", eta=float(eta)), op, rng.normal(size=6), adv))
    for m, op, x0, adv in cases:
        t = run(m, op, x0, 50, adversary=adv)
        for k in range(len(t.points) - 1):
            x, rhs = t.points[k + 1], t.points[k]
            res = x - rhs + m.eta * apply_noise(adv, eval_operator(op, x), k)
            assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs), m.eta


def test_random_noise_beyond_the_resolvent_bound_raises():
    # on F(x) = 4x with delta = 2, F_obs(x) = 4x + 8 |x| u with u = +-1, so
    # x + F_obs(x) is 13x on one side of 0 and -3x on the other, and the
    # implicit step x = rhs - F_obs(x) has two solutions or none
    with pytest.raises(ValueError, match="no unique solution"):
        run(MethodSpec("pp", eta=1.0), diagonal_quadratic([4.0]), [1.0], 5,
            adversary=NoiseAdversary("random", 2.0))


def test_rotate_noise_leaves_every_implicit_step_solvable():
    # rotate noise is a fixed linear map, so on a linear operator every
    # implicit step of pp and pid is one linear solve with one solution
    for seed in range(40):
        rng = np.random.default_rng(seed)
        spectrum = np.concatenate([[0.5, 4.0], rng.uniform(0.5, 4.0, 48)])
        cases = [diagonal_quadratic(spectrum, rng.uniform(-1, 1, 50)), _minmax_operator(rng)]
        adv = NoiseAdversary("rotate", float(rng.uniform(0.03, 0.04)))
        methods = (
            MethodSpec("pp", eta=float(rng.uniform(0.2, 0.35))),
            MethodSpec("pid", kp=float(rng.uniform(0.075, 0.1)),
                       ki=float(rng.uniform(0.11, 0.15)), kd=float(rng.uniform(0.02, 0.03))),
        )
        for op in cases:
            x0 = np.asarray(op.fixed_point) + rng.normal(size=op.dimension)
            for m in methods:
                t = run(m, op, x0, 100, adversary=adv)
                assert not t.diverged, (seed, op.kind, m.family)


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
    with pytest.warns(RuntimeWarning, match="overflow"):
        t = run(MethodSpec("gd", eta=1e308, a=None), op, [1.0, 1.0], 10)
    assert t.diverged
    assert t.distances[-1] > 1e6 * t.distances[0]


@pytest.mark.parametrize("method, x0", [
    # eta F(x0) = (5e307, 4e308) overflows, so x1 = (1 - 5e307, -inf)
    (MethodSpec("gd", eta=1e308), [1.0, 1.0]),
    # x1 = x0 - 2 eta s0 + eta s0 with eta s0 = (5e307, inf): the second
    # coordinate sums -inf and inf to NaN
    (MethodSpec("ogd", eta=1e308), [1.0, 1.0]),
    # the initial distance is finite, 1e308 sqrt 2, and 1e6 times it is
    # infinite, so the bound is the largest float; x1 = (-inf, -inf)
    (MethodSpec("gd", eta=1e308), [1e308, 1e308]),
])
def test_a_non_finite_iterate_diverges_at_once(method, x0):
    with np.errstate(over="ignore", invalid="ignore"):
        t = run(method, diagonal_quadratic([0.5, 4.0]), x0, 10)
    assert not np.isfinite(t.points[-1]).all()
    assert t.diverged
    assert len(t.distances) == len(t.points) == 2  # one step
    assert t.distances[-1] == np.inf


# v.v overflows beyond |v| ~ 1.34e154 (numpy warns of that), but no norm of
# the simulator does short of the float range
far_start = np.errstate(over="ignore")


@far_start
def test_a_far_start_gets_finite_distances_and_a_finite_bound():
    # the run from 1e200 grows past its bound and stops, with every distance
    # finite; the one from 1e160 records hypot and converges
    op = diagonal_quadratic([0.5, 4.0])
    t = run(MethodSpec("gd", eta=2.0), op, [1e200, 1e200], 50)
    assert t.diverged and len(t.distances) < 51
    assert t.distances[0] == math.hypot(1e200, 1e200)
    assert math.isfinite(t.distances[-1]) and t.distances[-1] > 1e6 * t.distances[0]
    t = run(MethodSpec("gd", eta=0.2), op, [1e160, 1e160], 50)
    assert not t.diverged and len(t.distances) == 51
    assert t.distances[0] == math.hypot(1e160, 1e160)
    assert t.distances[-1] < 1e-2 * t.distances[0]


@far_start
def test_a_far_start_moves_the_damped_implicit_step():
    # x1 solves 2 x + sin(x) / 2 = 1e160; an infinite tolerance and residual
    # would let the iteration stop at x0 without a move
    t = run(MethodSpec("pp", eta=0.5), scalar_noncvx(), [1e160], 3)
    assert not t.diverged
    assert t.points[1][0] == pytest.approx(5e159, rel=1e-12)


@far_start
def test_random_noise_at_a_far_start_stays_finite():
    # the push is delta |F(x)| u; an infinite |F(x)| would make it inf and NaN
    adv = NoiseAdversary("random", 0.1, seed=1)
    t = run(MethodSpec("ogd", eta=0.1), diagonal_quadratic([0.5, 4.0]), [1e160, 1e160], 50, adv)
    assert not t.diverged and len(t.distances) == 51
    assert all(math.isfinite(d) for d in t.distances)
    assert np.isfinite(t.points).all()
    # the implicit step's root is found at a scaled-down a, so a.a does not
    # overflow: a far start runs as the near one, times the start's scale
    far = [2.0**530, 2.0**530]
    for method in (MethodSpec("pp", eta=0.5), MethodSpec("pid", kp=0.09, ki=0.13, kd=0.025)):
        near = run(method, diagonal_quadratic([0.5, 4.0]), [1.0, 1.0], 50, adv)
        t = run(method, diagonal_quadratic([0.5, 4.0]), far, 50, adv)
        assert not t.diverged and len(t.distances) == 51
        if method.family == "pp":
            assert np.array_equal(np.asarray(t.points), 2.0**530 * np.asarray(near.points))
        else:
            assert_allclose(t.distances, 2.0**530 * np.asarray(near.distances), rtol=1e-14)


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


def test_history_points_must_have_the_shape_of_x0():
    # a scalar or short stale point was broadcast into (0.3, 0.3) before
    op = diagonal_quadratic([1.0, 2.0])
    rgd = MethodSpec("rgd", eta=0.1)
    run(rgd, op, [1.0, -1.0], 3, history=[[0.3, 0.3]])
    for point in (0.3, [0.3], [0.3, 0.3, 0.3]):
        with pytest.raises(ValueError, match=r"^history points must have the shape of x0, \(2,\)"):
            run(rgd, op, [1.0, -1.0], 3, history=[point])


@pytest.mark.parametrize("strategy", ["none", "scale_up", "scale_down", "rotate", "random"])
@pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
def test_noise_seed_must_be_a_nonnegative_integer(strategy, seed):
    with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, not {seed!r}$"):
        NoiseAdversary(strategy, 0.1, seed=seed)


@pytest.mark.parametrize("delta, message", [
    (float("nan"), "delta must be finite"),
    (float("inf"), "delta must be finite"),
    ("0.1", "delta must be a JSON number, not '0.1'"),
    (True, "delta must be a JSON number, not True"),
    (-0.1, "delta must be nonnegative"),
])
def test_noise_delta_must_be_a_finite_number(delta, message):
    # a nan delta used to construct and make run report divergence at step 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NoiseAdversary("scale_up", delta)
    adversary = NoiseAdversary("scale_up", np.float32(0.25))
    assert adversary.delta == 0.25 and type(adversary.delta) is float


def test_numpy_integer_seeds_draw_like_python_ones():
    v = np.array([1.0, 2.0, -3.0])
    a = apply_noise(NoiseAdversary("random", 0.2, seed=np.int64(5)), v, 7)
    assert_allclose(a, apply_noise(NoiseAdversary("random", 0.2, seed=5), v, 7), rtol=0)


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


def test_random_noise_draws_each_direction_once(monkeypatch):
    # pid observes once at x0 and once per implicit step, pp once per step;
    # every observation of a step, closed form or damped iteration, is the
    # noise function ``_noise`` builds for the run, at the step's index, and
    # a run's directions are one chunk
    dynamics = importlib.import_module("freqcert.dynamics")
    ks = []
    build = dynamics._noise

    def counting(adv, size):
        noise = build(adv, size)

        def counted(value, k):
            ks.append(k)
            return noise(value, k)

        return counted

    monkeypatch.setattr(dynamics, "_noise", counting)
    steps = 40
    pid = MethodSpec("pid", kp=0.09, ki=0.13, kd=0.025)
    pp = MethodSpec("pp", eta=0.7)
    for m, op, x0, at_x0 in (
        (pid, diagonal_quadratic(np.linspace(0.5, 4.0, 6)), np.ones(6), 1),
        (pid, scalar_noncvx(), [2.0], 1),
        (pp, scalar_noncvx(), [2.0], 0),
    ):
        ks.clear()
        dynamics._direction_chunk.cache_clear()
        t = run(m, op, x0, steps, NoiseAdversary("random", 0.04, seed=5))
        assert not t.diverged and len(t.distances) == steps + 1
        assert ks == sorted(ks), (m.family, op.kind)
        assert list(dict.fromkeys(ks)) == list(range(at_x0 + steps)), (m.family, op.kind)
        assert dynamics._direction_chunk.cache_info().misses == 1, (m.family, op.kind)
    dynamics._direction_chunk.cache_clear()


@pytest.mark.parametrize("adv", [
    NoiseAdversary("scale_up", 0.1),
    NoiseAdversary("random", 0.04, seed=5),
])
def test_each_run_builds_its_observation_once(monkeypatch, adv):
    # the implicit step observes through the run's own evaluator and noise
    dynamics = importlib.import_module("freqcert.dynamics")
    builds = collections.Counter()

    def counted(name):
        build = getattr(dynamics, name)

        def counting(*args):
            builds[name] += 1
            return build(*args)

        return counting

    for name in ("_evaluator", "_noise"):
        monkeypatch.setattr(dynamics, name, counted(name))
    pid = MethodSpec("pid", kp=0.09, ki=0.13, kd=0.025)
    pp = MethodSpec("pp", eta=0.7)
    ogd = MethodSpec("ogd", eta=0.1)
    linear = diagonal_quadratic([0.5, 4.0])
    for m, op, x0 in (
        (pp, linear, [1.0, -1.0]),
        (pid, linear, [1.0, -1.0]),
        (pp, scalar_noncvx(), [2.0]),
        (pid, scalar_noncvx(), [2.0]),
        (ogd, linear, [1.0, -1.0]),
    ):
        builds.clear()
        t = run(m, op, x0, 10, adv)
        assert not t.diverged and len(t.distances) == 11
        assert builds == {"_evaluator": 1, "_noise": 1}, (m.family, op.kind)


@pytest.fixture
def dynamics_module():
    # the direction cache is module state: start and leave it empty
    dynamics = importlib.import_module("freqcert.dynamics")
    dynamics._direction_chunk.cache_clear()
    yield dynamics
    dynamics._direction_chunk.cache_clear()


def test_random_directions_repeat_in_any_call_order(dynamics_module):
    def draw(seed, k, size):
        return dynamics_module._directions(seed, size)(k)

    ks = (0, 255, 256, 257, 10_000)  # chunk edges for size 50, 256 rows a chunk
    first = {k: draw(4, k, 50).copy() for k in ks}
    for order in (ks[::-1], (256, 0, 10_000, 257, 255)):
        dynamics_module._direction_chunk.cache_clear()
        for k in order:
            assert np.array_equal(draw(4, k, 50), first[k]), (order, k)
    for k, u in first.items():
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15, k
    distinct = [u.tobytes() for u in first.values()]
    distinct.append(draw(5, 0, 50).tobytes())
    assert len(set(distinct)) == len(distinct)
    for k in ks:  # another size: not the same numbers, even on the shared prefix
        assert not np.array_equal(draw(4, k, 51)[:50], first[k]), k


def test_random_directions_are_uniform_on_the_sphere(dynamics_module):
    # a chunk normalized as a whole, or one row drawn for every index,
    # fails the moments of a uniform unit vector: mean 0, E u_i^2 = 1/size
    direction = dynamics_module._directions(17, 5)
    us = np.array([direction(k) for k in range(4096)])
    assert np.abs(np.linalg.norm(us, axis=1) - 1.0).max() <= 1e-15
    assert np.abs(us.mean(axis=0)).max() <= 0.05
    assert np.abs((us**2).mean(axis=0) - 0.2).max() <= 0.02


def test_a_zero_row_is_redrawn_not_divided(dynamics_module, monkeypatch):
    size = 4
    real = dynamics_module._direction_chunk(3, 0, size).copy()
    dynamics_module._direction_chunk.cache_clear()
    redraws = []

    class ZeroRow:
        # the chunk's row 2 comes out zero, and so does its first redraw
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.PCG64(seed))

        def standard_normal(self, shape):
            g = self.rng.standard_normal(shape)
            if np.ndim(g) == 2:
                g[2] = 0.0
            else:
                redraws.append(g.copy())
                if len(redraws) == 1:
                    g[:] = 0.0
            return g

    monkeypatch.setattr(dynamics_module.np.random, "default_rng", ZeroRow)
    adv = NoiseAdversary("random", 0.5, seed=3)
    direction = dynamics_module._directions(adv.seed, size)
    rows = [direction(k) for k in range(5)]
    assert len(redraws) == 2
    assert np.isfinite(rows[2]).all() and abs(np.linalg.norm(rows[2]) - 1.0) <= 1e-15
    assert_allclose(rows[2], redraws[1] / np.linalg.norm(redraws[1]), rtol=1e-15)
    for k in (0, 1, 3, 4):
        assert np.array_equal(rows[k], real[k]), k
    observed = apply_noise(adv, np.array([0.0, 0.0, 3.0, 4.0]), 2)
    assert np.isfinite(observed).all()
    assert_allclose(np.linalg.norm(observed - [0.0, 0.0, 3.0, 4.0]), 2.5, rtol=1e-15)


@pytest.mark.parametrize("size", [1, 50, 2**16, 2**17])
def test_a_direction_chunk_holds_at_most_max_2_16_size_floats(dynamics_module, size):
    chunk = dynamics_module._direction_chunk(0, 0, size)
    assert chunk.shape == (dynamics_module._chunk_rows(size), size)
    assert chunk.size <= max(2**16, size)
    assert not chunk.flags.writeable
    u = dynamics_module._directions(0, size)(chunk.shape[0])
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-15  # the first row of the next chunk
    assert dynamics_module._direction_chunk.cache_info().currsize == 2
    assert dynamics_module._direction_chunk.cache_info().maxsize == 8


def test_damped_implicit_step_solves_the_observed_equation():
    # scalar-noncvx takes the damped iteration; each pp step must satisfy
    # x_(k+1) = x_k - eta F_obs(x_(k+1)) with the observation at index k
    op = scalar_noncvx()
    eta = 0.7
    for strategy in ("none", "scale_up", "scale_down", "rotate", "random"):
        adv = NoiseAdversary(strategy, 0.3, seed=9)
        t = run(MethodSpec("pp", eta=eta), op, [2.0], 40, adversary=adv)
        for k in range(len(t.points) - 1):
            x, rhs = t.points[k + 1], t.points[k]
            res = x - rhs + eta * apply_noise(adv, eval_operator(op, x), k)
            assert np.linalg.norm(res) <= 1e-12 * (1.0 + np.linalg.norm(rhs)), (strategy, k)
