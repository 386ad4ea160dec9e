import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consopt.analysis import (
    centralized_solve, check_disagreement_bound, disagreement_caps, max_delta, max_disagreement,
    verdict,
)
from consopt.engine import RunConfig, StepSchedule, read_trace_jsonl, run, write_trace_csv
from consopt.network import CyclicSchedule, StaticSchedule, build_metropolis, graph
from consopt.problem import Ball, Box, Problem, polynomial, quadratic
from reference import BoundUnavailableError, disagreement_bound

ALPHA = StepSchedule(1.0, 1.0, 1.0)


def uniform_schedule(n):
    return StaticSchedule(np.full((n, n), 1.0 / n))


# ---------------------------------------------------------------------------
# disagreement metrics


def test_max_disagreement_examples():
    assert max_disagreement(np.array([[0.0], [2.0]])) == 2.0
    assert max_disagreement(np.array([[1.5], [1.5], [1.5]])) == 0.0
    assert max_disagreement(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])) == 5.0


def test_max_disagreement_matches_brute_force():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 2, (6, 3))
    brute = max(
        float(np.linalg.norm(x[i] - x[j]))
        for i in range(6) for j in range(6)
    )
    assert max_disagreement(x) == brute
    # on (R, B, S, D) stacks, bitwise the largest distance over both orders of every
    # pair; from D = 8 on, the norm's sum is numpy's pairwise one
    for n_agents, dim in itertools.product(range(1, 9), range(1, 10)):
        scale = 10.0 ** rng.integers(-3, 4, (3, 2, n_agents, 1))
        x = rng.normal(0, 2, (3, 2, n_agents, dim)) * scale
        brute = np.array([[max(float(np.sqrt(np.sum(np.square(s[i] - s[j]))))
                                for i in range(n_agents) for j in range(n_agents))
                            for s in run] for run in x])
        got = max_disagreement(x)
        assert got.shape == (3, 2) and got.tobytes() == brute.tobytes()
        assert n_agents > 1 or not got.any()


def test_max_delta_examples():
    assert max_delta(np.array([[0.0], [2.0]])) == 1.0
    assert max_delta(np.array([[0.7], [0.7]])) == 0.0
    assert max_delta(np.array([[0.0], [1.0], [5.0]])) == 3.0
    assert max_disagreement(np.array([[3.0]])) == 0.0 and max_delta(np.array([[3.0]])) == 0.0


def test_max_delta_at_most_scaled_disagreement():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        x = rng.normal(0, 3, (n, d))
        assert max_delta(x) <= (n - 1) / n * max_disagreement(x) + 1e-12


@pytest.mark.parametrize("n_agents", [1, 2, 5])
def test_stacked_metrics_equal_per_state_calls(n_agents):
    rng = np.random.default_rng(2)
    stack = rng.normal(0, 2, (4, 7, n_agents, 3))
    for metric in (max_disagreement, max_delta):
        got = metric(stack)
        assert got.shape == (4, 7)
        want = [[metric(stack[a, b]) for b in range(7)] for a in range(4)]
        np.testing.assert_array_equal(got, want)
        assert type(metric(stack[0, 0])) is float


# ---------------------------------------------------------------------------
# the closed-form bound


def test_bound_zero_contraction_keeps_only_last_term():
    p = (0.0, 2.5, 7.0, 3)  # nu, l_bar, delta0, S
    for k in (1, 4, 50):
        want = (2 / 3) * 2.5 * float(ALPHA.at(k - 1))  # the step of the last round
        assert disagreement_bound(*p, ALPHA, k) == pytest.approx(want, rel=1e-14)


def test_bound_k_zero_is_the_initial_spread():
    assert disagreement_bound(0.4, 9.0, 2.0, 4, ALPHA, 0) == (3 / 4) * 2.0


def test_bound_hand_summed_series():
    # S=2, nu=1/2, delta0=1, l_bar=1, alpha_i=1/(i+1), k=2:
    # 1/2 * (1/4 + (1*1/2 + 1/2)) = 5/8
    assert disagreement_bound(0.5, 1.0, 1.0, 2, ALPHA, 2) == pytest.approx(5 / 8, rel=1e-12)


def test_bound_unavailable_when_not_scrambling():
    with pytest.raises(BoundUnavailableError):
        disagreement_bound(1.0, 1.0, 1.0, 2, ALPHA, 3)


def test_bound_monotone_in_delta0_and_lbar():
    for k in (0, 3, 10):
        b = disagreement_bound(0.3, 1.0, 1.0, 3, ALPHA, k)
        assert disagreement_bound(0.3, 1.0, 2.0, 3, ALPHA, k) >= b  # more initial spread
        assert disagreement_bound(0.3, 2.0, 1.0, 3, ALPHA, k) >= b  # larger gradients


# ---------------------------------------------------------------------------
# bound checking against runs


def triangle_problem():
    fs = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    comps = (
        quadratic("f0", [[1.0, 0.0], [0.0, 0.5]], [0.25, 0.0], 0.0, bounds_for=fs),
        quadratic("f1", [[0.5, 0.0], [0.0, 1.0]], [0.0, 0.25], 0.1, bounds_for=fs),
        quadratic("f2", [[0.75, 0.25], [0.25, 0.75]], [-0.125, -0.125], 0.0, bounds_for=fs),
    )
    return Problem(2, comps, fs)


def summary_params(tr):
    """The bound constants (nu, l_bar, delta0, S) of a run, read from its summary."""
    s = tr.summary
    return s.nu, s.l_bar, s.delta0, s.n_agents


def test_check_bound_uniform_matrix_run():
    prob = triangle_problem()
    cfg = RunConfig(prob, uniform_schedule(3), ALPHA, 200, seed=4)
    tr = run(cfg)
    p = summary_params(tr)
    assert p[0] == 0.0
    rep = check_disagreement_bound(tr)
    assert rep.applicable and rep.passed
    # spot-check the recursion against the direct formula at recorded indices
    for idx in (1, 5, -1):
        t = int(tr.ks[idx])
        np.testing.assert_allclose(tr.bound[idx], disagreement_bound(*p, ALPHA, t), rtol=1e-13)


def test_check_bound_single_agent_everything_zero():
    fs = Box(np.array([-1.0]), np.array([1.0]))
    prob = Problem(1, (quadratic("f", [[1.0]], [0.0], bounds_for=fs),), fs)
    cfg = RunConfig(prob, uniform_schedule(1), ALPHA, 20, initial_states=np.array([[0.5]]))
    tr = run(cfg)
    rep = check_disagreement_bound(tr)
    assert rep.passed
    assert np.all(tr.max_delta == 0.0) and np.all(tr.bound == 0.0)


def test_check_bound_lazy_two_agent_scrambling():
    fs = Box(np.array([-1.0]), np.array([1.0]))
    comps = (
        quadratic("f0", [[2.0]], [0.3], bounds_for=fs),
        quadratic("f1", [[1.0]], [-0.3], bounds_for=fs),
    )
    prob = Problem(1, comps, fs)
    lazy = StaticSchedule(np.array([[0.75, 0.25], [0.25, 0.75]]))
    cfg = RunConfig(prob, lazy, ALPHA, 500, seed=8)
    tr = run(cfg)
    p = summary_params(tr)
    assert p[0] == 0.5
    assert check_disagreement_bound(tr).passed
    for r in range(1, tr.n_records):
        t = int(tr.ks[r])
        np.testing.assert_allclose(tr.bound[r], disagreement_bound(*p, ALPHA, t), rtol=1e-13)


def test_check_bound_reads_the_bound_column_back_from_disk(tmp_path):
    cfg = RunConfig(triangle_problem(), uniform_schedule(3), ALPHA, 60, seed=2, record_every=7)
    tr = run(cfg)
    write_trace_csv(tr, tmp_path / "trace.csv", tmp_path / "plotdata.csv", None,
                    jsonl=tmp_path / "trace.jsonl")
    back = read_trace_jsonl(tmp_path / "trace.jsonl")
    assert back.summary is None
    assert check_disagreement_bound(back).to_dict() == check_disagreement_bound(tr).to_dict()


def test_check_bound_not_applicable_for_nu_one():
    pair = CyclicSchedule((build_metropolis(graph(3, [(0, 1)])),
                           build_metropolis(graph(3, [(1, 2)]))))
    tr = run(RunConfig(triangle_problem(), pair, ALPHA, 10, seed=0))
    assert tr.bound is None and not tr.summary.bound_enabled
    rep = check_disagreement_bound(tr)
    assert not rep.applicable and not rep.passed


@settings(max_examples=200, deadline=None)
@given(
    nu=st.floats(0.0, 1.0, exclude_max=True),
    l_bar=st.floats(0.01, 100.0),
    delta0=st.floats(0.0, 100.0),
    n_agents=st.integers(1, 12),
    a=st.floats(0.01, 10.0),
    b=st.floats(1.0, 100.0),
    p=st.floats(0.5, 1.0, exclude_min=True),
    k_max=st.integers(1, 200),
)
def test_cap_recursion_matches_closed_form(nu, l_bar, delta0, n_agents, a, b, p, k_max):
    steps = StepSchedule(a, b, p)
    caps = disagreement_caps(nu, l_bar, steps.at(np.arange(k_max)), delta0, n_agents)
    assert caps[0] == (n_agents - 1) / n_agents * delta0
    closed = [disagreement_bound(nu, l_bar, delta0, n_agents, steps, t)
              for t in range(k_max + 1)]
    np.testing.assert_allclose(caps, closed, rtol=1e-13)


# ---------------------------------------------------------------------------
# centralized oracle


def grid_argmin_1d(fun, lo, hi, pitch=1e-3):
    xs = np.linspace(lo, hi, int(round((hi - lo) / pitch)) + 1)
    vals = fun(xs)
    i = int(np.argmin(vals))
    return float(xs[i]), float(vals[i])


def test_oracle_quartic_plus_linear():
    fs = Box(np.array([-2.0]), np.array([2.0]))
    prob = Problem(1, (
        polynomial("a", [[0.0, 0.0, -3.0, 0.0, 1.0]], bounds_for=fs),
        polynomial("b", [[0.0, 1.0, 3.0]], bounds_for=fs),
    ), fs)
    sol = centralized_solve(prob)
    x_grid, f_grid = grid_argmin_1d(lambda x: x ** 4 + x, -2.0, 2.0)
    assert sol.certified
    assert sol.x_star[0] == pytest.approx(-(0.25) ** (1 / 3), abs=1e-9)
    assert sol.x_star[0] == pytest.approx(x_grid, abs=1e-3)
    assert sol.f_star == pytest.approx(f_grid, abs=1e-6)


def test_oracle_quadratic_on_ball_closed_form():
    fs = Ball(np.zeros(2), 1.0)
    prob = Problem(2, (quadratic("f", 2 * np.eye(2), np.zeros(2), bounds_for=fs),), fs)
    sol = centralized_solve(prob)
    assert sol.method == "closed-form" and sol.certified
    np.testing.assert_allclose(sol.x_star, [0.0, 0.0], atol=1e-12)
    assert sol.f_star == 0.0


def test_oracle_constrained_minimizer_matches_grid():
    # unconstrained minimizer sits outside the box, so the fallback engages
    fs = Box(np.array([-0.5]), np.array([0.5]))
    prob = Problem(1, (quadratic("f", [[1.0]], [2.0], bounds_for=fs),), fs)
    sol = centralized_solve(prob)
    assert sol.method == "projected-gradient" and sol.certified
    x_grid, f_grid = grid_argmin_1d(lambda x: 0.5 * x ** 2 + 2 * x, -0.5, 0.5)
    assert sol.x_star[0] == pytest.approx(x_grid, abs=1e-4)
    assert sol.f_star == pytest.approx(f_grid, abs=1e-6)
    np.testing.assert_allclose(sol.x_star, [-0.5], atol=1e-9)


def test_oracle_constrained_2d_matches_grid():
    fs = Box(np.array([-0.4, -0.4]), np.array([0.4, 0.4]))
    prob = Problem(2, (
        quadratic("f", [[2.0, 0.5], [0.5, 1.0]], [1.0, -2.0], bounds_for=fs),
    ), fs)
    sol = centralized_solve(prob)
    xs = np.linspace(-0.4, 0.4, 801)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = (0.5 * np.einsum("nd,nd->n", pts, pts @ np.array([[2.0, 0.5], [0.5, 1.0]]))
            + pts @ np.array([1.0, -2.0]))
    i = int(np.argmin(vals))
    assert np.max(np.abs(sol.x_star - pts[i])) <= 1e-3
    assert sol.f_star <= vals[i] + 1e-9
    assert abs(sol.f_star - vals[i]) <= 1e-6


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_converged_run_passes():
    prob = triangle_problem()
    cfg = RunConfig(prob, uniform_schedule(3), ALPHA, 4000, seed=3, record_every=10)
    tr = run(cfg)
    sol = centralized_solve(prob)
    v = verdict(tr, sol)
    assert v.consensus_pass and v.gap_pass and v.trend_pass and v.overall_pass


def test_verdict_zero_iteration_scattered_init_fails_consensus():
    prob = triangle_problem()
    init = np.array([[0.9, 0.9], [-0.9, -0.9], [0.5, -0.5]])
    cfg = RunConfig(prob, uniform_schedule(3), ALPHA, 0, initial_states=init)
    tr = run(cfg)
    v = verdict(tr, centralized_solve(prob))
    assert not v.consensus_pass and not v.overall_pass


def test_verdict_single_agent_consensus_trivial():
    fs = Box(np.array([-1.0]), np.array([1.0]))
    prob = Problem(1, (quadratic("f", [[2.0]], [0.5], bounds_for=fs),), fs)
    cfg = RunConfig(prob, uniform_schedule(1), ALPHA, 2000, seed=0, record_every=5)
    tr = run(cfg)
    v = verdict(tr, centralized_solve(prob))
    assert v.consensus_final == 0.0 and v.consensus_pass
    assert v.gap_pass and v.overall_pass


def test_verdict_judges_the_disagreement_cap():
    prob = triangle_problem()
    cfg = RunConfig(prob, uniform_schedule(3), ALPHA, 4000, seed=3, record_every=10)
    tr, sol = run(cfg), centralized_solve(prob)
    assert verdict(tr, sol).bound == "pass"
    assert verdict(tr, sol, bound=check_disagreement_bound(tr)).to_dict()["bound"] == "pass"
    tr.bound = tr.max_delta - 1e-6  # every record exceeds its cap
    v = verdict(tr, sol)
    assert v.consensus_pass and v.gap_pass and v.trend_pass
    assert v.bound == "fail" and not v.overall_pass
    tr.bound = None  # a non-scrambling schedule's trace
    v = verdict(tr, sol)
    assert v.bound == "not applicable" and v.overall_pass
