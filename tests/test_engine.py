import contextlib
import dataclasses
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consopt import cli, engine
from consopt.engine import (
    EngineError, RunConfig, RunTrace, StepSchedule, descend, fuse, initial_states,
    read_trace_jsonl, run, run_batch, write_trace_csv,
)
from consopt.analysis import max_delta, max_disagreement
from consopt.network import (
    CyclicSchedule, RandomSchedule, StaticSchedule, build_metropolis,
    build_two_link_matrix, complete_graph, graph, path_graph, ring_graph,
)
from consopt.privacy import SIX_VIRTUAL_PATTERN
from consopt.problem import (
    Ball, Box, ConfigError, Problem, as_float, polynomial, quadratic, sine_quadratic, sum_value,
)
from consopt.scenario import (
    load_scenario, load_shipped, shipped_scenario_names, shipped_scenario_path,
)
import reference
from reference import reference_run

BOX1 = Box(np.array([-1.0]), np.array([1.0]))
BALL2 = Ball(np.array([0.1, -0.1]), 0.8)


def single_agent_problem(fs=BOX1):
    return Problem(1, (quadratic("f", [[2.0]], [0.0], bounds_for=fs),), fs)


def uniform_schedule(n):
    return StaticSchedule(np.full((n, n), 1.0 / n))


def triangle_indefinite_problem(fs=Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))):
    comps = (
        quadratic("f0", [[2.0, 0.0], [0.0, -0.5]], [0.2, 0.0], 0.0, bounds_for=fs),
        quadratic("f1", [[-0.5, 0.0], [0.0, 2.0]], [0.0, 0.2], 0.0, bounds_for=fs),
        quadratic("f2", [[0.0, 0.5], [0.5, 0.0]], [-0.1, -0.1], 0.0, bounds_for=fs),
    )
    return Problem(2, comps, fs)


def mixed_family_problem(fs=Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))):
    comps = (
        quadratic("q", [[2.0, 0.0], [0.0, -0.5]], [0.2, 0.0], 0.0, bounds_for=fs),
        polynomial("p", [[0.0, 0.1, -1.0, 0.0, 1.0], [0.0, 0.0, 1.0]], bounds_for=fs),
        sine_quadratic("s", [[1.0, 0.5], [0.5, 1.0]], [0.0, -0.1], 0.3,
                       [0.2, 0.1], [3.0, 2.0], bounds_for=fs),
    )
    return Problem(2, comps, fs)


# ---------------------------------------------------------------------------
# step sizes


def test_step_size_values():
    assert float(StepSchedule(1.0, 1.0, 1.0).at(0)) == 1.0
    assert float(StepSchedule(1.0, 1.0, 1.0).at(9)) == 0.1
    assert float(StepSchedule(2.0, 4.0, 0.75).at(0)) == pytest.approx(2 / 4 ** 0.75, rel=1e-15)


def test_step_schedule_monotone_nonincreasing():
    s = StepSchedule(0.7, 3.0, 0.8)
    vals = s.at(np.arange(500))
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 0)


@pytest.mark.parametrize("p", [0.51, 0.73, 1.0])
def test_step_sizes_agree_for_scalar_and_array_iterations(p):
    s = StepSchedule(0.7, 3.0, p)
    ks = np.arange(3000)
    np.testing.assert_array_equal(s.at(ks), [float(s.at(int(k))) for k in ks])


def test_run_records_the_step_each_round_took():
    prob = triangle_indefinite_problem()
    cfg = RunConfig(prob, StaticSchedule(build_metropolis(complete_graph(3))),
                    StepSchedule(0.7, 3.0, 0.73), 200, seed=1, record_every=1)
    tr = run(cfg)
    (m,) = cfg.schedule.distinct_matrices(cfg.n_iterations)
    for k in range(cfg.n_iterations):
        assert tr.alphas[k] == float(cfg.steps.at(k))
        expected = descend(fuse(tr.states[k], m), k, cfg)
        np.testing.assert_array_equal(expected, tr.states[k + 1])


@pytest.mark.parametrize("a,b,p", [(0.0, 1.0, 1.0), (1.0, 0.5, 1.0),
                                   (1.0, 1.0, 0.5), (1.0, 1.0, 1.1)])
def test_step_schedule_rejects_bad_params(a, b, p):
    with pytest.raises(ConfigError):
        StepSchedule(a, b, p)


@pytest.mark.parametrize("value", [True, "2", None, [1.0]])
def test_step_schedule_and_ball_take_only_numbers(value):
    steps = StepSchedule(np.float32(0.5), 2, np.int64(1))  # a numpy or integer real is a number
    assert (steps.a, steps.b, steps.p) == (0.5, 2.0, 1.0) and type(steps.b) is float
    assert Ball(np.zeros(2), 2).radius == 2.0
    for name in ("a", "b", "p"):
        with pytest.raises(ConfigError, match=rf"^steps\.{name}: expected a number, got "):
            StepSchedule(**{"a": 1.0, name: value})
    with pytest.raises(ConfigError, match=r"^set\.radius: expected a number, got "):
        Ball(np.zeros(2), value)


def test_a_number_past_the_float_range_is_a_config_error_naming_its_field():
    big = 10**400
    assert as_float(2**1000, "x") == 2.0**1000  # an integer a float holds is its float
    with pytest.raises(ConfigError, match=r"^x: expected a number, got one too large for a float$"):
        as_float(big, "x")
    with pytest.raises(ConfigError, match=r"^steps\.a: expected a number, got one too large for a float$"):
        StepSchedule(big)
    with pytest.raises(ConfigError, match=r"^set\.radius: expected a number, got one too large for a float$"):
        Ball(np.zeros(2), big)
    with pytest.raises(ConfigError, match=r"^schedule\.edge_probability: expected a number, got one too large for a float$"):
        RandomSchedule(3, big, 0)


# ---------------------------------------------------------------------------
# fuse


def test_fuse_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(fuse(x, np.eye(2)), x)


def test_fuse_uniform_two_agents():
    out = fuse(np.array([[0.0], [2.0]]), np.full((2, 2), 0.5))
    np.testing.assert_array_equal(out, [[1.0], [1.0]])


def test_fuse_basis_states_reproduce_matrix_rows():
    m = build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25)
    out = fuse(np.eye(6), m)
    np.testing.assert_array_equal(out, m)


def test_fuse_preserves_average():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        m = build_metropolis(complete_graph(n))
        x = rng.normal(0, 2, (n, d))
        v = fuse(x, m)
        assert np.linalg.norm(v.mean(axis=0) - x.mean(axis=0)) <= 1e-12


def test_fuse_shape_mismatch():
    with pytest.raises(ConfigError):
        fuse(np.zeros((3, 1)), np.eye(2))


# ---------------------------------------------------------------------------
# descend


def test_descend_single_agent_quadratic():
    prob = single_agent_problem()
    cfg = RunConfig(prob, uniform_schedule(1), StepSchedule(0.5), 1)
    out = descend(np.array([[1.0]]), 0, cfg)
    np.testing.assert_array_equal(out, [[0.0]])


def test_descend_projection_active():
    fs = Box(np.array([0.5]), np.array([1.0]))
    prob = single_agent_problem(fs)
    cfg = RunConfig(prob, uniform_schedule(1), StepSchedule(0.5), 1)
    out = descend(np.array([[1.0]]), 0, cfg)
    np.testing.assert_array_equal(out, [[0.5]])


def test_descend_nonconvex_component():
    fs = Box(np.array([-2.0]), np.array([2.0]))
    prob = Problem(1, (polynomial("q", [[0.0, 0.0, -3.0, 0.0, 1.0]], bounds_for=fs),), fs)
    cfg = RunConfig(prob, uniform_schedule(1), StepSchedule(0.1, 1.0, 1.0), 1)
    out = descend(np.array([[1.0]]), 0, cfg)  # gradient at 1 is -2
    np.testing.assert_allclose(out, [[1.2]], rtol=1e-15)


def test_descend_rejects_a_negative_iteration():
    cfg = RunConfig(single_agent_problem(), uniform_schedule(1), StepSchedule(0.5), 1)
    with pytest.raises(ConfigError, match="iteration index must be >= 0"):
        descend(np.array([[1.0]]), -1, cfg)


# ---------------------------------------------------------------------------
# full runs


def test_run_single_agent_one_iteration():
    prob = single_agent_problem()
    cfg = RunConfig(prob, uniform_schedule(1), StepSchedule(0.5, 1.0, 1.0), 1,
                    initial_states=np.array([[1.0]]))
    tr = run(cfg)
    np.testing.assert_array_equal(tr.states[-1], [[0.0]])
    assert tr.ks.tolist() == [0, 1]


def test_run_symmetric_pair_keeps_average_at_zero():
    fs = Box(np.array([-1.0]), np.array([1.0]))
    comps = tuple(quadratic(f"f{i}", [[1.0]], [0.0], bounds_for=fs) for i in range(2))
    prob = Problem(1, comps, fs)
    cfg = RunConfig(prob, uniform_schedule(2), StepSchedule(1.0), 50,
                    initial_states=np.array([[0.8], [-0.8]]))
    tr = run(cfg)
    np.testing.assert_allclose(tr.x_bar, 0.0, atol=1e-15)


def test_run_triangle_nonconvex_decreases_objective():
    from consopt.analysis import centralized_solve
    prob = triangle_indefinite_problem()
    sched = StaticSchedule(build_metropolis(complete_graph(3)))
    cfg = RunConfig(prob, sched, StepSchedule(1.0), 4000, seed=5, record_every=10)
    tr = run(cfg)
    oracle = centralized_solve(prob)
    gaps = tr.f_bar - oracle.f_star
    assert gaps[-1] < 1e-3
    assert np.mean(gaps[-10:]) < np.mean(gaps[:10])


def test_run_feasibility_and_fusion_invariants():
    prob = triangle_indefinite_problem()
    sched = StaticSchedule(build_metropolis(complete_graph(3)))
    cfg = RunConfig(prob, sched, StepSchedule(1.0), 500, seed=1)
    tr = run(cfg)
    flat = tr.states.reshape(-1, prob.dimension)
    assert np.all(prob.feasible_set.distance_many(flat) <= 1e-12)
    assert tr.summary.max_average_drift <= 1e-12
    assert tr.summary.max_nonexpansive_slack <= 1e-9


def test_run_descent_displacement_bounded():
    # one manual round: ||x_{k+1} - v_k|| <= alpha_k * L_J
    prob = triangle_indefinite_problem()
    sched = StaticSchedule(build_metropolis(complete_graph(3)))
    cfg = RunConfig(prob, sched, StepSchedule(1.0), 1, seed=2)
    x0 = initial_states(cfg)
    v = fuse(x0, sched.matrices[0])
    x1 = descend(v, 0, cfg)
    alpha = float(cfg.steps.at(0))
    for j, c in enumerate(prob.components):
        assert np.linalg.norm(x1[j] - v[j]) <= alpha * c.grad_bound + 1e-12


def cyclic_pair_schedule():
    return CyclicSchedule((build_metropolis(graph(3, [(0, 1)])),
                           build_metropolis(graph(3, [(1, 2)]))))


@pytest.mark.parametrize("make_schedule", [
    pytest.param(lambda: StaticSchedule(build_metropolis(complete_graph(3))), id="static"),
    pytest.param(cyclic_pair_schedule, id="cyclic"),
    pytest.param(lambda: RandomSchedule(3, 0.6, seed=5), id="random"),
])
@pytest.mark.parametrize("make_problem", [
    triangle_indefinite_problem, mixed_family_problem,
    pytest.param(lambda: triangle_indefinite_problem(BALL2), id="triangle_indefinite_ball"),
    pytest.param(lambda: mixed_family_problem(BALL2), id="mixed_family_ball"),
])
@pytest.mark.parametrize("batch", [1, 3])
def test_run_round_is_public_fuse_then_descend(make_problem, make_schedule, batch):
    # the loop's step is resolved once per run for the batch's shape, and
    # descend's for one run's round; each round of each run agrees bitwise
    prob = make_problem()
    sched = make_schedule()
    cfgs = [RunConfig(prob, sched, StepSchedule(1.0), 30, seed=4 + b, record_every=1)
            for b in range(batch)]
    mats = sched.distinct_matrices(30)
    for cfg, tr in zip(cfgs, run_batch(cfgs)):
        assert tr.states[0].tobytes() == initial_states(cfg).tobytes()
        for k in range(cfg.n_iterations):
            expected = descend(fuse(tr.states[k], mats[k % len(mats)]), k, cfg)
            assert expected.tobytes() == tr.states[k + 1].tobytes(), (cfg.seed, k)
        for r in range(tr.n_records):
            assert tr.f_bar[r] == sum_value(prob, tr.x_bar[r:r + 1])[0]
            assert tr.max_disagreement[r] == max_disagreement(tr.states[r])
            assert tr.max_delta[r] == max_delta(tr.states[r])


def test_run_builds_the_random_stack_once(monkeypatch):
    built = []
    build = RandomSchedule._build

    def counting(self, ks):
        built.append(list(ks))
        return build(self, ks)

    monkeypatch.setattr(RandomSchedule, "_build", counting)
    cfg = RunConfig(triangle_indefinite_problem(), RandomSchedule(3, 0.6, seed=5),
                    StepSchedule(1.0), 40, seed=0)
    run(cfg)
    assert built == [list(range(cfg.n_iterations))]


def test_descend_rejects_wrong_state_shape():
    prob = triangle_indefinite_problem()
    cfg = RunConfig(prob, StaticSchedule(build_metropolis(complete_graph(3))),
                    StepSchedule(1.0), 1)
    with pytest.raises(ConfigError):
        descend(np.zeros((2, 2)), 0, cfg)


TRACE_FILES = ("trace.jsonl", "trace.csv", "plotdata.csv")


def trace_files(trace: RunTrace, path, f_star=None) -> dict:
    """Write the trace files into the new directory ``path`` in one pass, as a
    run does, and return their bytes by name."""
    path.mkdir()
    write_trace_csv(trace, path / "trace.csv", path / "plotdata.csv", f_star,
                    jsonl=path / "trace.jsonl")
    return {f: (path / f).read_bytes() for f in TRACE_FILES}


def test_run_deterministic_and_bitwise_exports(tmp_path):
    prob = triangle_indefinite_problem()
    sched = StaticSchedule(build_metropolis(complete_graph(3)))
    cfg = RunConfig(prob, sched, StepSchedule(1.0), 300, seed=9, record_every=7)
    t1, t2 = run(cfg), run(cfg)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.f_bar, t2.f_bar)
    assert trace_files(t1, tmp_path / "a") == trace_files(t2, tmp_path / "b")


def test_run_zero_iterations_keeps_initial_record():
    prob = single_agent_problem()
    cfg = RunConfig(prob, uniform_schedule(1), StepSchedule(1.0), 0,
                    initial_states=np.array([[0.25]]))
    tr = run(cfg)
    assert tr.n_records == 1 and tr.ks[0] == 0
    np.testing.assert_array_equal(tr.states[0], [[0.25]])


def test_run_decimation_always_keeps_terminal():
    prob = single_agent_problem()
    cfg = RunConfig(prob, uniform_schedule(1), StepSchedule(1.0), 25,
                    record_every=10, initial_states=np.array([[1.0]]))
    tr = run(cfg)
    assert tr.ks.tolist() == [0, 10, 20, 25]


def test_run_aborts_on_nonfinite_gradient():
    fs = Box(np.array([-2.0]), np.array([2.0]))
    huge = polynomial("boom", [[0.0, 1e308, 1e308]], grad_bound=1e300, lipschitz=1e300)
    prob = Problem(1, (huge,), fs)
    cfg = RunConfig(prob, uniform_schedule(1), StepSchedule(1.0), 5,
                    initial_states=np.array([[1.5]]))
    with pytest.raises(EngineError, match=r"agent 0 at iteration 0"):
        run(cfg)


# ---------------------------------------------------------------------------
# batches


TRACE_COLUMNS = ("ks", "alphas", "states", "x_bar", "f_bar", "max_delta",
                 "max_disagreement", "bound")


def assert_same_run(a: RunTrace, b: RunTrace):
    for name in TRACE_COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.summary == b.summary


def run_files(trace: RunTrace, path) -> dict:
    """The bytes of the trace files and summary.json the run writes."""
    files = trace_files(trace, path, 0.0)
    files["summary.json"] = json.dumps(trace.summary.to_dict(), indent=2).encode()
    return files


@pytest.mark.parametrize("every", [1, None], ids=["every-iteration", "shipped-decimation"])
@pytest.mark.parametrize("index,name", enumerate(shipped_scenario_names()))
def test_seed_from_a_batch_of_twenty_writes_its_batch_of_one_files(tmp_path, index, name, every):
    sc = load_scenario(shipped_scenario_path(name), n_iterations=2000, decimate=every)
    seed = 7 * index % 20  # a different position in the batch per scenario
    cfgs = [dataclasses.replace(sc.run_config, seed=s) for s in range(20)]
    batch = run_batch(cfgs)
    (alone,) = run_batch([cfgs[seed]])
    assert run_files(batch[seed], tmp_path / "batch") == run_files(alone, tmp_path / "alone")


@settings(max_examples=25, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=6, unique=True),
    every=st.integers(1, 12),
    in_ball=st.booleans(),
    random_schedule=st.booleans(),
)
def test_run_batch_equals_each_run_alone(seeds, every, in_ball, random_schedule):
    fs = Ball(np.array([0.1, -0.2]), 1.2) if in_ball else Box(np.array([-1.0, -1.0]),
                                                             np.array([1.0, 1.0]))
    prob = mixed_family_problem(fs)
    sched = (RandomSchedule(3, 0.6, seed=seeds[0]) if random_schedule
             else StaticSchedule(build_metropolis(complete_graph(3))))
    cfgs = [RunConfig(prob, sched, StepSchedule(0.7, 2.0, 0.8), 25, seed=s, record_every=every)
            for s in seeds]
    for cfg, trace in zip(cfgs, run_batch(cfgs)):
        assert_same_run(trace, run(cfg))


def test_run_batch_rejects_configs_that_differ_beyond_seed_and_start():
    prob = triangle_indefinite_problem()
    sched = StaticSchedule(build_metropolis(complete_graph(3)))
    base = RunConfig(prob, sched, StepSchedule(1.0), 20, seed=0, record_every=2)
    assert len(run_batch([base, dataclasses.replace(base, seed=1,
                                                    initial_states=np.zeros((3, 2)))])) == 2
    others = {
        "problem": triangle_indefinite_problem(),
        "schedule": StaticSchedule(build_metropolis(complete_graph(3))),
        "steps": StepSchedule(0.5),
        "n_iterations": 21,
        "record_every": 3,
    }
    for field, value in others.items():
        with pytest.raises(ConfigError, match=field):
            run_batch([base, dataclasses.replace(base, seed=1, **{field: value})])
    with pytest.raises(ConfigError):
        run_batch([])


def overflowing_problem():
    """Two agents on [-3, 3]; agent 1's gradient x + 0.1 x^999 is about x for
    |x| <= 1 and overflows for |x| > 2.04."""
    fs = Box(np.array([-3.0]), np.array([3.0]))
    coeffs = np.zeros(1001)
    coeffs[2], coeffs[1000] = 0.5, 1e-4
    return Problem(1, (quadratic("f0", [[1.0]], [0.0], grad_bound=3.0, lipschitz=1.0),
                       polynomial("f1", [coeffs.tolist()], grad_bound=1e300, lipschitz=1e300)),
                   fs)


def test_run_batch_drops_a_failing_run_and_keeps_the_others():
    prob = overflowing_problem()
    # agent 1 fuses 0.25 x_0 + 0.75 x_1
    sched = StaticSchedule(np.array([[0.75, 0.25], [0.25, 0.75]]))
    starts = {
        10: [[0.6], [-0.4]],   # stays where agent 1's gradient is small
        11: [[2.8], [2.8]],    # fuses to 2.8: overflows at iteration 0
        12: [[0.0], [2.0]],    # fuses to 1.5, a finite but huge step to -3, and
                               # 0.25 * 0.25 + 0.75 * -3 overflows at iteration 1
        13: [[-0.9], [0.7]],
    }
    cfgs = [RunConfig(prob, sched, StepSchedule(0.5), 40, seed=s, record_every=3,
                      initial_states=np.array(x)) for s, x in starts.items()]
    out = run_batch(cfgs)
    failed = {cfg.seed: (e.agent, e.iteration) for cfg, e in zip(cfgs, out)
              if isinstance(e, EngineError)}
    assert failed == {11: (1, 0), 12: (1, 1)}
    for cfg, outcome in zip(cfgs, out):
        if cfg.seed in failed:
            assert outcome.seed == cfg.seed and f"seed {cfg.seed}" in str(outcome)
            with pytest.raises(EngineError) as alone:
                run(cfg)
            assert (alone.value.agent, alone.value.iteration) == failed[cfg.seed]
        else:
            assert_same_run(outcome, run(cfg))


def test_run_disables_the_bound_on_non_scrambling_schedule():
    prob = triangle_indefinite_problem()
    m1 = build_metropolis(graph(3, [(0, 1)]))
    m2 = build_metropolis(graph(3, [(1, 2)]))
    cfg = RunConfig(prob, CyclicSchedule((m1, m2)), StepSchedule(1.0), 10, seed=0)
    tr = run(cfg)
    assert tr.bound is None and not tr.summary.bound_enabled


def test_run_records_bound_for_scrambling_schedule():
    prob = triangle_indefinite_problem()
    cfg = RunConfig(prob, StaticSchedule(build_metropolis(complete_graph(3))),
                    StepSchedule(1.0), 20, seed=0)
    tr = run(cfg)
    assert tr.summary.bound_enabled and tr.bound is not None
    assert np.all(tr.max_delta <= tr.bound + 1e-9)


def test_run_config_validation():
    prob = single_agent_problem()
    with pytest.raises(ConfigError):
        RunConfig(prob, uniform_schedule(2), StepSchedule(1.0), 10)
    with pytest.raises(ConfigError):
        RunConfig(prob, uniform_schedule(1), StepSchedule(1.0), 10,
                  initial_states=np.array([[5.0]]))  # outside the set
    with pytest.raises(ConfigError):
        RunConfig(prob, uniform_schedule(1), StepSchedule(1.0), -1)
    with pytest.raises(ConfigError):
        RunConfig(prob, uniform_schedule(1), StepSchedule(1.0), 0,
                  initial_states=np.array([[np.nan]]))  # not finite


@pytest.mark.parametrize("field,value", [("n_iterations", True), ("n_iterations", 2.5),
                                         ("seed", -1), ("seed", "3"), ("seed", 1.0),
                                         ("record_every", 2.0), ("record_every", False)])
def test_run_config_takes_only_integers_and_a_non_negative_seed(field, value):
    args = {"problem": single_agent_problem(), "schedule": uniform_schedule(1),
            "steps": StepSchedule(1.0), "n_iterations": 3}
    cfg = RunConfig(**{**args, field: np.int64(2)})  # a numpy integer is an integer
    assert getattr(cfg, field) == 2 and type(getattr(cfg, field)) is int
    with pytest.raises(ConfigError, match=rf"^{field}"):
        RunConfig(**{**args, field: value})


# ---------------------------------------------------------------------------
# trace serialization


# values whose repr is easy to get wrong: signed zero, the least subnormal,
# the switch to exponent notation, and a float that is not a short decimal
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e-7, 0.1, 1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 255, 256, 257, 513]),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    bound=st.sampled_from([None, "finite", math.nan, math.inf, -math.inf]),
    f_star=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    palette=st.lists(st.sampled_from(SPECIAL_FLOATS)
                     | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
    nonfinite_states=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_files_match_the_per_record_reference_writers(
        n, shape, bound, f_star, palette, nonfinite_states, seed):
    rng = np.random.default_rng(seed)
    special = np.array(palette)
    nonfinite = np.array([math.nan, math.inf, -math.inf])

    def column(*dims, extra=None):
        """Floats of many magnitudes, with the palette's (and ``extra``) sprinkled in."""
        a = rng.standard_normal((n, *dims)) * 10.0 ** rng.integers(-200, 200, (n, *dims))
        picked = rng.random(a.shape) < 0.3
        a[picked] = rng.choice(special if extra is None else np.r_[special, extra], picked.sum())
        return a

    S, D = shape
    bounds = None if bound is None else column()
    if bound not in (None, "finite"):
        bounds[rng.random(n) < 0.5] = bound
    # a hand-edited trace that export reads back may hold non-finite states
    trace = RunTrace(
        ks=np.arange(n) * int(rng.integers(1, 5)),
        alphas=column(),
        states=column(S, D, extra=nonfinite if nonfinite_states else None),
        x_bar=column(D, extra=nonfinite if nonfinite_states else None),
        f_bar=column(),
        max_delta=column(),
        max_disagreement=column(),
        bound=bounds,
        summary=None,
    )
    with tempfile.TemporaryDirectory() as tmp:
        ref = Path(tmp) / "reference"
        ref.mkdir()
        reference.write_trace_jsonl(trace, ref / "trace.jsonl")
        reference.write_trace_csv(trace, ref / "trace.csv")
        reference.write_plotdata(trace, ref / "plotdata.csv", f_star)
        expected = {f: (ref / f).read_bytes() for f in TRACE_FILES}
        assert trace_files(trace, Path(tmp) / "run", f_star) == expected
        # the pass without the JSONL
        csv = Path(tmp) / "csv"
        csv.mkdir()
        write_trace_csv(trace, csv / "trace.csv", csv / "plotdata.csv", f_star)
        assert sorted(p.name for p in csv.iterdir()) == ["plotdata.csv", "trace.csv"]
        # export, which copies the reference JSONL's number text
        (ref / "oracle.json").write_text(json.dumps({"f_star": f_star}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.cmd_export(ref, Path(tmp) / "export") == 0
        export = Path(tmp) / "export"
        assert sorted(p.name for p in export.iterdir()) == ["plotdata.csv", "trace.csv"]
        for f in ("trace.csv", "plotdata.csv"):
            assert (csv / f).read_bytes() == expected[f], f
            assert (export / f).read_bytes() == expected[f], f
        back = read_trace_jsonl(ref / "trace.jsonl")
        for name in ("ks", "alphas", "states", "x_bar", "f_bar", "max_delta",
                     "max_disagreement", "bound"):
            a, b = getattr(back, name), getattr(trace, name)
            assert (a is None and b is None) or (a.shape == b.shape
                                                 and a.tobytes() == b.tobytes()), name


def test_trace_jsonl_roundtrip(tmp_path):
    prob = triangle_indefinite_problem()
    sched = StaticSchedule(build_metropolis(complete_graph(3)))
    # 2501 records span ten read blocks of 256 lines
    for iterations, every in ((40, 4), (2500, 1)):
        tr = run(RunConfig(prob, sched, StepSchedule(1.0), iterations, seed=3, record_every=every))
        trace_files(tr, tmp_path / f"trace{iterations}")
        back = read_trace_jsonl(tmp_path / f"trace{iterations}" / "trace.jsonl")
        assert back.n_records == tr.n_records and back.ks.dtype.kind == "i"
        for name in ("ks", "alphas", "states", "x_bar", "f_bar", "max_delta",
                     "max_disagreement", "bound"):
            a, b = getattr(back, name), getattr(tr, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (iterations, name)


def test_trace_csv_layout(tmp_path):
    prob = single_agent_problem()
    cfg = RunConfig(prob, uniform_schedule(1), StepSchedule(1.0), 2,
                    initial_states=np.array([[1.0]]))
    tr = run(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path, tmp_path / "plotdata.csv", None)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,alpha,f_bar,max_disagreement,max_delta,bound,x_0_0"
    assert len(lines) == 1 + tr.n_records
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == tr.f_bar[0]


def test_trace_files_spell_nonfinite_and_absent_bounds(tmp_path):
    tr = RunTrace(
        ks=np.array([0, 1, 2]),
        alphas=np.array([1.0, 0.5, 0.25]),
        states=np.array([[[1.0], [-1.0]], [[0.5], [-0.5]], [[0.25], [0.0]]]),
        x_bar=np.array([[0.0], [0.0], [0.125]]),
        f_bar=np.array([2.0, 1.0, 0.5]),
        max_delta=np.array([1.0, 0.5, 0.125]),
        max_disagreement=np.array([2.0, 1.0, 0.25]),
        bound=np.array([1.0, np.nan, np.inf]),
        summary=None,
    )

    def files(trace, f_star):
        write_trace_csv(trace, tmp_path / "trace.csv", tmp_path / "plotdata.csv", f_star,
                        jsonl=tmp_path / "trace.jsonl")
        return [(tmp_path / f).read_text().splitlines()
                for f in ("trace.jsonl", "trace.csv", "plotdata.csv")]

    jsonl, csv, plot = files(tr, 0.25)
    head = ['{"k": 0, "alpha": 1.0, "x": [[1.0], [-1.0]], "x_bar": [0.0], "f_bar": 2.0, '
            '"max_delta": 1.0, "max_disagreement": 2.0, "bound": ',
            '{"k": 1, "alpha": 0.5, "x": [[0.5], [-0.5]], "x_bar": [0.0], "f_bar": 1.0, '
            '"max_delta": 0.5, "max_disagreement": 1.0, "bound": ',
            '{"k": 2, "alpha": 0.25, "x": [[0.25], [0.0]], "x_bar": [0.125], "f_bar": 0.5, '
            '"max_delta": 0.125, "max_disagreement": 0.25, "bound": ']
    assert jsonl == [h + b + "}" for h, b in zip(head, ("1.0", "NaN", "Infinity"))]
    assert csv == ["k,alpha,f_bar,max_disagreement,max_delta,bound,x_0_0,x_1_0",
                   "0,1.0,2.0,2.0,1.0,1.0,1.0,-1.0",
                   "1,0.5,1.0,1.0,0.5,,0.5,-0.5",
                   "2,0.25,0.5,0.25,0.125,,0.25,0.0"]
    assert plot == ["k,f_gap,max_disagreement,bound",
                    "0,1.75,2.0,1.0", "1,0.75,1.0,nan", "2,0.25,0.25,inf"]
    back = read_trace_jsonl(tmp_path / "trace.jsonl")
    assert back.bound.tobytes() == tr.bound.tobytes()

    tr.bound = None
    jsonl, csv, plot = files(tr, None)
    assert jsonl == [h + "null}" for h in head]
    assert csv[1:] == ["0,1.0,2.0,2.0,1.0,,1.0,-1.0",
                       "1,0.5,1.0,1.0,0.5,,0.5,-0.5",
                       "2,0.25,0.5,0.25,0.125,,0.25,0.0"]
    assert plot[1:] == ["0,,2.0,", "1,,1.0,", "2,,0.25,"]
    assert read_trace_jsonl(tmp_path / "trace.jsonl").bound is None


# ---------------------------------------------------------------------------
# the block-wise invariant check


def force_check_block(monkeypatch, rounds: int, cfgs) -> None:
    """Make run_batch buffer ``rounds`` rounds per invariant check for ``cfgs``."""
    prob = cfgs[0].problem
    monkeypatch.setattr(engine, "_CHECK_FLOATS",
                        rounds * len(cfgs) * prob.n_agents * prob.dimension)


@pytest.mark.parametrize("batch", [1, 20])
@pytest.mark.parametrize("rounds", [1, 2, 3, 7])
def test_summary_does_not_depend_on_the_check_block(monkeypatch, tmp_path, rounds, batch):
    for name in shipped_scenario_names():
        sc = load_shipped(name)
        for K in (0, 1, 43):  # 43 is a multiple of no forced block size
            cfgs = [dataclasses.replace(sc.run_config, seed=s, n_iterations=K, record_every=5)
                    for s in range(batch)]
            default = run_batch(cfgs)
            with monkeypatch.context() as m:
                force_check_block(m, rounds, cfgs)
                forced = run_batch(cfgs)
            for b in sorted({0, batch - 1}):
                run_dir = tmp_path / f"{name}-{K}-{b}"
                run_dir.mkdir()
                assert (run_files(forced[b], run_dir / "forced")
                        == run_files(default[b], run_dir / "default")), (name, K, b)


@pytest.mark.parametrize("rounds", [1, 2, 3, 7])
def test_a_failure_inside_a_check_block_keeps_the_survivors_invariants(monkeypatch, rounds):
    prob = overflowing_problem()
    sched = StaticSchedule(np.array([[0.75, 0.25], [0.25, 0.75]]))
    # the starts of test_run_batch_drops_a_failing_run_and_keeps_the_others
    starts = {10: [[0.6], [-0.4]], 11: [[2.8], [2.8]], 12: [[0.0], [2.0]], 13: [[-0.9], [0.7]]}
    cfgs = [RunConfig(prob, sched, StepSchedule(0.5), 40, seed=s, record_every=3,
                      initial_states=np.array(x)) for s, x in starts.items()]
    alone = {cfg.seed: run(cfg) for cfg in cfgs if cfg.seed in (10, 13)}
    force_check_block(monkeypatch, rounds, cfgs)
    out = run_batch(cfgs)
    # seed 12 fails at iteration 1, inside the first block when it holds 2 or more rounds
    assert [getattr(e, "iteration", None) for e in out] == [None, 0, 1, None]
    for cfg, trace in zip(cfgs, out):
        if cfg.seed in alone:  # the summary holds the drift and slack maxima
            assert_same_run(trace, alone[cfg.seed])


def test_a_failed_run_keeps_its_row_in_every_round(monkeypatch):
    # the overflowing probe of test_run_batch_drops_a_failing_run_and_keeps_the_others
    # at B = 20, three rounds to a check block: seed 11 fails in the first block
    prob = overflowing_problem()
    sched = StaticSchedule(np.array([[0.75, 0.25], [0.25, 0.75]]))
    starts = np.random.default_rng(11).uniform(-0.9, 0.9, (20, 2, 1))
    starts[11] = 2.8
    cfgs = [RunConfig(prob, sched, StepSchedule(0.5), 40, seed=s, record_every=3,
                      initial_states=x) for s, x in enumerate(starts)]
    shapes, grads = [], prob.evaluator.grads

    def recording(x, out=None):
        shapes.append(x.shape)
        return grads(x, out)

    monkeypatch.setattr(prob.evaluator, "grads", recording)
    force_check_block(monkeypatch, 3, cfgs)
    out = run_batch(cfgs)
    assert [b for b, e in enumerate(out) if isinstance(e, EngineError)] == [11]
    assert (out[11].agent, out[11].iteration) == (1, 0)
    assert shapes == [(20, 2, 1)] * 40


def test_the_slack_far_off_the_origin_is_the_direct_per_probe_form():
    # states at |x| ~ 1e4 with S * D = 12: the engine folds the slack through the
    # centred identity, with d = sum_j (v_j - x_j) from each agent's own difference;
    # sum_j v_j - sum_j x_j would carry the rounding of two sums at |x| into it
    S, D = 4, 3
    fs = Box(np.full(D, 1e4), np.full(D, 1e4 + 2.0))
    rng = np.random.default_rng(7)
    comps = []
    for j in range(S):
        m = rng.uniform(-1.0, 1.0, (D, D))
        a = m @ m.T + 0.1 * np.eye(D)
        target = fs.center_point() + rng.uniform(-2.0, 2.0, D)
        comps.append(quadratic(f"f{j}", a, -a @ target, bounds_for=fs))
    prob = Problem(D, tuple(comps), fs)
    sched = StaticSchedule(build_metropolis(ring_graph(S)))
    cfgs = [RunConfig(prob, sched, StepSchedule(0.5), 300, seed=s) for s in range(3)]
    for cfg, trace in zip(cfgs, run_batch(cfgs)):
        x = trace.states[:-1]  # the states each round fused, one record per round
        v = np.matmul(sched.matrices[0], x)
        y = engine._probe_points(fs, cfg.seed)[:, None, None]  # (P, 1, 1, D)
        direct = np.square(v - y).sum(axis=(-2, -1)) - np.square(x - y).sum(axis=(-2, -1))
        slack = trace.summary.max_nonexpansive_slack
        assert abs(slack - direct.max()) <= 1e-12, (cfg.seed, slack, direct.max())
        assert slack <= 1e-9


def poison_gradients(monkeypatch, prob, iteration: int, row: int, agents, value) -> None:
    """Make round ``iteration`` of the next runs of ``prob`` see ``value`` in the
    first coordinate of the gradients of ``agents`` of batch row ``row``."""
    grads, calls = prob.evaluator.grads, itertools.count()

    def poisoned(x, out=None):
        out = grads(x, out)
        if next(calls) == iteration:
            out[row, agents, 0] = value
        return out

    monkeypatch.setattr(prob.evaluator, "grads", poisoned)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("batch,row", [(1, 0), (3, 1)])
@pytest.mark.parametrize("iteration", [5, 7, 9], ids=["first", "middle", "last"])
def test_the_blockwise_finite_check_names_what_a_per_round_check_names(
        monkeypatch, iteration, batch, row, value):
    sc = load_shipped("triangle_quadratic")
    cfgs = [dataclasses.replace(sc.run_config, seed=s, n_iterations=23, record_every=3)
            for s in range(batch)]
    out = {}
    for rounds in (1, 5):  # one round per check is a per-round check; 5 puts rounds 5-9 in one
        with monkeypatch.context() as m:
            force_check_block(m, rounds, cfgs)
            poison_gradients(m, sc.run_config.problem, iteration, row, [2, 1], value)
            out[rounds] = run_batch(cfgs)
    per_round, blockwise = out[1][row], out[5][row]
    assert isinstance(blockwise, EngineError)
    assert (blockwise.agent, blockwise.iteration, blockwise.seed) == (1, iteration, row)
    assert (blockwise.agent, blockwise.iteration, str(blockwise)) == (
        per_round.agent, per_round.iteration, str(per_round))
    kept = [c for i, c in enumerate(cfgs) if i != row]
    for trace, alone in zip([t for i, t in enumerate(out[5]) if i != row],
                            run_batch(kept) if kept else []):
        assert_same_run(trace, alone)


def test_row_sums_equal_numpy_sums_bitwise():
    rng = np.random.default_rng(23)

    def drawn(shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        a[rng.random(shape) < 0.1] = -0.0
        a[rng.random(shape) < 0.1] = 0.0
        return a

    for m in range(1, 21):
        big = drawn((2, 9, 4, m))
        for a in (drawn((m,)), drawn((5, m)), drawn((3, 2, m)), big,
                  big[:, :6],  # the stacked (2, n, B, m) view of a partly filled block
                  big[:, :6, 1:], big[:, :6, [0, 2, 3]],  # a strided and a gathered view
                  np.full((2, 3, m), -0.0)):
            assert engine._row_sums(a).tobytes() == a.sum(axis=-1).tobytes(), (m, a.shape)
    # the drift's sum over the agents of a (2, n, B, S, D) block, where numpy
    # makes S the inner axis when D = 1
    for S, D in itertools.product(range(1, 11), (1, 2, 3)):
        block = drawn((2, 7, 3, S, D))[:, :5]
        assert (engine._row_sums(np.moveaxis(block, 3, -1)).tobytes()
                == block.sum(axis=3).tobytes()), (S, D)


# ---------------------------------------------------------------------------
# the independent reference


def drawn_component(family: str, cid: str, dim: int, rng, fs):
    def sym():
        a = rng.uniform(-1.0, 1.0, (dim, dim))
        return 0.5 * (a + a.T)

    if family == "quadratic":
        return quadratic(cid, sym(), rng.uniform(-1, 1, dim), rng.uniform(-1, 1), bounds_for=fs)
    if family == "polynomial":
        return polynomial(cid, [rng.uniform(-0.5, 0.5, rng.integers(1, 6)) for _ in range(dim)],
                          bounds_for=fs)
    return sine_quadratic(cid, sym(), rng.uniform(-1, 1, dim), rng.uniform(-1, 1),
                          rng.uniform(-0.5, 0.5, dim), rng.uniform(0.5, 3.0, dim), bounds_for=fs)


def drawn_schedule(kind: str, n: int, rng):
    graphs = (complete_graph(n), path_graph(n), ring_graph(n) if n > 2 else complete_graph(n))
    if kind == "static":
        return StaticSchedule(build_metropolis(graphs[rng.integers(3)]))
    if kind == "cyclic":  # the single-edge rounds of a path are not scrambling for n > 2
        return CyclicSchedule(tuple(build_metropolis(graph(n, [(i, i + 1)]))
                                    for i in range(n - 1)) + (build_metropolis(graphs[0]),))
    return RandomSchedule(n, rng.uniform(0.3, 1.0), seed=int(rng.integers(1000)))


@settings(max_examples=40, deadline=None)
@given(
    families=st.lists(st.sampled_from(["quadratic", "polynomial", "sine"]), min_size=2, max_size=6),
    dim=st.integers(1, 3),
    in_ball=st.booleans(),
    schedule=st.sampled_from(["static", "cyclic", "random"]),
    n_iterations=st.integers(0, 200),
    every=st.integers(1, 12),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=3, unique=True),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_run_batch_matches_the_reference_iteration(families, dim, in_ball, schedule,
                                                   n_iterations, every, seeds, data_seed):
    rng = np.random.default_rng(data_seed)
    fs = (Ball(rng.uniform(-0.5, 0.5, dim), rng.uniform(0.5, 1.5)) if in_ball
          else Box(-rng.uniform(0.5, 1.5, dim), rng.uniform(0.5, 1.5, dim)))
    comps = tuple(drawn_component(f, f"f{i}", dim, rng, fs) for i, f in enumerate(families))
    prob = Problem(dim, comps, fs)
    sched = drawn_schedule(schedule, len(comps), rng)
    steps = StepSchedule(rng.uniform(0.05, 0.5), rng.uniform(1.0, 5.0), rng.uniform(0.51, 1.0))
    cfgs = [RunConfig(prob, sched, steps, n_iterations, seed=s, record_every=every)
            for s in seeds]
    traces = run_batch(cfgs)
    for cfg, tr in zip(cfgs, traces):
        ref = reference_run(cfg, initial_states(cfg), engine._probe_points(fs, cfg.seed))
        want_ks = sorted(set(range(0, n_iterations, every)) | {n_iterations})
        assert tr.ks.tolist() == want_ks
        np.testing.assert_allclose(tr.alphas, [ref.alphas[k] for k in want_ks], rtol=1e-15)
        np.testing.assert_allclose(tr.states, ref.states[want_ks], rtol=1e-12, atol=1e-12)
        s = tr.summary
        assert abs(s.max_average_drift - ref.max_drift) <= 1e-12
        assert abs(s.max_nonexpansive_slack - ref.max_slack) <= 1e-12
        assert s.delta0 == pytest.approx(ref.delta0, rel=1e-13)
        assert s.nu == pytest.approx(ref.nu, rel=1e-13, abs=1e-15)
        assert (tr.bound is None) == (ref.caps is None)
        if tr.bound is not None:
            np.testing.assert_allclose(tr.bound, [ref.caps[k] for k in want_ks], rtol=1e-13)
