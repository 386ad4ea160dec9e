import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consopt.engine import (
    EngineError, RunConfig, RunTrace, StepSchedule, descend, fuse, initial_states,
    read_trace_jsonl, run, run_batch, step_size, write_plotdata, write_trace_csv,
    write_trace_jsonl,
)
from consopt.analysis import max_delta, max_disagreement
from consopt.network import (
    CyclicSchedule, RandomSchedule, StaticSchedule, WeightMatrix, build_metropolis,
    build_two_link_matrix, complete_graph, graph,
)
from consopt.privacy import SIX_VIRTUAL_PATTERN
from consopt.problem import (
    Ball, Box, ConfigError, Problem, polynomial, quadratic, sine_quadratic, sum_value,
)
from consopt.scenario import build_run_config, load_shipped, shipped_scenario_names

BOX1 = Box(np.array([-1.0]), np.array([1.0]))


def single_agent_problem(fs=BOX1):
    return Problem(1, (quadratic("f", [[2.0]], [0.0], bounds_for=fs),), fs)


def uniform_schedule(n):
    return StaticSchedule(WeightMatrix(np.full((n, n), 1.0 / n), 1.0 / (n + 1)))


def triangle_indefinite_problem():
    fs = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
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
    assert step_size(StepSchedule(1.0, 1.0, 1.0), 0) == 1.0
    assert step_size(StepSchedule(1.0, 1.0, 1.0), 9) == 0.1
    assert step_size(StepSchedule(2.0, 4.0, 0.75), 0) == pytest.approx(2 / 4 ** 0.75, rel=1e-15)


def test_step_schedule_monotone_nonincreasing():
    s = StepSchedule(0.7, 3.0, 0.8)
    vals = s.at(np.arange(500))
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 0)


@pytest.mark.parametrize("p", [0.51, 0.73, 1.0])
def test_step_sizes_agree_for_scalar_and_array_iterations(p):
    s = StepSchedule(0.7, 3.0, p)
    ks = np.arange(3000)
    np.testing.assert_array_equal(s.at(ks), [step_size(s, int(k)) for k in ks])


def test_run_records_the_step_each_round_took():
    prob = triangle_indefinite_problem()
    cfg = RunConfig(prob, StaticSchedule(build_metropolis(complete_graph(3))),
                    StepSchedule(0.7, 3.0, 0.73), 200, seed=1, record_every=1)
    tr = run(cfg)
    for k in range(cfg.n_iterations):
        assert tr.alphas[k] == step_size(cfg.steps, k)
        expected = descend(fuse(tr.states[k], cfg.schedule.matrix_at(k)), k, cfg)
        np.testing.assert_array_equal(expected, tr.states[k + 1])


@pytest.mark.parametrize("a,b,p", [(0.0, 1.0, 1.0), (1.0, 0.5, 1.0),
                                   (1.0, 1.0, 0.5), (1.0, 1.0, 1.1)])
def test_step_schedule_rejects_bad_params(a, b, p):
    with pytest.raises(ConfigError):
        StepSchedule(a, b, p)


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
    np.testing.assert_array_equal(out, m.entries)


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
    v = fuse(x0, sched.matrix_at(0))
    x1 = descend(v, 0, cfg)
    alpha = step_size(cfg.steps, 0)
    for j, c in enumerate(prob.components):
        assert np.linalg.norm(x1[j] - v[j]) <= alpha * c.grad_bound + 1e-12


def cyclic_pair_schedule():
    return CyclicSchedule((build_metropolis(graph(3, [(0, 1)])),
                           build_metropolis(graph(3, [(1, 2)]))))


@pytest.mark.parametrize("make_schedule", [
    pytest.param(lambda: StaticSchedule(build_metropolis(complete_graph(3))), id="static"),
    pytest.param(cyclic_pair_schedule, id="cyclic", marks=pytest.mark.filterwarnings(
        "ignore:mixing schedule is not scrambling:RuntimeWarning")),
    pytest.param(lambda: RandomSchedule(3, 0.6, seed=5), id="random"),
])
@pytest.mark.parametrize("make_problem", [triangle_indefinite_problem, mixed_family_problem])
def test_run_round_is_public_fuse_then_descend(make_problem, make_schedule):
    prob = make_problem()
    sched = make_schedule()
    cfg = RunConfig(prob, sched, StepSchedule(1.0), 30, seed=4, record_every=1)
    tr = run(cfg)
    np.testing.assert_array_equal(tr.states[0], initial_states(cfg))
    for k in range(cfg.n_iterations):
        expected = descend(fuse(tr.states[k], sched.matrix_at(k)), k, cfg)
        np.testing.assert_array_equal(expected, tr.states[k + 1])
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


def test_run_deterministic_and_bitwise_exports(tmp_path):
    prob = triangle_indefinite_problem()
    sched = StaticSchedule(build_metropolis(complete_graph(3)))
    cfg = RunConfig(prob, sched, StepSchedule(1.0), 300, seed=9, record_every=7)
    t1, t2 = run(cfg), run(cfg)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.f_bar, t2.f_bar)
    for name, tr in (("a", t1), ("b", t2)):
        write_trace_jsonl(tr, tmp_path / f"{name}.jsonl")
        write_trace_csv(tr, tmp_path / f"{name}.csv")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
    path.mkdir()
    write_trace_jsonl(trace, path / "trace.jsonl")
    write_trace_csv(trace, path / "trace.csv")
    files = {f: (path / f).read_bytes() for f in ("trace.jsonl", "trace.csv")}
    files["summary.json"] = json.dumps(trace.summary.to_dict(), indent=2).encode()
    return files


@pytest.mark.parametrize("every", [1, None], ids=["every-iteration", "shipped-decimation"])
@pytest.mark.parametrize("index,name", enumerate(shipped_scenario_names()))
def test_seed_from_a_batch_of_twenty_writes_its_batch_of_one_files(tmp_path, index, name, every):
    sc = load_shipped(name)
    seed = 7 * index % 20  # a different position in the batch per scenario
    cfgs = [build_run_config(sc, s, n_iterations=2000, record_every=every) for s in range(20)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the non-scrambling notice
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
    sched = StaticSchedule(WeightMatrix(np.array([[0.75, 0.25], [0.25, 0.75]]), 0.25))
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


def test_run_warns_on_non_scrambling_schedule():
    prob = triangle_indefinite_problem()
    m1 = build_metropolis(graph(3, [(0, 1)]))
    m2 = build_metropolis(graph(3, [(1, 2)]))
    cfg = RunConfig(prob, CyclicSchedule((m1, m2)), StepSchedule(1.0), 10, seed=0)
    with pytest.warns(RuntimeWarning, match="not scrambling"):
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


# ---------------------------------------------------------------------------
# trace serialization


def test_trace_jsonl_roundtrip(tmp_path):
    prob = triangle_indefinite_problem()
    sched = StaticSchedule(build_metropolis(complete_graph(3)))
    # 2501 records span three read blocks
    for iterations, every in ((40, 4), (2500, 1)):
        tr = run(RunConfig(prob, sched, StepSchedule(1.0), iterations, seed=3, record_every=every))
        path = tmp_path / f"trace{iterations}.jsonl"
        write_trace_jsonl(tr, path)
        back = read_trace_jsonl(path)
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
    write_trace_csv(tr, path)
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
        write_trace_jsonl(trace, tmp_path / "trace.jsonl")
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_plotdata(trace, tmp_path / "plotdata.csv", f_star)
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
