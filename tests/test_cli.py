import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from consopt import engine
from consopt.cli import main
from consopt.network import build_metropolis, complete_graph, graph
from consopt.problem import Box, Problem, problem_to_dict, quadratic
from consopt.scenario import (
    load_scenario, load_shipped, shipped_scenario_names, shipped_scenario_path,
    validate_scenario,
)


def small_problem_doc():
    fs = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    comps = (
        quadratic("f0", [[1.0, 0.0], [0.0, 0.5]], [0.25, 0.0], 0.0, bounds_for=fs),
        quadratic("f1", [[0.5, 0.0], [0.0, 1.0]], [0.0, 0.25], 0.1, bounds_for=fs),
        quadratic("f2", [[0.75, 0.25], [0.25, 0.75]], [-0.125, -0.125], 0.0, bounds_for=fs),
    )
    return problem_to_dict(Problem(2, comps, fs))


def scenario_doc(name="tiny_triangle", n_iterations=4000, **extra):
    doc = {
        "schema_version": 1,
        "name": name,
        "problem": small_problem_doc(),
        "graph": {"n_agents": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
        "schedule": {"variant": "static",
                     "matrix": build_metropolis(complete_graph(3)).tolist()},
        "steps": {"a": 1.0, "b": 1.0, "p": 1.0},
        "transform": {"kind": "none"},
        "n_iterations": n_iterations,
        "seeds": {"start": 0, "stop": 3},
        "decimate": 10,
        "tolerances": {"consensus": 1e-3, "gap": 1e-3},
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, doc, fname="scenario.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(doc, indent=2))
    return path


def overflow_config(tmp_path):
    """Two agents whose second gradient overflows outside [-2.04, 2.04]."""
    from test_engine import overflowing_problem
    return write_config(tmp_path, scenario_doc(
        name="overflow",
        problem=problem_to_dict(overflowing_problem()),
        graph={"n_agents": 2, "edges": [[0, 1]]},
        schedule={"variant": "static", "matrix": [[0.75, 0.25], [0.25, 0.75]]},
        steps={"a": 0.5},
        n_iterations=40,
        decimate=5,
    ))


def assert_bound_disabled(run_dir):
    """A non-scrambling schedule's run: no bound in its summary or its trace."""
    assert json.loads((run_dir / "summary.json").read_text())["bound_enabled"] is False
    assert engine.read_trace_jsonl(run_dir / "trace.jsonl").bound is None


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_on_shipped_triangle(capsys):
    rc = main(["validate", "--config", str(shipped_scenario_path("triangle_quadratic"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS sum-convexity" in out and "PASS connectivity" in out


def test_validate_names_the_rounds_a_random_schedule_was_checked_over(capsys, tmp_path):
    rc = main(["validate", "--config", str(shipped_scenario_path("random_nonconvex_d2"))])
    lines = {ln.split(":")[0]: ln for ln in capsys.readouterr().out.splitlines()}
    assert rc == 0
    for check in ("doubly-stochastic", "connectivity", "scrambling"):
        assert "(first 128 of 8000 rounds)" in lines[f"PASS {check}"]
    # a schedule that cycles through fixed matrices is checked over every round
    assert main(["validate", "--config", str(write_config(tmp_path, scenario_doc()))]) == 0
    assert "rounds)" not in capsys.readouterr().out


@pytest.mark.parametrize("name", shipped_scenario_names())
def test_every_shipped_scenario_validates(name):
    assert validate_scenario(load_shipped(name)).hard_pass


def test_generator_reproduces_the_shipped_library():
    tool = Path(__file__).resolve().parents[1] / "tools" / "gen_scenarios.py"
    spec = importlib.util.spec_from_file_location("gen_scenarios", tool)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    texts = gen.scenario_texts()
    assert sorted(texts) == list(shipped_scenario_names())
    for name, text in texts.items():
        assert shipped_scenario_path(name).read_bytes() == text.encode(), name


def test_validate_virtual_six_warns_on_scrambling(capsys):
    rc = main(["validate", "--config",
               str(shipped_scenario_path("partition_virtual6_scale0p1"))])
    out = capsys.readouterr().out
    assert rc == 0  # warning-only severity
    assert "WARN scrambling" in out


def test_validate_concave_sum_fails(tmp_path, capsys):
    fs = Box(np.array([-1.0]), np.array([1.0]))
    comps = (
        quadratic("f0", [[-1.0]], [0.0], 0.0, bounds_for=fs),
        quadratic("f1", [[0.0]], [0.1], 0.0, grad_bound=0.1, lipschitz=1e-9),
    )
    doc = scenario_doc(
        name="concave",
        problem=problem_to_dict(Problem(1, comps, fs)),
        graph={"n_agents": 2, "edges": [[0, 1]]},
        schedule={"variant": "static", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
    )
    rc = main(["validate", "--config", str(write_config(tmp_path, doc))])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL sum-convexity" in out


@pytest.mark.parametrize("schedule,code", [
    (None, 0),
    ({"variant": "static", "matrix": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]}, 2),
], ids=["passing", "disconnected"])
def test_validate_out_writes_the_printed_report(tmp_path, capsys, schedule, code):
    doc = scenario_doc() if schedule is None else scenario_doc(schedule=schedule)
    out = tmp_path / "out"
    rc = main(["validate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    printed = capsys.readouterr().out.splitlines()
    assert rc == code
    report = json.loads((out / "tiny_triangle" / "validation.json").read_text())
    status = lambda c: "PASS" if c["passed"] else ("WARN" if c["severity"] == "warning" else "FAIL")
    assert printed[:-1] == [f"{status(c)} {c['name']}: {c['detail']}" for c in report["checks"]]
    assert report["hard_pass"] is (code == 0)
    assert printed[-1] == (f"validation {'passed' if report['hard_pass'] else 'FAILED'} "
                           f"for scenario 'tiny_triangle'")


def test_validate_disconnected_schedule_fails(tmp_path, capsys):
    doc = scenario_doc(
        name="disconnected",
        schedule={"variant": "static",
                  "matrix": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]},
    )
    rc = main(["validate", "--config", str(write_config(tmp_path, doc))])
    assert rc == 2
    assert "FAIL connectivity" in capsys.readouterr().out


# (case, the edges of each matrix of a cyclic schedule on three agents, validate's
# exit code, the connectivity line it prints: Q is the shortest window whose unions
# all connect, and a failure names the longest window tried, the cycle's length)
CONNECTIVITY_LINES = [
    ("split-matrix", ([(0, 1), (1, 2)], [(0, 1)]), 0,
     "PASS connectivity: window union connected for Q=2 over horizon 50"),
    ("q2-alternating-edges", ([(0, 1)], [(1, 2)]), 0,
     "PASS connectivity: window union connected for Q=2 over horizon 50"),
    ("q3-one-edge-a-round", ([(0, 1)], [(0, 1)], [(1, 2)]), 0,
     "PASS connectivity: window union connected for Q=3 over horizon 50"),
    ("one-split-matrix", ([(0, 1)],), 2,
     "FAIL connectivity: support graph disconnected at matrix index [0]"),
    ("q2-agent-never-reached", ([(0, 1)], [(0, 1)]), 2,
     "FAIL connectivity: window union DISCONNECTED for Q=2 over horizon 50"),
]


@pytest.mark.parametrize("edges,code,line", [c[1:] for c in CONNECTIVITY_LINES],
                         ids=[c[0] for c in CONNECTIVITY_LINES])
def test_validate_prints_the_connectivity_of_each_window(tmp_path, capsys, edges, code, line):
    matrices = [build_metropolis(graph(3, e)).tolist() for e in edges]
    doc = scenario_doc(schedule={"variant": "cyclic", "matrices": matrices}, n_iterations=50)
    rc = main(["validate", "--config", str(write_config(tmp_path, doc))])
    assert rc == code
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("schedule", [
    None,  # scenario_doc's static Metropolis matrix, whose weights are all 1/3
    {"variant": "random", "n_agents": 3, "edge_probability": 0.6, "seed": 1},
], ids=["static", "random"])
def test_declared_eta_and_connectivity_are_ignored(tmp_path, capsys, schedule):
    plain = scenario_doc(n_iterations=50, **({"schedule": schedule} if schedule else {}))
    # a floor above every weight, and a window the schedule does not need
    declared = {**plain, "schedule": {**plain["schedule"], "eta": 0.5},
                "connectivity": {"mode": "q-connected", "Q": 3}}
    results = []
    for i, doc in enumerate((plain, declared)):
        rc = main(["validate", "--config", str(write_config(tmp_path, doc, f"c{i}.json"))])
        results.append((rc, capsys.readouterr()))
    assert results[0][0] == 0 and results[0] == results[1]


def test_validate_fails_checks_on_nonfinite_samples(tmp_path, capsys):
    # evaluated without a RuntimeWarning (the suite turns those into errors)
    rc = main(["validate", "--config", str(overflow_config(tmp_path))])
    lines = {ln.split(":")[0]: ln for ln in capsys.readouterr().out.splitlines()}
    assert rc == 2
    assert "with a non-finite sum" in lines["FAIL sum-convexity"]
    for check in ("gradient-bounds", "gradient-lipschitz"):
        assert "f1: sampled inf > declared 1e+300 (non-finite at " in lines[f"FAIL {check}"]
        assert "of 200 sampled pairs)" in lines[f"FAIL {check}"]


def test_validate_malformed_config_names_field(tmp_path, capsys):
    path = write_config(tmp_path, {"schema_version": 1, "name": "broken"})
    rc = main(["validate", "--config", str(path)])
    assert rc == 3
    assert "problem" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,error", [
    ("params", [1, 2], "TypeError"),
    ("a", "abc", "ValueError"),
])
def test_validate_component_field_of_the_wrong_type_is_a_config_error(tmp_path, capsys,
                                                                        field, value, error):
    doc = json.loads(shipped_scenario_path("triangle_quadratic").read_text())
    comp = doc["problem"]["components"][0]
    (comp if field == "params" else comp["params"])[field] = value
    rc = main(["validate", "--config", str(write_config(tmp_path, doc))])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("config error: ") and f"component {comp['id']!r}" in err
    assert error in err


def _set_field(doc, path, value):
    *parents, key = path.split(".")
    for p in parents:  # a number picks an item of a list
        doc = doc[int(p)] if isinstance(doc, list) else doc[p]
    doc[int(key) if isinstance(doc, list) else key] = value


# (case, dotted field of scenario_doc and its value, text the error must name)
MALFORMED_CONFIGS = [
    ("dimension", "problem.dimension", "x", "problem"),
    ("components-int", "problem.components", 5, "problem"),
    ("components-item", "problem.components", [5], "component"),
    ("set-lo", "problem.set.lo", "abc", "feasible set"),
    ("problem-int", "problem", 3, "problem"),
    ("steps-list", "steps", [1], "steps"),
    ("steps-a", "steps.a", "x", "steps.a"),
    ("n_iterations", "n_iterations", "x", "n_iterations"),
    ("decimate", "decimate", "x", "decimate"),
    ("oracle_budget", "oracle_budget", "x", "oracle_budget"),
    ("edges-int", "graph.edges", 3, "graph"),
    ("edges-short", "graph.edges", [[0]], "graph"),
    ("schedule-int", "schedule", 3, "schedule"),
    ("matrix", "schedule.matrix", "x", "schedule"),
    ("seeds", "seeds", {"start": "a", "stop": 3}, "seeds"),
    ("tolerances-int", "tolerances", 3, "tolerances"),
    ("tolerances-gap", "tolerances.gap", "x", "tolerances.gap"),
    ("points", "init", {"kind": "explicit", "points": "x"}, "init.points"),
    ("points-ragged", "init", {"kind": "explicit", "points": [[0, 0], [0], [0, 0]]},
     "init.points"),
    ("transform-seed", "transform", {"kind": "random_sharing", "scale": 0.1, "seed": "x"},
     "transform.seed"),
    ("oracle_budget-negative", "oracle_budget", -1, "oracle_budget"),
    # integer fields take only JSON integers: no fraction, bool or string
    ("n_iterations-fraction", "n_iterations", 100.9,
     "config error: n_iterations: expected an integer, got 100.9"),
    ("n_iterations-bool", "n_iterations", True,
     "config error: n_iterations: expected an integer, got True"),
    ("decimate-fraction", "decimate", 2.5, "config error: decimate: expected an integer"),
    ("oracle_budget-string", "oracle_budget", "7",
     "config error: oracle_budget: expected an integer, got '7'"),
    ("schema_version-fraction", "schema_version", 1.0,
     "config error: schema_version: expected an integer"),
    ("transform-seed-bool", "transform", {"kind": "random_sharing", "scale": 0.1, "seed": True},
     "config error: transform.seed: expected an integer"),
    ("m_per_agent-fraction", "transform", {"kind": "partition", "m_per_agent": 2.0},
     "config error: transform.m_per_agent: expected an integer"),
    ("graph-n_agents-string", "graph.n_agents", "3",
     "config error: graph.n_agents: expected an integer"),
    ("random-n_agents-fraction", "schedule",
     {"variant": "random", "n_agents": 3.5, "edge_probability": 0.6, "seed": 0},
     "config error: schedule.n_agents: expected an integer"),
    ("edges-fraction", "graph.edges", [[0, 1.7], [0, 2], [1, 2]],
     "config error: graph.edges: expected an integer, got 1.7"),
    ("edges-bool", "graph.edges", [[0, 1], [0, 2], [True, 2]],
     "config error: graph.edges: expected an integer, got True"),
    ("edges-triple", "graph.edges", [[1, 2, 7], [0, 2], [0, 1]],
     "config error: graph.edges: expected a pair of agents"),
    ("dimension-fraction", "problem.dimension", 2.7,
     "config error: problem.dimension: expected an integer, got 2.7"),
    ("dimension-bool", "problem.dimension", True,
     "config error: problem.dimension: expected an integer, got True"),
    ("dimension-string", "problem.dimension", "2",
     "config error: problem.dimension: expected an integer, got '2'"),
    ("pattern-fraction", "schedule",
     {"variant": "kappa", "pattern": [[1.9, 2], [0, 2], [0, 1]], "kappa": 0.25},
     "config error: schedule.pattern: expected an integer, got 1.9"),
    ("pattern-string", "schedule",
     {"variant": "kappa", "pattern": [[1, 2], [0, "2"], [0, 1]], "kappa": 0.25},
     "config error: schedule.pattern: expected an integer, got '2'"),
    # number fields take only JSON numbers: no bool or string
    ("kappa-string", "schedule",
     {"variant": "kappa", "pattern": [[1, 2], [0, 2], [0, 1]], "kappa": "0.25"},
     "config error: schedule.kappa: expected a number, got '0.25'"),
    ("kappa-bool", "schedule",
     {"variant": "kappa", "pattern": [[1, 2], [0, 2], [0, 1]], "kappa": True},
     "config error: schedule.kappa: expected a number, got True"),
    ("edge_probability-string", "schedule",
     {"variant": "random", "n_agents": 3, "edge_probability": "0.6", "seed": 0},
     "config error: schedule.edge_probability: expected a number, got '0.6'"),
    ("edge_probability-bool", "schedule",
     {"variant": "random", "n_agents": 3, "edge_probability": True, "seed": 0},
     "config error: schedule.edge_probability: expected a number, got True"),
    ("steps-a-bool", "steps.a", True, "config error: steps.a: expected a number, got True"),
    ("steps-b-string", "steps.b", "1", "config error: steps.b: expected a number, got '1'"),
    ("steps-p-null", "steps.p", None, "config error: steps.p: expected a number, got None"),
    ("consensus-bool", "tolerances.consensus", False,
     "config error: tolerances.consensus: expected a number, got False"),
    ("gap-string", "tolerances.gap", "1e-3",
     "config error: tolerances.gap: expected a number, got '1e-3'"),
    ("perturbation_scale-string", "transform",
     {"kind": "partition", "m_per_agent": 2, "perturbation_scale": "0.1"},
     "config error: transform.perturbation_scale: expected a number, got '0.1'"),
    ("max_grad_bound-bool", "transform",
     {"kind": "partition", "m_per_agent": 2, "max_grad_bound": True},
     "config error: transform.max_grad_bound: expected a number, got True"),
    ("scale-string", "transform", {"kind": "random_sharing", "scale": "0.5"},
     "config error: transform.scale: expected a number, got '0.5'"),
    ("grad_bound-string", "problem.components.0.grad_bound", "9",
     "config error: component 'f0' grad_bound: expected a number, got '9'"),
    ("lipschitz-bool", "problem.components.1.lipschitz", True,
     "config error: component 'f1' lipschitz: expected a number, got True"),
    ("c-string", "problem.components.2.params.c", "0",
     "config error: component 'f2' params.c: expected a number, got '0'"),
    ("radius-string", "problem.set", {"variant": "ball", "center": [0.0, 0.0], "radius": "1"},
     "config error: set.radius: expected a number, got '1'"),
    # array fields take only JSON numbers in their lists: no bool or string entry
    ("lo-string-entry", "problem.set", {"variant": "box", "lo": ["-1", True], "hi": ["1", "2"]},
     "config error: set.lo: expected a number, got '-1'"),
    ("hi-bool-entry", "problem.set.hi", [1.0, True],
     "config error: set.hi: expected a number, got True"),
    ("center-string-entry", "problem.set", {"variant": "ball", "center": [0.0, "0"], "radius": 1.0},
     "config error: set.center: expected a number, got '0'"),
    ("points-bool-entry", "init", {"kind": "explicit", "points": [[0, 0], [0, True], [0, 0]]},
     "config error: init.points: expected a number, got True"),
    ("a-string-entry", "problem.components.0.params.a", [[1.0, 0.0], [0.0, "0.5"]],
     "config error: component 'f0' params.a: expected a number, got '0.5'"),
    ("b-bool-entry", "problem.components.1.params.b", [True, 0.25],
     "config error: component 'f1' params.b: expected a number, got True"),
    ("coeffs-string-entry", "problem.components.2",
     {"id": "f2", "family": "polynomial-separable", "params": {"coeffs": [[0.0, 1.0, "2"], [1.0]]},
      "grad_bound": 9.0, "lipschitz": 9.0},
     "config error: component 'f2' params.coeffs: expected a number, got '2'"),
    ("amplitude-bool-entry", "problem.components.2",
     {"id": "f2", "family": "sine-perturbed-quadratic",
      "params": {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0,
                 "amplitude": [0.1, False], "frequency": [1.0, 2.0]},
      "grad_bound": 9.0, "lipschitz": 9.0},
     "config error: component 'f2' params.amplitude: expected a number, got False"),
    ("frequency-string-entry", "problem.components.2",
     {"id": "f2", "family": "sine-perturbed-quadratic",
      "params": {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0,
                 "amplitude": [0.1, 0.1], "frequency": ["1", 2.0]},
      "grad_bound": 9.0, "lipschitz": 9.0},
     "config error: component 'f2' params.frequency: expected a number, got '1'"),
    ("matrix-string-entry", "schedule.matrix", [["1", 0, 0], [0, 1, 0], [0, 0, 1]],
     "config error: schedule.matrix: expected a number, got '1'"),
    ("matrices-bool-entry", "schedule", {"variant": "cyclic", "matrices": [[[1, 0, 0], [0, 1, 0],
                                                                          [0, 0, True]]]},
     "config error: schedule.matrices: expected a number, got True"),
    # the mixing-matrix checks
    ("matrix-not-doubly-stochastic", "schedule.matrix",
     [[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.5, 0.5]],
     "config error: matrix rows/columns do not sum to 1 within 1e-12"),
    ("matrix-not-square", "schedule.matrix", [[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]],
     "config error: weight matrix must be square"),
    ("matrix-negative", "schedule.matrix", [[1.2, -0.2, 0.0], [-0.2, 1.2, 0.0], [0.0, 0.0, 1.0]],
     "config error: weight matrix has negative entries"),
    ("cyclic-sizes-differ", "schedule",
     {"variant": "cyclic", "matrices": [build_metropolis(complete_graph(3)).tolist(),
                                        build_metropolis(complete_graph(2)).tolist()]},
     "config error: cyclic schedule matrices must share one size"),
    # configs that loaded and validated, and only the run rejected
    ("decimate-zero", "decimate", 0, "config error: decimate must be >= 1"),
    ("n_iterations-negative", "n_iterations", -5, "n_iterations"),
    ("points-outside-the-set", "init", {"kind": "explicit", "points": [[0, 0], [2, 0], [0, 0]]},
     "config error: init.points must be finite and lie in the feasible set"),
    ("points-of-two-agents", "init", {"kind": "explicit", "points": [[0, 0], [0, 0]]},
     "config error: init.points must have shape (3, 2)"),
]


def _assert_one_config_error(rc, err, names):
    assert rc == 3, err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert names in err and "Traceback" not in err, err


@pytest.mark.parametrize("path,value,names", [c[1:] for c in MALFORMED_CONFIGS],
                         ids=[c[0] for c in MALFORMED_CONFIGS])
def test_validate_malformed_field_is_one_config_error(tmp_path, capsys, path, value, names):
    doc = scenario_doc()
    _set_field(doc, path, value)
    rc = main(["validate", "--config", str(write_config(tmp_path, doc))])
    _assert_one_config_error(rc, capsys.readouterr().err, names)


@pytest.mark.parametrize("case", ["top-level-list", "problem-file-not-json"])
def test_validate_malformed_document_is_one_config_error(tmp_path, capsys, case):
    if case == "top-level-list":
        cfg, names = write_config(tmp_path, [scenario_doc()]), "config"
    else:
        (tmp_path / "prob.json").write_text("{not json")
        cfg = write_config(tmp_path, scenario_doc(problem={"file": "prob.json"}))
        names = "cannot read problem file"
    rc = main(["validate", "--config", str(cfg)])
    _assert_one_config_error(rc, capsys.readouterr().err, names)


@pytest.mark.parametrize("oracle", ['{"x_star": [0.0, 0.0]}', "{not json", '{"f_star": true}',
                                    '{"f_star": "0.5"}'],
                         ids=["no-f_star", "not-json", "bool-f_star", "string-f_star"])
def test_export_malformed_oracle_is_one_config_error(tmp_path, capsys, oracle):
    cfg = write_config(tmp_path, scenario_doc(n_iterations=20))
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])  # verdict may fail
    run_dir = tmp_path / "out" / "tiny_triangle" / "seed0000"
    (run_dir / "oracle.json").write_text(oracle)
    capsys.readouterr()
    rc = main(["export", "--run-dir", str(run_dir), "--out", str(tmp_path / "exported")])
    _assert_one_config_error(rc, capsys.readouterr().err, str(run_dir / "oracle.json"))
    assert not list((tmp_path / "exported").glob("*.csv*"))


# (case, command and its seed options, the config's seeds, text the error must name)
BAD_SEEDS = [
    ("empty-range", ["sweep", "--seeds", "3..3"], None, "--seeds"),
    ("reversed-range", ["sweep", "--seeds", "5..3"], None, "--seeds"),
    ("not-an-integer", ["sweep", "--seeds", "abc"], None, "--seeds"),
    ("range-end-not-an-integer", ["sweep", "--seeds", "1..x"], None, "--seeds"),
    ("negative-run-seed", ["run", "--seed", "-1"], None, "--seed"),
    ("negative-config-range", ["sweep"], {"start": -1, "stop": 1}, "seeds"),
    ("empty-config-range", ["sweep"], {"start": 3, "stop": 3}, "seeds"),
    ("fractional-config-seed", ["sweep"], [0, 1.5], "seeds"),
    ("bool-config-range-start", ["sweep"], {"start": True, "stop": 3}, "seeds"),
]


@pytest.mark.parametrize("argv,seeds,names", [c[1:] for c in BAD_SEEDS],
                         ids=[c[0] for c in BAD_SEEDS])
def test_bad_seed_range_is_one_config_error(tmp_path, capsys, argv, seeds, names):
    doc = scenario_doc(n_iterations=20)
    if seeds is not None:
        doc["seeds"] = seeds
    out = tmp_path / "out"
    rc = main([argv[0], "--config", str(write_config(tmp_path, doc)), "--out", str(out),
               *argv[1:]])
    _assert_one_config_error(rc, capsys.readouterr().err, names)
    assert not out.exists()  # nothing ran


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("seed", [-5, 1.5], ids=["negative", "fractional"])
def test_bad_random_schedule_seed_is_one_config_error(tmp_path, capsys, command, seed):
    doc = scenario_doc(n_iterations=20, schedule={
        "variant": "random", "n_agents": 3, "edge_probability": 0.6, "seed": seed})
    out = tmp_path / "out"
    rc = main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    _assert_one_config_error(rc, capsys.readouterr().err, "random schedule seed")
    assert not out.exists()  # nothing ran


@pytest.mark.parametrize("name",[5, ["a"], "", "..", "../escaped", "a/b"],
                         ids=["int", "list", "empty", "parent", "escaped", "nested"])
def test_scenario_name_must_be_one_path_component(tmp_path, capsys, name):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, scenario_doc(name=name, n_iterations=20))
    for command in ("validate", "run"):
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        _assert_one_config_error(rc, capsys.readouterr().err, "name")
    assert not out.exists() and not (tmp_path / "escaped").exists()


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_sweep_parallel_below_one_is_one_config_error(tmp_path, capsys, parallel):
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(write_config(tmp_path, scenario_doc(n_iterations=20))),
               "--out", str(out), "--parallel", parallel])
    _assert_one_config_error(rc, capsys.readouterr().err, "--parallel")
    assert not out.exists()


@pytest.mark.parametrize("parallel", ["1", "2"])
@pytest.mark.parametrize("option,value,error", [
    ("--decimate", "0", "config error: decimate must be >= 1"),
    ("--iterations", "-5", "config error: n_iterations must be >= 0"),
], ids=["decimate-zero", "iterations-negative"])
def test_sweep_override_follows_the_config_rules(tmp_path, capsys, parallel, option, value,
                                                 error):
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(write_config(tmp_path, scenario_doc(n_iterations=20))),
               "--out", str(out), "--parallel", parallel, option, value])
    _assert_one_config_error(rc, capsys.readouterr().err, error)
    assert not out.exists()  # nothing ran


# (case, command line with CONFIG for the config's path, text the error must name)
MALFORMED_COMMAND_LINES = [
    ("seed-not-an-integer", ["run", "--config", "CONFIG", "--seed", "abc"],
     "argument --seed: invalid int value"),
    ("iterations-not-an-integer", ["run", "--config", "CONFIG", "--iterations", "1e3"],
     "argument --iterations"),
    ("parallel-not-an-integer", ["sweep", "--config", "CONFIG", "--parallel", "two"],
     "argument --parallel"),
    ("unknown-flag", ["run", "--config", "CONFIG", "--bogus"], "unrecognized arguments: --bogus"),
    ("missing-config", ["run"], "required: --config"),
    ("no-command", [], "required: command"),
]


@pytest.mark.parametrize("argv,names", [c[1:] for c in MALFORMED_COMMAND_LINES],
                         ids=[c[0] for c in MALFORMED_COMMAND_LINES])
def test_malformed_command_line_is_one_config_error(tmp_path, capsys, monkeypatch, argv, names):
    cfg = str(write_config(tmp_path, scenario_doc(n_iterations=20)))
    monkeypatch.setenv("CONSOPT_OUT", str(tmp_path / "out"))
    rc = main([cfg if a == "CONFIG" else a for a in argv])
    _assert_one_config_error(rc, capsys.readouterr().err, names)
    assert not (tmp_path / "out").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["sweep", "--help"])
    assert exited.value.code == 0 and "--parallel" in capsys.readouterr().out


def test_null_graph_transform_and_seeds_mean_absent(tmp_path):
    cfg = write_config(tmp_path, scenario_doc(graph=None, transform=None, seeds=None))
    sc = load_scenario(cfg)
    assert sc.graph is None and sc.transformed is None and sc.seeds == (0,)
    assert main(["validate", "--config", str(cfg)]) == 0


def test_validate_unparseable_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 3


# ---------------------------------------------------------------------------
# run


def test_run_writes_all_artifacts(tmp_path):
    cfg = write_config(tmp_path, scenario_doc())
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    run_dir = tmp_path / "out" / "tiny_triangle" / "seed0000"
    for fname in ("trace.jsonl", "trace.csv", "summary.json", "oracle.json",
                  "verdict.json", "plotdata.csv", "bound_check.json"):
        assert (run_dir / fname).exists(), fname
    vd = json.loads((run_dir / "verdict.json").read_text())
    assert vd["overall_pass"] is True
    bc = json.loads((run_dir / "bound_check.json").read_text())
    assert bc["passed"] is True


def probe_config(tmp_path, grad_bound, n_iterations, consensus):
    """Two agents, f0 = x and f1 = -x on [-10, 10], declared with ``grad_bound``,
    from x0 = 0 on the lazy matrix [[0.75, 0.25], [0.25, 0.75]], every round recorded."""
    fs = Box(np.array([-10.0]), np.array([10.0]))
    prob = Problem(1, tuple(quadratic(f"f{i}", [[0.0]], [b], grad_bound=grad_bound,
                                      lipschitz=1e-12)
                            for i, b in enumerate((1.0, -1.0))), fs)
    return write_config(tmp_path, scenario_doc(
        name="probe", problem=problem_to_dict(prob), graph={"n_agents": 2, "edges": [[0, 1]]},
        schedule={"variant": "static", "matrix": [[0.75, 0.25], [0.25, 0.75]]},
        n_iterations=n_iterations, decimate=1, seeds=0,
        init={"kind": "explicit", "points": [[0], [0]]},
        tolerances={"consensus": consensus, "gap": 1e-3},
    ))


def test_disagreement_cap_bounds_the_tight_two_agent_probe(tmp_path):
    # f0 = x and f1 = -x push two agents apart at the full declared gradient
    # bound, and the lazy matrix halves their distance D exactly, so from x0 = 0
    # D_{k+1} = D_k / 2 + 2 alpha_k: round k's step must enter the cap after it
    cfg = probe_config(tmp_path, grad_bound=1.0, n_iterations=2000, consensus=1e-2)
    assert main(["validate", "--config", str(cfg)]) == 0
    # D_2000 is about 4 alpha_2000, which a consensus tolerance of 1e-2 accepts
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run_dir = tmp_path / "out" / "probe" / "seed0000"
    bc = json.loads((run_dir / "bound_check.json").read_text())
    assert (bc["n_checked"], bc["n_violations"]) == (2001, 0)
    assert abs(bc["worst_margin"]) <= 1e-12  # the cap is reached, not just respected
    assert json.loads((run_dir / "verdict.json").read_text())["bound"] == "pass"
    trace = engine.read_trace_jsonl(run_dir / "trace.jsonl")
    assert trace.max_delta[1] == 1.0 and trace.bound[1] == 1.0  # after one step of 1


def test_a_violated_disagreement_cap_fails_the_verdict(tmp_path, capsys):
    # declared grad_bound 0.1 against a true gradient of 1: the cap is ten times
    # too small, while consensus, gap and trend all pass
    cfg = probe_config(tmp_path, grad_bound=0.1, n_iterations=200, consensus=5e-2)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run"), "--force"]) == 1
    assert "verdict FAIL" in capsys.readouterr().out
    run_dir = tmp_path / "run" / "probe" / "seed0000"
    bc = json.loads((run_dir / "bound_check.json").read_text())
    assert (bc["n_checked"], bc["n_violations"], bc["passed"]) == (201, 200, False)
    vd = json.loads((run_dir / "verdict.json").read_text())
    assert vd["consensus"]["pass"] and vd["gap"]["pass"] and vd["trend"]["pass"]
    assert (vd["bound"], vd["overall_pass"]) == ("fail", False)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"), "--force"]) == 1
    (row,) = json.loads((tmp_path / "sweep" / "probe" / "aggregate.json").read_text())["results"]
    assert (row["seed"], row["overall_pass"]) == (0, False)


def test_run_zero_iterations_single_record(tmp_path):
    cfg = write_config(tmp_path, scenario_doc())
    rc = main(["run", "--config", str(cfg), "--iterations", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 1  # consensus cannot hold with scattered initial states
    trace = (tmp_path / "out" / "tiny_triangle" / "seed0000" / "trace.jsonl").read_text()
    assert len(trace.splitlines()) == 1


def test_run_verdict_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, scenario_doc(n_iterations=5))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_run_unwritable_output_dir(tmp_path):
    cfg = write_config(tmp_path, scenario_doc())
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    rc = main(["run", "--config", str(cfg), "--out", str(blocker / "sub")])
    assert rc == 3


def test_run_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, scenario_doc(n_iterations=2000))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for fname in ("trace.jsonl", "trace.csv", "plotdata.csv"):
        fa = tmp_path / "a" / "tiny_triangle" / "seed0000" / fname
        fb = tmp_path / "b" / "tiny_triangle" / "seed0000" / fname
        assert fa.read_bytes() == fb.read_bytes(), fname


def test_run_respects_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CONSOPT_OUT", str(tmp_path / "envout"))
    cfg = write_config(tmp_path, scenario_doc(n_iterations=1000))
    rc = main(["run", "--config", str(cfg), "--iterations", "2000"])
    assert rc == 0
    assert (tmp_path / "envout" / "tiny_triangle" / "seed0000" / "trace.jsonl").exists()


def test_run_force_overrides_failed_validation(tmp_path):
    doc = scenario_doc(
        name="disconnected",
        schedule={"variant": "static",
                  "matrix": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]},
        n_iterations=50,
    )
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 2
    rc = main(["run", "--config", str(cfg), "--force", "--out", str(tmp_path / "o2")])
    assert rc == 1  # runs, but the verdict cannot pass on a split network
    assert_bound_disabled(tmp_path / "o2" / "disconnected" / "seed0000")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_aggregate_and_parallel_agree(tmp_path):
    cfg = write_config(tmp_path, scenario_doc(n_iterations=2500))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "seq")]) == 0
    assert main(["sweep", "--config", str(cfg), "--parallel", "2",
                 "--out", str(tmp_path / "par")]) == 0
    seq = json.loads((tmp_path / "seq" / "tiny_triangle" / "aggregate.json").read_text())
    par = json.loads((tmp_path / "par" / "tiny_triangle" / "aggregate.json").read_text())
    strip = lambda rows: [{k: v for k, v in r.items() if k != "dir"} for r in rows]
    assert seq["n_pass"] == 3 and strip(seq["results"]) == strip(par["results"])
    # one wall time per batch: the whole sweep, then two processes' contiguous seeds
    assert len(seq["wall_s"]) == 1 and len(par["wall_s"]) == 2
    assert all(w > 0 for w in seq["wall_s"] + par["wall_s"])
    assert seq["summary"]["gap"]["min"] <= seq["summary"]["gap"]["median"] <= seq["summary"]["gap"]["max"]


def test_sweep_workers_write_the_sequential_files(tmp_path):
    """The worker processes of a --parallel sweep get the loaded scenario, its
    transform, schedule and overrides included, and write the sequential files."""
    name = "partition_virtual6_scale0p1"
    argv = ["sweep", "--config", str(shipped_scenario_path(name)), "--seeds", "0..4",
            "--iterations", "200", "--decimate", "7"]
    codes = {p: main([*argv, "--parallel", p, "--out", str(tmp_path / p)]) for p in "12"}
    assert codes["1"] == codes["2"]
    for seed in range(4):
        seq, par = (tmp_path / p / name / f"seed{seed:04d}" for p in "12")
        for fname in ("trace.jsonl", "trace.csv", "summary.json"):
            assert (seq / fname).read_bytes() == (par / fname).read_bytes(), (seed, fname)
        assert json.loads((par / "summary.json").read_text())["n_iterations"] == 200
        assert len((par / "trace.jsonl").read_text().splitlines()) == 200 // 7 + 2


def test_sweep_seed_range_flag(tmp_path):
    cfg = write_config(tmp_path, scenario_doc(n_iterations=1500))
    rc = main(["sweep", "--config", str(cfg), "--seeds", "5..7",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    agg = json.loads((tmp_path / "out" / "tiny_triangle" / "aggregate.json").read_text())
    assert agg["seeds"] == [5, 6]


def test_sweep_records_failures_and_continues(tmp_path):
    cfg = write_config(tmp_path, scenario_doc(n_iterations=5))
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    agg = json.loads((tmp_path / "out" / "tiny_triangle" / "aggregate.json").read_text())
    assert agg["n_runs"] == 3 and agg["n_pass"] == 0


def test_sweep_records_a_failed_batch_as_one_error_row_per_seed(tmp_path, capsys, monkeypatch):
    from consopt import cli

    def fail(sc, seeds, out_dir):
        raise RuntimeError("batch lost")

    monkeypatch.setattr(cli, "_sweep_batch", fail)
    cfg = write_config(tmp_path, scenario_doc(n_iterations=20))
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    agg = json.loads((tmp_path / "out" / "tiny_triangle" / "aggregate.json").read_text())
    assert agg["results"] == [{"seed": s, "error": "batch lost", "agent": None,
                               "iteration": None} for s in range(3)]
    assert agg["wall_s"] == [None] and agg["n_runs"] == 3 and agg["n_pass"] == 0
    assert "failing seeds [0, 1, 2]" in capsys.readouterr().out


def test_sweep_reports_failed_runs_and_keeps_the_rest(tmp_path):
    from test_engine import overflowing_problem
    doc = scenario_doc(
        name="overflow",
        problem=problem_to_dict(overflowing_problem()),
        graph={"n_agents": 2, "edges": [[0, 1]]},
        schedule={"variant": "static", "matrix": [[0.75, 0.25], [0.25, 0.75]]},
        steps={"a": 0.5},
        n_iterations=40,
        decimate=5,
    )
    cfg = write_config(tmp_path, doc)
    sc = load_scenario(cfg)
    expected = {}  # each seed run alone: the error it raises, or None
    for seed in range(7):
        try:
            engine.run(dataclasses.replace(sc.run_config, seed=seed))
            expected[seed] = None
        except engine.EngineError as e:
            expected[seed] = {"seed": seed, "error": str(e), "agent": 1, "iteration": e.iteration}
    assert 0 < sum(e is None for e in expected.values()) < 7
    for parallel in ("1", "2"):
        out = tmp_path / f"out{parallel}"
        rc = main(["sweep", "--config", str(cfg), "--seeds", "0..7", "--parallel", parallel,
                   "--force", "--out", str(out)])
        assert rc == 1
        agg = json.loads((out / "overflow" / "aggregate.json").read_text())
        assert [r["seed"] for r in agg["results"]] == list(range(7))
        for row in agg["results"]:
            if expected[row["seed"]] is not None:
                assert row == expected[row["seed"]]
            else:
                assert "error" not in row and Path(row["dir"], "trace.jsonl").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_numerical_failure_is_a_run_error(command, tmp_path, capsys):
    cfg = overflow_config(tmp_path)
    with pytest.raises(engine.EngineError) as raised:
        engine.run(load_scenario(cfg, seeds=[0]).run_config)
    rc = main([command, "--config", str(cfg), "--seed", "0", "--force",
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"run error: {raised.value}\n"
    assert "agent 1 at iteration 1 (seed 0)" in err


# ---------------------------------------------------------------------------
# compare


def test_compare_sharing_scenario(tmp_path):
    doc = scenario_doc(
        name="share",
        transform={"kind": "random_sharing", "scale": 0.5, "seed": 7},
        n_iterations=4000,
    )
    cfg = write_config(tmp_path, doc)
    rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "share" / "compare" / "compare.json").read_text())
    assert rep["equivalence"]["passed"] is True
    assert rep["abs_gap_diff"] < 1e-3
    assert (tmp_path / "out" / "share" / "compare" / "original" / "trace.jsonl").exists()
    tdir = tmp_path / "out" / "share" / "compare" / "transformed"
    assert (tdir / "trace.jsonl").exists()
    tdoc = json.loads((tdir / "transformed_problem.json").read_text())
    assert tdoc["provenance"]["kind"] == "random-sharing"
    assert len(tdoc["components"]) == 3


def test_compare_without_transform_degenerates(tmp_path):
    cfg = write_config(tmp_path, scenario_doc(n_iterations=3000))
    rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "tiny_triangle" / "compare" / "compare.json").read_text())
    assert rep["abs_gap_diff"] == 0.0
    assert rep["equivalence"]["value_residual"] == 0.0


def test_compare_partition_changes_agent_count(tmp_path):
    doc = scenario_doc(
        name="part",
        transform={"kind": "partition", "plan": "six-virtual",
                   "perturbation_scale": 0.1, "seed": 11},
        schedule={"variant": "kappa",
                  "pattern": [[2, 5], [2, 5], [1, 4], [1, 4], [0, 3], [0, 3]],
                  "kappa": 0.25},
        n_iterations=6000,
    )
    cfg = write_config(tmp_path, doc)
    rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert_bound_disabled(tmp_path / "out" / "part" / "compare" / "transformed")
    rep = json.loads((tmp_path / "out" / "part" / "compare" / "compare.json").read_text())
    assert rep["passed"] is True


def test_partition_m_per_agent_shorthand(tmp_path, capsys):
    from consopt.scenario import load_scenario

    def doc(**spelling):
        return scenario_doc(
            name="autopart",
            transform={"kind": "partition", **spelling, "perturbation_scale": 0.1, "seed": 3},
            schedule={"variant": "random", "n_agents": 6,
                      "edge_probability": 0.6, "seed": 1},
            n_iterations=100,
        )
    sc = load_scenario(write_config(tmp_path, doc(m_per_agent=2)))
    assert sc.run_config.problem.n_agents == 6
    assert sc.transformed.provenance.owners == (0, 0, 1, 1, 2, 2)
    # the plan is only "six-virtual"; pieces per agent have one spelling
    rc = main(["validate", "--config",
               str(write_config(tmp_path, doc(plan={"m_per_agent": 2})))])
    _assert_one_config_error(rc, capsys.readouterr().err, "transform.plan")


def test_problem_file_reference(tmp_path):
    from consopt.scenario import load_scenario
    (tmp_path / "prob.json").write_text(json.dumps(small_problem_doc()))
    doc = scenario_doc(name="byref", problem={"file": "prob.json"}, n_iterations=10)
    sc = load_scenario(write_config(tmp_path, doc))
    assert sc.problem.dimension == 2 and sc.problem.n_agents == 3


# ---------------------------------------------------------------------------
# export


def test_export_regenerates_identical_csv(tmp_path):
    cfg = write_config(tmp_path, scenario_doc(n_iterations=1500))
    dense = ["--decimate", "1", "--iterations", "2500"]
    # the shipped decimation, then every one of 2500 iterations (ten read blocks); two
    # shipped scenarios at every iteration: six agents without a bound column, and a bound
    for name, config, extra in (
            ("shipped", cfg, []), ("dense", cfg, dense),
            ("partition", shipped_scenario_path("partition_virtual6_scale0p1"), dense),
            ("triangle", shipped_scenario_path("triangle_quadratic"), dense)):
        out = tmp_path / name
        assert main(["run", "--config", str(config), "--out", str(out / "run"), *extra]) == 0
        (run_dir,) = (out / "run").glob("*/seed0000")
        rc = main(["export", "--run-dir", str(run_dir), "--out", str(out / "exported")])
        assert rc == 0
        assert sorted(p.name for p in (out / "exported").iterdir()) == ["plotdata.csv",
                                                                         "trace.csv"]
        for fname in ("trace.csv", "plotdata.csv"):
            assert (out / "exported" / fname).read_bytes() == (run_dir / fname).read_bytes()


@pytest.fixture(scope="module")
def trace_lines(tmp_path_factory):
    """The lines of a 401-record trace.jsonl with a bound column (two read blocks)."""
    tmp = tmp_path_factory.mktemp("trace")
    cfg = write_config(tmp, scenario_doc(n_iterations=400, decimate=1))
    main(["run", "--config", str(cfg), "--out", str(tmp / "out")])  # verdict may fail
    return (tmp / "out" / "tiny_triangle" / "seed0000" / "trace.jsonl").read_text().splitlines(
        keepends=True)


def edited(line: str, drop=(), **fields) -> str:
    """A trace line with ``fields`` set and the fields named in ``drop`` removed."""
    rec = {k: v for k, v in json.loads(line).items() if k not in drop}
    return json.dumps({**rec, **fields}) + "\n"


def widened(line: str) -> str:
    """A trace line one dimension up: every row of x, and x_bar, end in 0.25."""
    rec = json.loads(line)
    return edited(line, x=[row + [0.25] for row in rec["x"]], x_bar=rec["x_bar"] + [0.25])


# (case, line edited, its new text from the old): every record must be one line,
# k a JSON integer, x an S x D list of lists as in line 1, x_bar of length D, every
# other value a number (the bound also null), and no field but TRACE_FIELDS
BAD_TRACE_LINES = [
    ("truncated", 2, lambda t: t[: len(t) // 2] + "\n"),
    ("split", 2, lambda t: t.replace(', "x_bar"', '\n, "x_bar"')),
    ("two-records", 2, lambda t: t.rstrip("\n") + ", " + t),
    ("two-records-closing-the-line", 2, lambda t: t.rstrip("\n") + "], [" + t),
    ("missing-x", 2, lambda t: edited(t, drop=["x"])),
    ("ragged", 2, lambda t: edited(t, x=[[0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0]])),
    ("x-rows", 2, lambda t: edited(t, x=[[0.0, 0.0], [0.0, 0.0]])),
    ("x-nested", 2, lambda t: edited(t, x=[[0.0, [0.0]], [0.0, 0.0], [0.0, 0.0]])),
    ("x_bar-length", 2, lambda t: edited(t, x_bar=[0.0])),
    ("k-float", 2, lambda t: edited(t, k=1.5)),
    ("k-float-integral", 2, lambda t: edited(t, k=1.0)),
    ("k-string", 2, lambda t: edited(t, k="1")),
    ("k-bool", 2, lambda t: edited(t, k=True)),
    ("alpha-bool", 2, lambda t: edited(t, alpha=True)),
    ("alpha-string", 2, lambda t: edited(t, alpha="0.5")),
    ("alpha-null", 2, lambda t: edited(t, alpha=None)),
    ("alpha-huge-integer", 2, lambda t: edited(t, alpha=10**400)),
    ("bound-string", 2, lambda t: edited(t, bound="0.5")),
    ("extra-field", 2, lambda t: edited(t, note=1)),
    ("first-x-empty", 1, lambda t: edited(t, x=[])),
    ("first-x-empty-row", 1, lambda t: edited(t, x=[[]])),
    ("first-alpha-string", 1, lambda t: edited(t, alpha="1.0")),
    ("second-block", 300, lambda t: edited(t, alpha="0.5")),
    ("second-block-truncated", 300, lambda t: t[: len(t) // 2] + "\n"),
    ("last", 401, lambda t: edited(t, f_bar=[0.5])),
]
# the same, in the trace widened to dimension 3, where a float's text ("1.5") is as
# long as a row: a bare number in place of a row of x or of x_bar
BAD_WIDE_TRACE_LINES = [
    ("x-row-bare-number", 3, lambda t: edited(t, x=[[0.25, 0.25, 0.25], 1.5, [0.0, 0.0, 0.0]])),
    ("x_bar-bare-number", 2, lambda t: edited(t, x_bar=1.5)),
]


def test_export_missing_trace_is_config_error(tmp_path):
    assert main(["export", "--run-dir", str(tmp_path)]) == 3
    (tmp_path / "trace.jsonl").write_text("")
    assert main(["export", "--run-dir", str(tmp_path)]) == 3


@pytest.mark.parametrize("wide,lineno,edit",
                         [(False, *c[1:]) for c in BAD_TRACE_LINES]
                         + [(True, *c[1:]) for c in BAD_WIDE_TRACE_LINES],
                         ids=[c[0] for c in BAD_TRACE_LINES + BAD_WIDE_TRACE_LINES])
def test_export_malformed_trace_names_the_line(tmp_path, capsys, trace_lines, wide, lineno,
                                               edit):
    lines = list(map(widened, trace_lines)) if wide else list(trace_lines)
    lines[lineno - 1] = edit(lines[lineno - 1])
    (tmp_path / "trace.jsonl").write_text("".join(lines))
    assert main(["export", "--run-dir", str(tmp_path)]) == 3
    _assert_one_config_error(3, capsys.readouterr().err,
                             f"{tmp_path / 'trace.jsonl'} line {lineno}:")
    # the CSVs are replaced only once the whole trace has been read
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


def test_export_copies_each_number_as_written(tmp_path, trace_lines):
    # an integer literal in a float field is the float it is, a null bound reads
    # nan, and any other float literal is copied as written
    lines = list(trace_lines)
    lines[1] = edited(lines[1], alpha=1, bound=None)
    lines[299] = edited(lines[299], f_bar=0)
    lines[2] = lines[2].replace('"alpha": 0.3333333333333333', '"alpha": 3.3333333333333333E-1')
    (tmp_path / "trace.jsonl").write_text("".join(lines))
    (tmp_path / "oracle.json").write_text('{"f_star": 0.25}')
    assert main(["export", "--run-dir", str(tmp_path), "--out", str(tmp_path / "out")]) == 0
    csv = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    plot = (tmp_path / "out" / "plotdata.csv").read_text().splitlines()
    assert csv[2].split(",")[1:2] + csv[2].split(",")[5:6] == ["1.0", ""]
    assert plot[2].split(",")[3] == "nan"
    assert csv[3].split(",")[1] == "3.3333333333333333E-1"
    assert csv[300].split(",")[2] == "0.0" and plot[300].split(",")[1] == "-0.25"


# ---------------------------------------------------------------------------
# console entry point


def test_module_invocation_smoke():
    cfg = shipped_scenario_path("nonconvex_sum_d1")
    proc = subprocess.run(
        [sys.executable, "-m", "consopt", "validate", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS sum-convexity" in proc.stdout


def test_cli_import_leaves_out_the_process_pool():
    """Only a parallel sweep imports the process pool and multiprocessing."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, consopt.cli; "
         "print('concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
