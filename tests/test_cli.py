import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from consopt import engine
from consopt.cli import main
from consopt.network import build_metropolis, complete_graph
from consopt.problem import Box, Problem, problem_to_dict, quadratic
from consopt.scenario import (
    build_run_config, load_scenario, load_shipped, shipped_scenario_names,
    shipped_scenario_path, validate_scenario,
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
                     "matrix": build_metropolis(complete_graph(3)).entries.tolist()},
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


def test_validate_disconnected_schedule_fails(tmp_path, capsys):
    doc = scenario_doc(
        name="disconnected",
        schedule={"variant": "static",
                  "matrix": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]},
    )
    rc = main(["validate", "--config", str(write_config(tmp_path, doc))])
    assert rc == 2
    assert "FAIL connectivity" in capsys.readouterr().out


def test_validate_malformed_config_names_field(tmp_path, capsys):
    path = write_config(tmp_path, {"schema_version": 1, "name": "broken"})
    rc = main(["validate", "--config", str(path)])
    assert rc == 3
    assert "problem" in capsys.readouterr().err


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
    with pytest.warns(RuntimeWarning, match="not scrambling"):
        rc = main(["run", "--config", str(cfg), "--force", "--out", str(tmp_path / "o2")])
    assert rc == 1  # runs, but the verdict cannot pass on a split network


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
            engine.run(build_run_config(sc, seed))
            expected[seed] = None
        except engine.EngineError as e:
            expected[seed] = {"seed": seed, "error": str(e), "agent": 1, "iteration": e.iteration}
    assert 0 < sum(e is None for e in expected.values()) < 7
    for parallel in ("1", "2"):
        out = tmp_path / f"out{parallel}"
        with pytest.warns(RuntimeWarning):  # validation samples gradients that overflow
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
    with pytest.warns(RuntimeWarning, match="not scrambling"):  # the six-virtual schedule
        rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "part" / "compare" / "compare.json").read_text())
    assert rep["passed"] is True


def test_partition_m_per_agent_shorthand(tmp_path):
    from consopt.scenario import load_scenario
    doc = scenario_doc(
        name="autopart",
        transform={"kind": "partition", "m_per_agent": 2,
                   "perturbation_scale": 0.1, "seed": 3},
        schedule={"variant": "random", "n_agents": 6,
                  "edge_probability": 0.6, "seed": 1},
        n_iterations=100,
    )
    sc = load_scenario(write_config(tmp_path, doc))
    assert sc.run_problem.n_agents == 6
    assert sc.transformed.provenance.owners == (0, 0, 1, 1, 2, 2)


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
    # the shipped decimation, then every one of 2500 iterations (three read blocks)
    for name, extra in (("shipped", []), ("dense", ["--decimate", "1", "--iterations", "2500"])):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out / "run"), *extra]) == 0
        run_dir = out / "run" / "tiny_triangle" / "seed0000"
        rc = main(["export", "--run-dir", str(run_dir), "--out", str(out / "exported")])
        assert rc == 0
        for fname in ("trace.csv", "plotdata.csv"):
            assert (out / "exported" / fname).read_bytes() == (run_dir / fname).read_bytes()


def test_export_missing_trace_is_config_error(tmp_path, capsys):
    assert main(["export", "--run-dir", str(tmp_path)]) == 3
    cfg = write_config(tmp_path, scenario_doc(n_iterations=20))
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])  # verdict may fail
    good = (tmp_path / "out" / "tiny_triangle" / "seed0000" / "trace.jsonl").read_text()
    first, second, *rest = good.splitlines(keepends=True)
    no_x = json.loads(second)
    del no_x["x"]
    ragged = json.loads(second)
    ragged["x"][1].append(0.0)
    corrupt = {
        "truncated": second[: len(second) // 2] + "\n",
        "missing_x": json.dumps(no_x) + "\n",
        "ragged": json.dumps(ragged) + "\n",
    }
    for name, line in corrupt.items():
        run_dir = tmp_path / name
        run_dir.mkdir()
        (run_dir / "trace.jsonl").write_text("".join([first, line, *rest]))
        capsys.readouterr()
        assert main(["export", "--run-dir", str(run_dir)]) == 3, name
        err = capsys.readouterr().err
        assert f"{run_dir / 'trace.jsonl'} line 2:" in err, (name, err)


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
