"""Acceptance suite: every criterion at its stated tolerance.

Each test evaluates one criterion across the shipped scenario library
(20 seeds where applicable) and prints a single PASS/FAIL line as it
completes, bypassing output capture.
"""

import json
import time

import numpy as np
import pytest

from consopt.analysis import centralized_solve
from consopt.cli import execute_run, main, run_scenario
from consopt.network import (
    build_metropolis, build_two_link_matrix, graph, is_connected, is_doubly_stochastic,
    max_contraction,
)
from consopt.privacy import SIX_VIRTUAL_PATTERN, certify_equivalence
from consopt.problem import sum_value
from consopt.scenario import load_shipped, shipped_scenario_names
from reference import is_scrambling

SEEDS = tuple(range(20))
CONSENSUS_TOL = 1e-3
GAP_TOL = 1e-3
BOUND_TOL = 1e-9
DRIFT_TOL = 1e-12
SLACK_TOL = 1e-9
EQUIV_TOL = 1e-9
ITER_CAP = 100_000
RUNTIME_CAP_S = 60.0

PARTITION_SCENARIOS = ("partition_virtual6_scale0p1", "partition_virtual6_scale1")
SHARING_SCENARIOS = ("sharing_scale0p1", "sharing_scale1")


@pytest.fixture(scope="session")
def suite():
    """Run every shipped scenario at 20 seeds once; later tests read this."""
    results = {}
    for name in shipped_scenario_names():
        sc = load_shipped(name)
        oracle_orig = centralized_solve(sc.problem, sc.oracle_budget)
        t0 = time.perf_counter()
        oracle_run, seed_runs = run_scenario(sc, SEEDS)
        # the seeds run as one batch, so the batch's wall time bounds each run's
        runtime = time.perf_counter() - t0
        runs = []
        for sr in seed_runs:
            if sr.error is not None:
                raise sr.error
            tr, vd = sr.trace, sr.verdict
            entry = {
                "seed": sr.seed,
                "runtime": runtime,
                "disagreement": vd.consensus_final,
                "gap_run": vd.gap_final,
                "gap_orig": float(tr.f_bar[-1]) - oracle_orig.f_star,
                "overall_pass": vd.overall_pass,
                "drift": tr.summary.max_average_drift,
                "slack": tr.summary.max_nonexpansive_slack,
                "bound_enabled": tr.summary.bound_enabled,
            }
            if sr.bound.applicable:
                entry["bound_pass"] = sr.bound.passed
                entry["bound_margin"] = sr.bound.worst_margin
            runs.append(entry)
        results[name] = {
            "scenario": sc,
            "oracle_run": oracle_run,
            "oracle_orig": oracle_orig,
            "runs": runs,
        }
    return results


def test_criterion_1_consensus(suite, acceptance_report):
    worst = max(r["disagreement"] for v in suite.values() for r in v["runs"])
    slowest = max(r["runtime"] for v in suite.values() for r in v["runs"])
    iters_ok = all(v["scenario"].run_config.n_iterations <= ITER_CAP for v in suite.values())
    ok = worst <= CONSENSUS_TOL and slowest <= RUNTIME_CAP_S and iters_ok
    acceptance_report("1-consensus", ok,
           f"worst final disagreement {worst:.3e} (tol {CONSENSUS_TOL}), "
           f"slowest run {slowest:.1f}s, all budgets <= {ITER_CAP}")
    assert ok


def test_criterion_2_convergence(suite, acceptance_report):
    worst_name, worst = max(
        ((name, r["gap_run"]) for name, v in suite.items() for r in v["runs"]),
        key=lambda t: t[1],
    )
    certified = all(v["oracle_run"].certified for v in suite.values())
    n_pass = sum(r["gap_run"] <= GAP_TOL for v in suite.values() for r in v["runs"])
    n_total = sum(len(v["runs"]) for v in suite.values())
    verdicts = all(r["overall_pass"] for v in suite.values() for r in v["runs"])
    ok = n_pass == n_total and certified and verdicts
    acceptance_report("2-convergence", ok,
           f"{n_pass}/{n_total} runs reach f* within {GAP_TOL}; "
           f"worst gap {worst:.3e} ({worst_name}); oracles certified: {certified}; "
           f"full verdicts 20/20 per scenario: {verdicts}")
    assert ok


def test_criterion_3_disagreement_bound(suite, acceptance_report):
    checked = [(name, r) for name, v in suite.items()
               for r in v["runs"] if r["bound_enabled"]]
    scrambling_scenarios = {name for name, _ in checked}
    violations = [(name, r["seed"]) for name, r in checked if not r["bound_pass"]]
    worst = max(r["bound_margin"] for _, r in checked)
    ok = bool(checked) and not violations
    acceptance_report("3-disagreement-bound", ok,
           f"{len(checked)} scrambling runs over {sorted(scrambling_scenarios)} "
           f"checked at {BOUND_TOL}; violations: {violations or 'none'}; "
           f"worst margin {worst:.3e}")
    assert ok


def test_criterion_4_fusion_invariants(suite, acceptance_report):
    drift = max(r["drift"] for v in suite.values() for r in v["runs"])
    slack = max(r["slack"] for v in suite.values() for r in v["runs"])
    ok = drift <= DRIFT_TOL and slack <= SLACK_TOL
    acceptance_report("4-fusion-invariants", ok,
           f"max average drift {drift:.2e} (tol {DRIFT_TOL}), "
           f"max non-expansiveness slack {slack:.2e} (tol {SLACK_TOL})")
    assert ok


def test_criterion_5_privacy_transforms(suite, acceptance_report):
    details = []
    ok = True
    for name in PARTITION_SCENARIOS + SHARING_SCENARIOS:
        sc = suite[name]["scenario"]
        rep = certify_equivalence(sc.problem, sc.transformed, 1000, seed=2024)
        gaps_ok = all(r["gap_orig"] <= GAP_TOL for r in suite[name]["runs"])
        ok &= rep.passed and rep.value_residual <= EQUIV_TOL \
            and rep.grad_residual <= EQUIV_TOL and gaps_ok
        details.append(f"{name}: residuals {rep.value_residual:.1e}/{rep.grad_residual:.1e}, "
                       f"orig-gap 20/20 {'ok' if gaps_ok else 'FAIL'}")
    # the six-virtual construction itself, end to end
    for name in PARTITION_SCENARIOS:
        sc = suite[name]["scenario"]
        six_ok = (sc.run_config.problem.n_agents == 6
                  and sc.transformed.provenance.owners == (0, 0, 1, 1, 2, 2)
                  and np.array_equal(
                      sc.run_config.schedule.distinct_matrices(1)[0],
                      build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25)))
        ok &= six_ok
    acceptance_report("5-privacy-transforms", ok, "; ".join(details))
    assert ok


def test_criterion_6_oracle_grid_crosscheck(suite, acceptance_report):
    pitch = 1e-3
    checked, ok, worst_arg, worst_val = [], True, 0.0, 0.0
    for name, v in suite.items():
        prob = v["scenario"].run_config.problem
        if prob.dimension > 2:
            continue
        sol = v["oracle_run"]
        lo, hi = prob.feasible_set.interval_hull()
        axes = [np.linspace(lo[d], hi[d], int(round((hi[d] - lo[d]) / pitch)) + 1)
                for d in range(prob.dimension)]
        if prob.dimension == 1:
            pts = axes[0][:, None]
        else:
            gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([gx.ravel(), gy.ravel()])
        best_val, best_arg = np.inf, None
        for chunk in np.array_split(pts, max(1, len(pts) // 500_000)):
            vals = sum_value(prob, chunk)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, best_arg = float(vals[i]), chunk[i]
        arg_err = float(np.max(np.abs(sol.x_star - best_arg)))
        val_err = abs(sol.f_star - best_val)
        worst_arg, worst_val = max(worst_arg, arg_err), max(worst_val, val_err)
        ok &= arg_err <= 1e-3 and val_err <= 1e-6
        checked.append(name)
    assert "quartic_d1" in checked  # x^4 + x on [-2, 2] is part of the suite
    acceptance_report("6-oracle-grid", ok,
           f"{len(checked)} problems vs pitch-{pitch} grids; "
           f"worst argument error {worst_arg:.2e} (tol 1e-3), "
           f"worst value error {worst_val:.2e} (tol 1e-6)")
    assert ok


def test_criterion_7_matrix_validators(acceptance_report):
    m = build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25)
    kappa_ok = (not is_scrambling(m)) and max_contraction(m[None]) == 1.0
    rng = np.random.default_rng(7_000)
    n_checked, all_ds = 0, True
    while n_checked < 1000:
        n = int(rng.integers(2, 21))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = rng.random(len(pairs)) < rng.uniform(0.15, 0.9)
        g = graph(n, [p for p, keep in zip(pairs, mask) if keep])
        if not is_connected(g):
            continue
        all_ds &= is_doubly_stochastic(build_metropolis(g), 1e-12)
        n_checked += 1
    ok = kappa_ok and all_ds
    acceptance_report("7-matrix-validators", ok,
           f"two-link matrix: scrambling=False, nu=1; "
           f"{n_checked} random Metropolis matrices doubly stochastic at 1e-12: {all_ds}")
    assert ok


def test_criterion_8_determinism(tmp_path_factory, acceptance_report):
    mismatches = []
    for name in shipped_scenario_names():
        sc = load_shipped(name)
        dirs = [tmp_path_factory.mktemp(f"{name}_{i}") for i in (0, 1)]
        for d in dirs:
            execute_run(sc, SEEDS[0], d)
        for fname in ("trace.jsonl", "trace.csv"):
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append((name, fname))
    ok = not mismatches
    acceptance_report("8-determinism", ok,
           f"{len(shipped_scenario_names())} scenarios re-executed; "
           f"byte mismatches: {mismatches or 'none'}")
    assert ok


def test_criterion_9_negative_controls(tmp_path, capsys, acceptance_report):
    concave = {
        "schema_version": 1,
        "name": "negative_concave",
        "problem": {
            "dimension": 1,
            "set": {"variant": "box", "lo": [-1.0], "hi": [1.0]},
            "components": [
                {"id": "f0", "family": "quadratic",
                 "params": {"a": [[-1.0]], "b": [0.0], "c": 0.0},
                 "grad_bound": 1.0, "lipschitz": 1.0},
                {"id": "f1", "family": "quadratic",
                 "params": {"a": [[0.0]], "b": [0.0], "c": 0.0},
                 "grad_bound": 0.0, "lipschitz": 1e-12},
            ],
        },
        "schedule": {"variant": "static", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
        "steps": {"a": 1.0, "b": 1.0, "p": 1.0},
        "n_iterations": 10,
    }
    p1 = tmp_path / "concave.json"
    p1.write_text(json.dumps(concave))
    rc1 = main(["validate", "--config", str(p1)])
    out1 = capsys.readouterr().out

    disconnected = dict(concave)
    disconnected["name"] = "negative_disconnected"
    disconnected["problem"] = {
        "dimension": 1,
        "set": {"variant": "box", "lo": [-1.0], "hi": [1.0]},
        "components": [
            {"id": f"f{i}", "family": "quadratic",
             "params": {"a": [[1.0]], "b": [0.0], "c": 0.0},
             "grad_bound": 1.5, "lipschitz": 1.0}
            for i in range(3)
        ],
    }
    disconnected["schedule"] = {
        "variant": "static",
        "matrix": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
    }
    p2 = tmp_path / "disconnected.json"
    p2.write_text(json.dumps(disconnected))
    rc2 = main(["validate", "--config", str(p2)])
    out2 = capsys.readouterr().out

    ok = (rc1 == 2 and "FAIL sum-convexity" in out1
          and rc2 == 2 and "FAIL connectivity" in out2)
    acceptance_report("9-negative-controls", ok,
           f"concave sum exit={rc1} (want 2), disconnected schedule exit={rc2} (want 2)")
    assert ok
