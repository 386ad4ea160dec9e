"""Command-line entry point: validate, run, sweep, compare, export.

Exit codes: 0 all checks/verdicts pass, 1 a verdict failed, 2 assumption
validation failed, 3 configuration or I/O error.  The default output root is
the CONSOPT_OUT environment variable, falling back to ./runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import analysis, engine
from .network import ConstructionError, StaticSchedule, build_metropolis
from .privacy import certify_equivalence, transformed_to_dict
from .problem import ConfigError
from .scenario import Scenario, build_run_config, load_scenario, validate_scenario

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_VALIDATION = 2
EXIT_CONFIG = 3


def _out_root(out_dir) -> Path:
    if out_dir:
        return Path(out_dir)
    return Path(os.environ.get("CONSOPT_OUT", "runs"))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def execute_run(sc: Scenario, seed: int, run_dir: Path, *, iterations: int | None = None,
                decimate: int | None = None) -> dict:
    """Run one seed of a scenario and persist every artifact into run_dir."""
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg = build_run_config(sc, seed, n_iterations=iterations, record_every=decimate)
    trace = engine.run(cfg)
    oracle = analysis.centralized_solve(sc.run_problem, sc.oracle_budget)
    vd = analysis.verdict(trace, oracle, sc.tol_consensus, sc.tol_gap)

    engine.write_trace_jsonl(trace, run_dir / "trace.jsonl")
    engine.write_trace_csv(trace, run_dir / "trace.csv")
    _write_json(run_dir / "summary.json", trace.summary.to_dict())
    _write_json(run_dir / "oracle.json", oracle.to_dict())
    _write_json(run_dir / "verdict.json", vd.to_dict())
    engine.write_plotdata(trace, run_dir / "plotdata.csv", oracle.f_star)
    if sc.transformed is not None:
        _write_json(run_dir / "transformed_problem.json", transformed_to_dict(sc.transformed))

    if trace.summary.bound_enabled:
        report = analysis.check_disagreement_bound(trace)
        _write_json(run_dir / "bound_check.json", report.to_dict())

    return {
        "seed": seed,
        "overall_pass": vd.overall_pass,
        "final_gap": vd.gap_final,
        "final_disagreement": vd.consensus_final,
        "dir": str(run_dir),
    }


# ---------------------------------------------------------------------------
# commands


def cmd_validate(config_path, out_dir=None) -> int:
    sc = load_scenario(config_path)
    report = validate_scenario(sc)
    for c in report.checks:
        status = "PASS" if c.passed else ("WARN" if c.severity == "warning" else "FAIL")
        print(f"{status} {c.name}: {c.detail}")
    if out_dir:
        root = _out_root(out_dir) / sc.name
        root.mkdir(parents=True, exist_ok=True)
        _write_json(root / "validation.json", report.to_dict())
    print(f"validation {'passed' if report.hard_pass else 'FAILED'} for scenario {sc.name!r}")
    return EXIT_OK if report.hard_pass else EXIT_VALIDATION


def _validate_or_bail(sc: Scenario, force: bool) -> int | None:
    report = validate_scenario(sc)
    for c in report.checks:
        if not c.passed:
            tag = "WARN" if c.severity == "warning" else "FAIL"
            print(f"{tag} {c.name}: {c.detail}")
    if not report.hard_pass and not force:
        print("validation failed; re-run with --force to execute anyway")
        return EXIT_VALIDATION
    return None


def cmd_run(config_path, *, seed=None, iterations=None, out_dir=None,
            decimate=None, force=False) -> int:
    sc = load_scenario(config_path)
    bail = _validate_or_bail(sc, force)
    if bail is not None:
        return bail
    use_seed = sc.seeds[0] if seed is None else int(seed)
    run_dir = _out_root(out_dir) / sc.name / f"seed{use_seed:04d}"
    result = execute_run(sc, use_seed, run_dir, iterations=iterations, decimate=decimate)
    print(
        f"scenario {sc.name!r} seed {use_seed}: "
        f"gap {result['final_gap']:.3e}, disagreement {result['final_disagreement']:.3e}, "
        f"verdict {'PASS' if result['overall_pass'] else 'FAIL'} -> {result['dir']}"
    )
    return EXIT_OK if result["overall_pass"] else EXIT_VERDICT


def _sweep_worker(payload):
    config_path, seed, out_dir, iterations, decimate = payload
    sc = load_scenario(config_path)
    run_dir = _out_root(out_dir) / sc.name / f"seed{seed:04d}"
    return execute_run(sc, seed, run_dir, iterations=iterations, decimate=decimate)


def cmd_sweep(config_path, *, seeds=None, parallel=1, iterations=None,
              out_dir=None, decimate=None, force=False) -> int:
    sc = load_scenario(config_path)
    bail = _validate_or_bail(sc, force)
    if bail is not None:
        return bail
    seed_list = list(sc.seeds if seeds is None else seeds)
    payloads = [(str(config_path), s, out_dir, iterations, decimate) for s in seed_list]
    results = []
    if parallel > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = {s: pool.submit(_sweep_worker, p) for s, p in zip(seed_list, payloads)}
            for s in seed_list:
                try:
                    results.append(futures[s].result())
                except Exception as e:  # individual failures recorded, sweep continues
                    results.append({"seed": s, "error": str(e)})
    else:
        for s, p in zip(seed_list, payloads):
            try:
                results.append(_sweep_worker(p))
            except Exception as e:
                results.append({"seed": s, "error": str(e)})

    ok = [r for r in results if r.get("overall_pass")]
    gaps = [r["final_gap"] for r in results if "final_gap" in r]
    diss = [r["final_disagreement"] for r in results if "final_disagreement" in r]
    aggregate = {
        "scenario": sc.name,
        "seeds": seed_list,
        "n_runs": len(results),
        "n_pass": len(ok),
        "results": results,
        "summary": {
            "gap": _spread(gaps),
            "disagreement": _spread(diss),
        },
    }
    root = _out_root(out_dir) / sc.name
    root.mkdir(parents=True, exist_ok=True)
    _write_json(root / "aggregate.json", aggregate)
    failures = [r["seed"] for r in results if not r.get("overall_pass")]
    print(f"sweep {sc.name!r}: {len(ok)}/{len(results)} verdicts pass"
          + (f"; failing seeds {failures}" if failures else ""))
    return EXIT_OK if len(ok) == len(results) else EXIT_VERDICT


def _spread(values):
    if not values:
        return None
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def cmd_compare(config_path, *, seed=None, iterations=None, out_dir=None, force=False) -> int:
    sc = load_scenario(config_path)
    bail = _validate_or_bail(sc, force)
    if bail is not None:
        return bail
    use_seed = sc.seeds[0] if seed is None else int(seed)
    root = _out_root(out_dir) / sc.name / "compare"

    if sc.transformed is not None:
        equivalence = certify_equivalence(sc.problem, sc.transformed, 1000, use_seed)
    else:
        from .privacy import EquivalenceReport
        equivalence = EquivalenceReport(0.0, 0.0, 0, True)

    # the transformed leg is the scenario itself
    res_t = execute_run(sc, use_seed, root / "transformed", iterations=iterations)

    # the original leg reuses the schedule when the agent count is unchanged,
    # otherwise falls back to Metropolis weights on the real graph
    if sc.run_problem.n_agents == sc.problem.n_agents:
        orig_schedule = sc.schedule
    else:
        if sc.graph is None:
            raise ConfigError("compare needs a 'graph' field to schedule the original problem")
        orig_schedule = StaticSchedule(build_metropolis(sc.graph))
    orig = dataclasses.replace(sc, transformed=None, schedule=orig_schedule,
                               transform_kind="none", init_points=None)
    res_o = execute_run(orig, use_seed, root / "original", iterations=iterations)

    payload = {
        "seed": use_seed,
        "gap_original": res_o["final_gap"],
        "gap_transformed": res_t["final_gap"],
        "abs_gap_diff": abs(res_o["final_gap"] - res_t["final_gap"]),
        "equivalence": equivalence.to_dict(),
        "passed": bool(equivalence.passed and res_o["overall_pass"] and res_t["overall_pass"]),
    }
    root.mkdir(parents=True, exist_ok=True)
    _write_json(root / "compare.json", payload)
    print(
        f"compare {sc.name!r}: gap original {res_o['final_gap']:.3e} vs transformed "
        f"{res_t['final_gap']:.3e}; equivalence residuals "
        f"{equivalence.value_residual:.2e}/{equivalence.grad_residual:.2e}; "
        f"{'PASS' if payload['passed'] else 'FAIL'}"
    )
    return EXIT_OK if payload["passed"] else EXIT_VERDICT


def cmd_export(run_dir, out_dir=None) -> int:
    src = Path(run_dir)
    trace_path = src / "trace.jsonl"
    if not trace_path.exists():
        raise ConfigError(f"no trace.jsonl under {src}")
    trace = engine.read_trace_jsonl(trace_path)
    oracle_path = src / "oracle.json"
    f_star = json.loads(oracle_path.read_text())["f_star"] if oracle_path.exists() else None
    dest = Path(out_dir) if out_dir else src
    dest.mkdir(parents=True, exist_ok=True)
    engine.write_trace_csv(trace, dest / "trace.csv")
    engine.write_plotdata(trace, dest / "plotdata.csv", f_star)
    print(f"exported {trace.n_records} records to {dest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _parse_seed_range(text: str) -> list[int]:
    if ".." in text:
        a, b = text.split("..", 1)
        return list(range(int(a), int(b)))
    return [int(text)]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="consopt", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output root (default $CONSOPT_OUT or ./runs)")

    p = sub.add_parser("validate", help="run every assumption check")
    common(p)

    p = sub.add_parser("run", help="execute one seed and write trace/verdict files")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--decimate", type=int, default=None)
    p.add_argument("--force", action="store_true", help="run even if validation fails")

    p = sub.add_parser("sweep", help="one run per seed plus an aggregate report")
    common(p)
    p.add_argument("--seeds", type=str, default=None, help="A..B or a single seed")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--decimate", type=int, default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("compare", help="original vs transformed run with matched budgets")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("export", help="regenerate CSV/plot data from a saved trace")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.config, args.out)
        if args.command == "run":
            return cmd_run(args.config, seed=args.seed, iterations=args.iterations,
                           out_dir=args.out, decimate=args.decimate, force=args.force)
        if args.command == "sweep":
            seeds = _parse_seed_range(args.seeds) if args.seeds else None
            return cmd_sweep(args.config, seeds=seeds, parallel=args.parallel,
                             iterations=args.iterations, out_dir=args.out,
                             decimate=args.decimate, force=args.force)
        if args.command == "compare":
            return cmd_compare(args.config, seed=args.seed, iterations=args.iterations,
                               out_dir=args.out, force=args.force)
        if args.command == "export":
            return cmd_export(args.run_dir, args.out)
    except (ConfigError, ConstructionError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


def entrypoint() -> None:
    sys.exit(main())
