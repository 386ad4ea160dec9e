"""Command-line entry point: validate, run, sweep, compare, export.

Exit codes: 0 all checks/verdicts pass, 1 a verdict failed or a run aborted
on a numerical failure, 2 assumption validation failed, 3 a malformed command
line, configuration or I/O error.  The default output root is the CONSOPT_OUT
environment variable, falling back to ./runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import statistics
import sys
import time
import typing
from pathlib import Path

from . import analysis, engine
from .network import StaticSchedule, build_metropolis
from .privacy import certify_equivalence, transformed_to_dict
from .problem import ConfigError, ConstructionError, as_float, reading
from .scenario import Scenario, load_scenario, parse_seeds, validate_scenario

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


class SeedRun(typing.NamedTuple):
    """One seed of a scenario batch: its trace, verdict and bound check, or the
    EngineError that stopped it."""

    seed: int
    run_dir: Path | None
    trace: engine.RunTrace | None = None
    verdict: analysis.VerdictReport | None = None
    bound: analysis.BoundCheckReport | None = None
    error: engine.EngineError | None = None

    def row(self) -> dict:
        """The seed's entry in a sweep's aggregate.json."""
        if self.error is not None:
            return _error_row(self.seed, self.error)
        return {
            "seed": self.seed,
            "overall_pass": self.verdict.overall_pass,
            "final_gap": self.verdict.gap_final,
            "final_disagreement": self.verdict.consensus_final,
            "dir": str(self.run_dir),
        }


def _error_row(seed: int, e: Exception) -> dict:
    return {"seed": seed, "error": str(e), "agent": getattr(e, "agent", None),
            "iteration": getattr(e, "iteration", None)}


def run_scenario(sc: Scenario, seeds,
                 run_dirs=None) -> tuple[analysis.OracleSolution, list[SeedRun]]:
    """Run seeds of a scenario as one batch and judge each run.

    Solves the oracle once, steps every seed's ``sc.run_config`` together
    (``engine.run_batch``), then takes each seed's verdict and bound check.
    With ``run_dirs`` (one directory per seed) every artifact of a seed is
    written into its directory.  Returns the oracle and one ``SeedRun`` per
    seed, in order.
    """
    seeds = list(seeds)
    dirs = [None] * len(seeds) if run_dirs is None else [Path(d) for d in run_dirs]
    traces = engine.run_batch([dataclasses.replace(sc.run_config, seed=s) for s in seeds])
    # solved before the batch, the oracle left a 0.2 MB higher peak RSS
    oracle = analysis.centralized_solve(sc.run_config.problem, sc.oracle_budget)
    results = []
    for seed, run_dir, trace in zip(seeds, dirs, traces):
        if isinstance(trace, engine.EngineError):
            results.append(SeedRun(seed, run_dir, error=trace))
            continue
        report = analysis.check_disagreement_bound(trace)
        vd = analysis.verdict(trace, oracle, sc.tol_consensus, sc.tol_gap, report)
        if run_dir is not None:
            _write_artifacts(sc, run_dir, trace, oracle, vd, report)
        results.append(SeedRun(seed, run_dir, trace, vd, report))
    return oracle, results


def _write_artifacts(sc: Scenario, run_dir: Path, trace, oracle, vd, report) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    engine.write_trace_csv(trace, run_dir / "trace.csv", run_dir / "plotdata.csv", oracle.f_star,
                           jsonl=run_dir / "trace.jsonl")
    _write_json(run_dir / "summary.json", trace.summary.to_dict())
    _write_json(run_dir / "oracle.json", oracle.to_dict())
    _write_json(run_dir / "verdict.json", vd.to_dict())
    if sc.transformed is not None:
        _write_json(run_dir / "transformed_problem.json", transformed_to_dict(sc.transformed))
    if report.applicable:
        _write_json(run_dir / "bound_check.json", report.to_dict())


def execute_run(sc: Scenario, seed: int, run_dir: Path) -> dict:
    """Run one seed of a scenario and persist every artifact into run_dir."""
    _, (result,) = run_scenario(sc, [seed], [run_dir])
    if result.error is not None:
        raise result.error
    return result.row()


# ---------------------------------------------------------------------------
# commands


def _print_checks(checks) -> None:
    for c in checks:
        status = "PASS" if c.passed else ("WARN" if c.severity == "warning" else "FAIL")
        print(f"{status} {c.name}: {c.detail}")


def cmd_validate(config_path, out_dir=None) -> int:
    sc = load_scenario(config_path)
    report = validate_scenario(sc)
    _print_checks(report.checks)
    if out_dir:
        root = _out_root(out_dir) / sc.name
        root.mkdir(parents=True, exist_ok=True)
        _write_json(root / "validation.json", report.to_dict())
    print(f"validation {'passed' if report.hard_pass else 'FAILED'} for scenario {sc.name!r}")
    return EXIT_OK if report.hard_pass else EXIT_VALIDATION


def _validate_or_bail(sc: Scenario, force: bool) -> int | None:
    report = validate_scenario(sc)
    _print_checks(c for c in report.checks if not c.passed)
    if not report.hard_pass and not force:
        print("validation failed; re-run with --force to execute anyway")
        return EXIT_VALIDATION
    return None


def cmd_run(config_path, *, out_dir=None, force=False, **overrides) -> int:
    sc = load_scenario(config_path, **overrides)
    bail = _validate_or_bail(sc, force)
    if bail is not None:
        return bail
    use_seed = sc.seeds[0]
    run_dir = _out_root(out_dir) / sc.name / f"seed{use_seed:04d}"
    result = execute_run(sc, use_seed, run_dir)
    print(
        f"scenario {sc.name!r} seed {use_seed}: "
        f"gap {result['final_gap']:.3e}, disagreement {result['final_disagreement']:.3e}, "
        f"verdict {'PASS' if result['overall_pass'] else 'FAIL'} -> {result['dir']}"
    )
    return EXIT_OK if result["overall_pass"] else EXIT_VERDICT


def _sweep_batch(sc: Scenario, seeds, out_dir) -> tuple[float, list[dict]]:
    """One batch of a sweep: its wall time and one aggregate row per seed."""
    start = time.perf_counter()
    root = _out_root(out_dir) / sc.name
    _, results = run_scenario(sc, seeds, [root / f"seed{s:04d}" for s in seeds])
    return time.perf_counter() - start, [r.row() for r in results]


def cmd_sweep(config_path, *, parallel=1, out_dir=None, force=False, **overrides) -> int:
    """Run every seed; ``parallel`` P splits the seeds into P contiguous
    batches, each run in its own process on the loaded scenario."""
    if parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {parallel}")
    sc = load_scenario(config_path, **overrides)
    bail = _validate_or_bail(sc, force)
    if bail is not None:
        return bail
    n = min(parallel, len(sc.seeds))
    batches = [sc.seeds[i * len(sc.seeds) // n:(i + 1) * len(sc.seeds) // n] for i in range(n)]
    walls, results = [], []
    with contextlib.ExitStack() as stack:
        if n > 1:
            from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays for it

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=n))
            calls = [pool.submit(_sweep_batch, sc, b, out_dir).result for b in batches]
        else:
            calls = [lambda: _sweep_batch(sc, sc.seeds, out_dir)]
        for batch, call in zip(batches, calls):
            try:
                wall, rows = call()
            except Exception as e:  # a failed batch is recorded, the sweep continues
                wall, rows = None, [_error_row(s, e) for s in batch]
            walls.append(wall)
            results.extend(rows)

    ok = [r for r in results if r.get("overall_pass")]
    gaps = [r["final_gap"] for r in results if "final_gap" in r]
    diss = [r["final_disagreement"] for r in results if "final_disagreement" in r]
    aggregate = {
        "scenario": sc.name,
        "seeds": list(sc.seeds),
        "n_runs": len(results),
        "n_pass": len(ok),
        "wall_s": walls,
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


def cmd_compare(config_path, *, out_dir=None, force=False, **overrides) -> int:
    sc = load_scenario(config_path, **overrides)
    bail = _validate_or_bail(sc, force)
    if bail is not None:
        return bail
    use_seed = sc.seeds[0]
    root = _out_root(out_dir) / sc.name / "compare"

    if sc.transformed is not None:
        equivalence = certify_equivalence(sc.problem, sc.transformed, 1000, use_seed)
    else:
        from .privacy import EquivalenceReport
        equivalence = EquivalenceReport(0.0, 0.0, 0, True)

    # the transformed leg is the scenario itself
    res_t = execute_run(sc, use_seed, root / "transformed")

    # the original leg reuses the schedule when the agent count is unchanged; only a
    # transform, which needs a graph, changes it: then Metropolis weights on that graph
    if sc.run_config.problem.n_agents == sc.problem.n_agents:
        orig_schedule = sc.run_config.schedule
    else:
        orig_schedule = StaticSchedule(build_metropolis(sc.graph))
    orig = dataclasses.replace(sc, transformed=None, run_config=dataclasses.replace(
        sc.run_config, problem=sc.problem, schedule=orig_schedule, initial_states=None))
    res_o = execute_run(orig, use_seed, root / "original")

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
    """Rewrite a run's ``trace.csv`` and ``plotdata.csv`` from its ``trace.jsonl`` and
    ``oracle.json``, copying each number's text as the run wrote it.  The files are
    streamed block by block into ``.part`` files, which replace the CSVs only once
    the whole trace has been read, so a rejected trace leaves no partial CSV."""
    src = Path(run_dir)
    trace_path = src / "trace.jsonl"
    if not trace_path.exists():
        raise ConfigError(f"no trace.jsonl under {src}")
    trace = engine.read_trace_blocks(trace_path)
    oracle_path = src / "oracle.json"
    f_star = None
    if oracle_path.exists():
        with reading(str(oracle_path)):
            f_star = json.loads(oracle_path.read_text())["f_star"]
            f_star = None if f_star is None else as_float(f_star, f"{oracle_path}: f_star")
    dest = Path(out_dir) if out_dir else src
    dest.mkdir(parents=True, exist_ok=True)
    parts = [dest / "trace.csv.part", dest / "plotdata.csv.part"]
    try:
        n = engine.write_trace_csv(trace, *parts, f_star)
    except BaseException:
        for p in parts:
            p.unlink(missing_ok=True)
        raise
    for p in parts:
        p.replace(p.with_suffix(""))
    print(f"exported {n} records to {dest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a config error (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="consopt", description=__doc__)
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
    try:
        args = build_parser().parse_args(argv)
        if args.command == "validate":
            return cmd_validate(args.config, args.out)
        if args.command == "export":
            return cmd_export(args.run_dir, args.out)
        if args.command == "sweep":
            seeds = parse_seeds(args.seeds, "--seeds") if args.seeds else None
            return cmd_sweep(args.config, seeds=seeds, parallel=args.parallel,
                             n_iterations=args.iterations, decimate=args.decimate,
                             out_dir=args.out, force=args.force)
        seeds = parse_seeds(args.seed, "--seed") if args.seed is not None else None
        if args.command == "run":
            return cmd_run(args.config, seeds=seeds, n_iterations=args.iterations,
                           decimate=args.decimate, out_dir=args.out, force=args.force)
        return cmd_compare(args.config, seeds=seeds, n_iterations=args.iterations,
                           out_dir=args.out, force=args.force)
    except (ConfigError, ConstructionError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.EngineError as e:  # the message names the seed, agent and iteration
        print(f"run error: {e}", file=sys.stderr)
        return EXIT_VERDICT
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())
