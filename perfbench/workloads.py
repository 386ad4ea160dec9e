"""The benchmark's workloads and the checks their outputs must pass.

Each workload is a fixed sequence of ``consopt`` CLI commands, run in-process
through ``consopt.cli.main``.  A workload seed picks the program's inputs:
the sweep's seed range, the run seed and, for ``random_schedule``, the
generated scenario.  Every seed-run the commands produce is checked for exit
codes, verdicts, the disagreement cap, the fusion invariants and
byte-identical traces across repetitions.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import shutil
import time
import traceback
import warnings
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# the acceptance suite's tolerances for the fusion invariants
DRIFT_TOL = 1e-12
SLACK_TOL = 1e-9

SWEEP_SCENARIO = "triangle_quadratic"
SWEEP_SEEDS = 20
SWEEP_ITERATIONS = 1500
RANDOM_ITERATIONS = 4000
DENSE_SCENARIO = "partition_virtual6_scale0p1"
DENSE_ITERATIONS = 12000

WORKLOADS = ("sweep_static", "random_schedule", "dense_trace")


@dataclass(frozen=True)
class Plan:
    """One workload at one seed: the commands to run and where results land."""

    name: str
    config: Path                     # the scenario config the commands read
    out: Path
    commands: tuple[tuple[str, ...], ...]
    seed_dirs: tuple[Path, ...]      # one run directory per seed-run
    iterations: int                  # engine iterations per seed-run
    export_dir: Path | None = None   # where `export` rewrites the run's CSV

    @property
    def total_iterations(self) -> int:
        return self.iterations * len(self.seed_dirs)


def work_dir(root: Path, name: str, seed: int) -> Path:
    return root / ".perfbench" / f"{name}-seed{seed}"


def _scenario_name(config: Path) -> str:
    return json.loads(config.read_text()).get("name", config.stem)


def _shipped(root: Path, scenario: str) -> Path:
    return root / "src" / "consopt" / "scenarios" / f"{scenario}.json"


def plan(name: str, seed: int, root: Path, work: Path) -> Plan:
    """Write the workload's inputs under ``work`` and return its plan."""
    out = work / "out"
    if name == "sweep_static":
        config = _shipped(root, SWEEP_SCENARIO)
        first = SWEEP_SEEDS * seed
        seeds = range(first, first + SWEEP_SEEDS)
        runs = out / _scenario_name(config)
        return Plan(name, config, out, (
            ("sweep", "--config", str(config), "--seeds", f"{first}..{first + SWEEP_SEEDS}",
             "--parallel", "1", "--iterations", str(SWEEP_ITERATIONS), "--out", str(out)),
        ), tuple(runs / f"seed{s:04d}" for s in seeds), SWEEP_ITERATIONS)
    if name == "random_schedule":
        from scenario_gen import random_schedule_config

        config = work / "inputs" / "random_schedule.json"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps(random_schedule_config(seed, RANDOM_ITERATIONS), indent=1))
        run_dir = out / _scenario_name(config) / f"seed{seed:04d}"
        return Plan(name, config, out, (
            ("validate", "--config", str(config)),
            ("run", "--config", str(config), "--seed", str(seed), "--out", str(out)),
        ), (run_dir,), RANDOM_ITERATIONS)
    if name == "dense_trace":
        config = _shipped(root, DENSE_SCENARIO)
        run_dir = out / _scenario_name(config) / f"seed{seed:04d}"
        export_dir = out / "export"
        return Plan(name, config, out, (
            ("run", "--config", str(config), "--seed", str(seed), "--iterations",
             str(DENSE_ITERATIONS), "--decimate", "1", "--out", str(out)),
            ("export", "--run-dir", str(run_dir), "--out", str(export_dir)),
        ), (run_dir,), DENSE_ITERATIONS, export_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# one repetition


@dataclass(frozen=True)
class Rep:
    wall_s: float
    codes: tuple[int, ...]
    error: str | None
    runtime_warnings: int
    log: str


@contextmanager
def _count_runtime_warnings():
    """Count every RuntimeWarning raised inside the block and still show it."""
    count = [0]
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        show = warnings.showwarning

        def counting_show(message, category, *args, **kwargs):
            if issubclass(category, RuntimeWarning):
                count[0] += 1
            show(message, category, *args, **kwargs)

        warnings.showwarning = counting_show
        yield count


def execute(p: Plan) -> Rep:
    """Run the plan's commands once from a clean output root and time them."""
    from consopt.cli import main

    shutil.rmtree(p.out, ignore_errors=True)
    gc.collect()
    codes: list[int] = []
    error = None
    log = io.StringIO()
    with _count_runtime_warnings() as warned, redirect_stdout(log):
        start = time.perf_counter()
        try:
            for argv in p.commands:
                codes.append(main(list(argv)))
        except Exception:  # a crash fails the repetition's seed-runs; keep measuring
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - start
    return Rep(wall, tuple(codes), error, warned[0], log.getvalue())


# ---------------------------------------------------------------------------
# checks


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def check_seed_run(run_dir: Path) -> list[str]:
    """Problems with one seed-run's outputs; empty when it passes."""
    try:
        verdict = _load(run_dir / "verdict.json")
        summary = _load(run_dir / "summary.json")
        bound = _load(run_dir / "bound_check.json") if summary["bound_enabled"] else None
    except (OSError, ValueError, KeyError) as e:
        return [f"missing or unreadable output: {e}"]
    problems = []
    if verdict.get("overall_pass") is not True:
        problems.append("verdict FAIL")
    if not summary["max_average_drift"] <= DRIFT_TOL:
        problems.append(f"average drift {summary['max_average_drift']!r} > {DRIFT_TOL}")
    if not summary["max_nonexpansive_slack"] <= SLACK_TOL:
        problems.append(f"non-expansive slack {summary['max_nonexpansive_slack']!r} > {SLACK_TOL}")
    if bound is not None and bound.get("passed") is not True:
        problems.append(f"disagreement cap violated ({bound.get('n_violations')} records)")
    return problems


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


@dataclass
class Outcome:
    """Seed-runs attempted and failed over every repetition of one workload.

    The first repetition's trace digests are the reference: a later
    repetition of the same seed must write a byte-identical ``trace.jsonl``.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: tuple[str | None, ...] | None = None

    def add(self, p: Plan, rep: Rep) -> None:
        rep_problems = []
        if rep.error is not None:
            rep_problems.append(f"exception: {rep.error.strip().splitlines()[-1]}")
        if len(rep.codes) != len(p.commands) or any(rep.codes):
            last_lines = " | ".join(rep.log.strip().splitlines()[-2:])
            rep_problems.append(f"exit codes {list(rep.codes)}: {last_lines}")
        if p.export_dir is not None:
            exported = _digest(p.export_dir / "trace.csv")
            if exported is None or exported != _digest(p.seed_dirs[0] / "trace.csv"):
                rep_problems.append("exported trace.csv differs from the run's")

        digests = tuple(_digest(d / "trace.jsonl") for d in p.seed_dirs)
        if self.reference is None:
            self.reference = digests
        for run_dir, digest, ref in zip(p.seed_dirs, digests, self.reference):
            problems = rep_problems + check_seed_run(run_dir)
            if digest != ref:
                problems.append("trace.jsonl differs from the first repetition")
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{run_dir.name}: {'; '.join(problems)}")
