#!/usr/bin/env python3
"""Print seed-0 artifact digests for every shipped scenario.

For each scenario, runs ``execute_run`` at seed 0 into a temporary
directory and prints the sha256 of ``trace.jsonl``, ``trace.csv``,
``plotdata.csv``, ``summary.json``, ``oracle.json``, ``verdict.json``,
``bound_check.json`` and ``transformed_problem.json`` (``-`` for a file the
run does not write: no bound check when the schedule is not scrambling, no
transformed problem without a transform), plus the oracle's ``f_star``.
It then runs ``cmd_export`` on that directory into a second one and prints
the sha256 of the ``trace.csv`` and ``plotdata.csv`` it wrote (``export/``
lines), so the read path is compared too.
Each scenario runs twice: with its own iterations and decimation, and
loaded with ``load_scenario(path, n_iterations=2000, decimate=1)``
(``<name>@dense`` lines), so that the record path is compared at every
iteration.  Then seeds 0-2 run as one ``run_scenario`` batch at the shipped
settings, and the sha256 of each seed's ``trace.jsonl`` and ``summary.json``
is printed (``<name>@batch`` lines), so that the layout of a batch of several
runs is compared too.  Before its runs, each scenario
goes through ``cmd_validate`` with an output root, and the sha256 of what it
printed and of the ``validation.json`` it wrote are printed (``validate/``
lines), so that loading and validation are compared too.  Last come the
``transform/`` lines: for one seeded 3-agent problem of each component family
on the triangle, the sha256 of ``json.dumps(transformed_to_dict(t))`` for the
partition transform at 1, 2 and 3 pieces per agent (``default_plan``) and for
random function sharing, so the transforms are compared for every family,
also those no shipped scenario uses.  Then come the ``random/`` lines: the
sha256 of ``RandomSchedule(S, p, seed).distinct_matrices(H).tobytes()`` for a
few schedules, among them a seed of several 32-bit words and an edge
probability at which most rounds redraw, so the random builder is compared
beyond the one schedule a shipped scenario uses.  Last come the ``@fail``
lines: one seeded ``run_batch`` of four runs on a 2-agent problem whose
gradient overflows past a wall, in which one run fails at iteration 0, in the
first check block, and one at iteration 596, in a later one; the sha256 of each
survivor's ``trace.jsonl`` and ``summary.json`` and of each failure's message
are printed, so the path of a failed run is compared too.  Comparing the output
of two checkouts checks that a change kept every trace and report
byte-identical: save one checkout's digests, then check the other against them,
which prints the lines that differ and exits 1 on any difference:

    PYTHONPATH=src python tools/trace_digests.py > digests.txt
    PYTHONPATH=src python tools/trace_digests.py --against digests.txt

Each checkout runs its own copy of this tool, since the calls it makes into
``consopt`` follow that checkout's API.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from consopt.cli import cmd_export, cmd_validate, execute_run, run_scenario
from consopt.engine import EngineError, RunConfig, StepSchedule, run_batch, write_trace_csv
from consopt.network import RandomSchedule, StaticSchedule, complete_graph
from consopt.privacy import (
    default_plan, partition_problem, random_function_sharing, transformed_to_dict,
)
from consopt.problem import Box, Problem, polynomial, quadratic, sine_quadratic
from consopt.scenario import load_scenario, shipped_scenario_names, shipped_scenario_path

FILES = ("trace.jsonl", "trace.csv", "plotdata.csv", "summary.json", "oracle.json",
         "verdict.json", "bound_check.json", "transformed_problem.json")
EXPORTED = ("trace.csv", "plotdata.csv")
# (label suffix, load_scenario overrides): the shipped settings, then every iteration
SETTINGS = (("", {}), ("@dense", {"n_iterations": 2000, "decimate": 1}))
BATCH_SEEDS = (0, 1, 2)  # the seeds of the @batch lines, run as one batch
BATCH_FILES = ("trace.jsonl", "summary.json")
TRANSFORM_SEED = 1608
# (n_agents, edge_probability, seed, horizon) of the random/ lines: perfbench's
# schedule size, seeds of one, three and four 32-bit words, a heavy redraw, and
# a mid-size schedule with redraws whose horizon spans many draw blocks
RANDOM_SCHEDULES = ((8, 0.4, 0, 4000), (3, 0.6, 1608, 1000), (8, 0.12, 2**64 + 5, 300),
                    (12, 0.3, 2**100 + 1, 300), (2, 0.3, 2**31 - 1, 1000),
                    (20, 0.15, 2**33 + 1, 1500))

# the first coordinate of each agent's start in the @fail batch: at 2.8 the gradient
# overflows at once; from about 6e-22 the iterate grows past the wall at 1.0023 at
# iteration 596, while its step is still too long to stay there; the last two
# runs stay far inside it
FAIL_STARTS = ((2.8, 2.8), (5e-22, 7e-22), (2e-40, 1e-40), (-1e-40, -3e-40))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def _family_problems():
    """One seeded 3-agent problem per component family on the box [-1, 1]^2."""
    rng = np.random.default_rng(TRANSFORM_SEED)
    fs = Box(-np.ones(2), np.ones(2))

    def sym():
        m = rng.standard_normal((2, 2))
        return m + m.T

    builders = {
        "quadratic": lambda cid: quadratic(
            cid, sym(), rng.standard_normal(2), rng.standard_normal(), bounds_for=fs),
        # coefficient lists of unequal length, one shorter than a quadratic
        "polynomial": lambda cid: polynomial(
            cid, [rng.standard_normal(2), rng.standard_normal(5)], bounds_for=fs),
        "sine": lambda cid: sine_quadratic(
            cid, sym(), rng.standard_normal(2), rng.standard_normal(),
            rng.uniform(0.1, 1.0, 2), rng.uniform(1.0, 3.0, 2), bounds_for=fs),
    }
    for family, build in builders.items():
        yield family, Problem(2, tuple(build(f"f{i}") for i in range(3)), fs)


def transform_digests():
    """Yield one line per transform of each family's problem on the triangle."""
    g = complete_graph(3)
    for family, prob in _family_problems():
        runs = [(f"partition-m{m}", partition_problem(prob, g, default_plan(g, m), TRANSFORM_SEED))
                for m in (1, 2, 3)]
        runs.append(("sharing", random_function_sharing(prob, g, 1.0, TRANSFORM_SEED)))
        for label, t in runs:
            text = json.dumps(transformed_to_dict(t))
            yield f"transform/{family} {label} {hashlib.sha256(text.encode()).hexdigest()}"


def random_digests():
    """Yield one line per random schedule of ``RANDOM_SCHEDULES``."""
    for n, p, seed, horizon in RANDOM_SCHEDULES:
        mats = RandomSchedule(n, p, seed).distinct_matrices(horizon)
        yield (f"random/S{n} p={p} seed={seed} H={horizon} "
               f"{hashlib.sha256(mats.tobytes()).hexdigest()}")


def _failing_batch():
    """The @fail batch: two agents on [-3, 3]^2, each with the first coordinate's
    -x^2/2 + 1e-4 x^1000, whose gradient walls off |x| < 1.0023 and overflows
    from |x| > 2.04, and a second coordinate's (x -+ 1)^2/2, from seeded starts."""
    wall = np.zeros(1001)
    wall[2], wall[1000] = -0.5, 1e-4
    fs = Box(np.full(2, -3.0), np.full(2, 3.0))
    prob = Problem(2, tuple(polynomial(f"f{i}", [wall, [0.0, s, 0.5]], grad_bound=1e300,
                                       lipschitz=1e300) for i, s in enumerate((-1.0, 1.0))), fs)
    sched = StaticSchedule(np.array([[0.75, 0.25], [0.25, 0.75]]))
    second = np.random.default_rng(TRANSFORM_SEED).uniform(-3.0, 3.0, (len(FAIL_STARTS), 2))
    return [RunConfig(prob, sched, StepSchedule(10.0), 2000, seed=s, record_every=7,
                      initial_states=np.column_stack([first, x2]))
            for s, (first, x2) in enumerate(zip(FAIL_STARTS, second))]


def fail_digests(tmp: Path):
    """Yield one line per survivor's file and per failure of the @fail batch."""
    cfgs = _failing_batch()
    for cfg, out in zip(cfgs, run_batch(cfgs)):
        if isinstance(out, EngineError):
            yield f"@fail seed{cfg.seed} error {hashlib.sha256(str(out).encode()).hexdigest()}"
            continue
        jsonl = tmp / f"fail-seed{cfg.seed}.jsonl"
        write_trace_csv(out, tmp / "fail.csv", tmp / "fail-plot.csv", None, jsonl=jsonl)
        summary = json.dumps(out.summary.to_dict(), indent=2).encode()
        yield f"@fail seed{cfg.seed} trace.jsonl {_sha256(jsonl)}"
        yield f"@fail seed{cfg.seed} summary.json {hashlib.sha256(summary).hexdigest()}"


def digests():
    """Yield the digest lines, scenario by scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in shipped_scenario_names():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                cmd_validate(shipped_scenario_path(name), Path(tmp) / "validate")
            yield (f"{name} validate/stdout "
                   f"{hashlib.sha256(stdout.getvalue().encode()).hexdigest()}")
            report = Path(tmp) / "validate" / name / "validation.json"
            yield f"{name} validate/validation.json {_sha256(report)}"
            for suffix, overrides in SETTINGS:
                label = name + suffix
                run_dir = Path(tmp) / label
                execute_run(load_scenario(shipped_scenario_path(name), **overrides), 0, run_dir)
                export_dir = Path(tmp) / f"{label}-export"
                with contextlib.redirect_stdout(io.StringIO()):
                    cmd_export(run_dir, export_dir)
                f_star = json.loads((run_dir / "oracle.json").read_text())["f_star"]
                for fname in FILES:
                    yield f"{label} {fname} {_sha256(run_dir / fname)}"
                for fname in EXPORTED:
                    yield f"{label} export/{fname} {_sha256(export_dir / fname)}"
                yield f"{label} f_star {f_star!r}"
            dirs = [Path(tmp) / f"{name}@batch" / f"seed{s}" for s in BATCH_SEEDS]
            run_scenario(load_scenario(shipped_scenario_path(name)), BATCH_SEEDS, dirs)
            for seed, run_dir in zip(BATCH_SEEDS, dirs):
                for fname in BATCH_FILES:
                    yield f"{name}@batch seed{seed} {fname} {_sha256(run_dir / fname)}"
        yield from transform_digests()
        yield from random_digests()
        yield from fail_digests(Path(tmp))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print seed-0 artifact digests for every "
                                             "shipped scenario.")
    ap.add_argument("--against", metavar="FILE",
                    help="compare with the digests saved in FILE instead of printing them: "
                         "print the lines that differ and exit 1 on any difference")
    args = ap.parse_args(argv)
    if args.against is None:
        for line in digests():
            print(line, flush=True)
        return 0
    saved = Path(args.against).read_text().splitlines()
    lines = list(digests())
    diff = list(difflib.unified_diff(saved, lines, args.against, "this checkout", lineterm=""))
    print("\n".join(diff) if diff else f"{len(lines)} lines identical to {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
