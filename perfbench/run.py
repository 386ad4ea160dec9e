#!/usr/bin/env python3
"""consopt benchmark: run one workload through the real CLI and report metrics.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src.
Workloads: sweep_static, random_schedule, dense_trace (see README.md).

--trace 0 reports the end-to-end metrics: wall time of the workload's command
sequence and engine iterations per second (median of the repetitions that
fit in --seconds, at least three, after one warm-up), set-up time (median of
eleven fresh interpreters that import consopt and load + validate the
scenario, started after the last repetition), and the peak RSS of a fresh
process running the workload once.  Both times are scaled to a nominal host
speed by a fixed reference computation timed between the repetitions (see
HostReference).

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians), the count of RuntimeWarnings
and the tracing overhead.  The spans of the last traced repetition are
written to .perfbench/<workload>-seed<N>/spans.jsonl.

Every repetition's outputs are checked; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every check passed, 1 when one failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from fresh import ROOT, use_checkout_source
from tracer import Tracer, instrument, layer_metrics

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
MIN_REPS = 3
MIN_TRACE_REPS = 2
CHILD_TIMEOUT_S = 150
# HostReference.time_s's median on the 2-vCPU Xeon KVM host the benchmark
# was built on; times are reported as seconds of a host running at that speed
REFERENCE_NOMINAL_S = 0.40
_MIX = np.array([[0.5, 0.25], [0.25, 0.5]])


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=_nonnegative, required=True)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure repetitions for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class HostReference:
    """A fixed computation that does not touch consopt, timed to track the host.

    The shared host's speed drifts by a third over minutes.  A repetition's
    wall time divided by the reference's time next to it cancels most of
    that drift, and a change to consopt still moves the quotient in full.
    The parts cover the kinds of work the workloads do, because contention
    from other tenants slows them by different amounts: interpreter loops,
    NumPy calls on tiny arrays, streaming and random reads through memory
    beyond the caches, and a JSON round trip like the trace files'.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.random(8_000_000)  # 64 MB
        self.picks = rng.integers(0, self.big.size, 2_000_000)
        self.records = [{"k": i, "x": [i * 0.5, i * 0.25], "gap": i / 3.0} for i in range(20_000)]

    def time_s(self) -> float:
        start = time.perf_counter()
        total, seen = 0.0, {}
        for i in range(400_000):
            seen[i & 255] = total
            total += i * i % 7
        x = np.ones(2)
        for _ in range(6_000):
            x = np.clip(_MIX @ x + 0.01, -1.0, 1.0)
            total += float(np.linalg.norm(x))
        for _ in range(6):
            total += float((self.big * 1.5).sum())
        for _ in range(2):
            total += float(self.big[self.picks].sum())
        total += len(json.loads(json.dumps(self.records)))
        elapsed = time.perf_counter() - start
        if not total > 0:
            raise RuntimeError("host reference computed nothing")
        return elapsed


def _fresh(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "fresh.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def setup_sample(config: Path, problems: list[str]) -> float:
    """Wall time of one fresh process that imports consopt, loads and validates."""
    start = time.perf_counter()
    proc = _fresh("setup", "--config", str(config))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed


def measure_fresh_workload(name: str, seed: int, outcome) -> float:
    """Peak RSS in MB of a fresh process running the workload once."""
    proc = _fresh("workload", "--workload", name, "--seed", str(seed))
    sys.stderr.write(proc.stderr)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        outcome.attempted += 1
        outcome.failed += 1
        outcome.problems.append(f"fresh workload process exited {proc.returncode} without a report")
        return 0.0  # not measured; the problem above makes the run incorrect
    outcome.attempted += report["attempted"]
    outcome.failed += report["failed"]
    outcome.problems += [f"fresh process: {p}" for p in report["problems"]]
    return report["peak_rss_mb"]


def end_to_end(plan, seed: int, seconds: float, outcome) -> dict:
    """Each repetition's wall time is divided by the mean of the host
    references timed just before and just after it.  The parent stays busy
    from one to the next: after it has waited on a child process, the host
    runs slower for a while, so the set-up starts come after the last
    repetition and are scaled by the median reference of the run."""
    setup_sample(plan.config, outcome.problems)  # fills the bytecode cache
    peak_rss_mb = measure_fresh_workload(plan.name, seed, outcome)
    outcome.add(plan, workloads.execute(plan))  # warm-up: checked, not timed
    reference = HostReference()
    walls, refs = [], [reference.time_s()]
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        rep = workloads.execute(plan)
        refs.append(reference.time_s())
        outcome.add(plan, rep)
        walls.append(rep.wall_s)
    setups = [setup_sample(plan.config, outcome.problems) for _ in range(SETUP_SAMPLES)]

    wall_ratios = [w / ((before + after) / 2) for w, before, after in zip(walls, refs, refs[1:])]
    wall_s = statistics.median(wall_ratios) * REFERENCE_NOMINAL_S
    slowdown = statistics.median(refs) / REFERENCE_NOMINAL_S
    print(f"  host reference over {len(refs)} samples: median {statistics.median(refs):.4f} s, "
          f"{slowdown:.4f}x the nominal {REFERENCE_NOMINAL_S} s")
    print(f"  measured wall over {len(walls)} repetitions: min {min(walls):.4f}, "
          f"median {statistics.median(walls):.4f}, max {max(walls):.4f} s")
    print(f"  measured set-up over {len(setups)} fresh starts: min {min(setups):.4f}, "
          f"median {statistics.median(setups):.4f}, max {max(setups):.4f} s")
    return {
        "setup_s": statistics.median(setups) / slowdown,
        "wall_s": wall_s,
        "iters_per_s": plan.total_iterations / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(plan, seconds: float, outcome, spans_path: Path) -> dict:
    untraced, traced = [], []
    start = time.perf_counter()
    while (min(len(untraced), len(traced)) < MIN_TRACE_REPS
           or time.perf_counter() - start < seconds):
        if len(untraced) <= len(traced):
            rep = workloads.execute(plan)
            untraced.append(rep)
        else:
            tracer = Tracer(len(traced))
            with instrument(tracer):
                rep = workloads.execute(plan)
            traced.append((rep, layer_metrics(tracer.spans)))
        outcome.add(plan, rep)

    with open(spans_path, "w") as fh:  # the last traced repetition's spans
        tracer.write(fh)
    # median_low reports a value one traced repetition measured; counts stay whole
    values = {name: statistics.median_low(m[name] for _, m in traced) for name in traced[0][1]}
    values["engine.runtime_warnings"] = statistics.median_low(r.runtime_warnings for r, _ in traced)
    traced_wall = statistics.median(r.wall_s for r, _ in traced)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"  {len(traced)} traced / {len(untraced)} untraced repetitions: wall_s "
          f"{traced_wall:.4f} vs {untraced_wall:.4f} s; spans in {spans_path.relative_to(ROOT)}")
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    use_checkout_source()
    work = workloads.work_dir(ROOT, args.workload, args.seed)
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.plan(args.workload, args.seed, ROOT, work)
    outcome = workloads.Outcome()
    print(f"workload {plan.name} seed {args.seed}: {len(plan.seed_dirs)} seed-run(s) of "
          f"{plan.iterations} iterations per repetition")
    if args.trace:
        values = per_layer(plan, args.seconds, outcome, work / "spans.jsonl")
    else:
        values = end_to_end(plan, args.seed, args.seconds, outcome)
    shutil.rmtree(plan.out, ignore_errors=True)
    shutil.rmtree(work / "fresh", ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    for name, value in values.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else float("nan")
    print(f"  {'fail_ratio':28s} {ratio:.6g} ({outcome.failed} of {outcome.attempted} seed-runs)")
    print(f"  trace.jsonl sha256 ({plan.seed_dirs[0].name}): {outcome.reference[0]}")
    for problem in outcome.problems:
        print(f"  FAILED {problem}")

    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
