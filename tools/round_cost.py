#!/usr/bin/env python3
"""Print the cost of one round of ``engine.run_batch``, and of one record of the
trace pass, in µs, per shipped scenario.

For each shipped scenario and each batch size (1 and 20 seeds by default), the
scenario's run config is stepped through ``--rounds`` rounds and through none,
``--repeat`` times each, alternately; a round costs the difference of the best
times divided by the rounds.  The schedule's matrices are built once beforehand
and passed as a cyclic schedule of the same stack, so the figure is the loop's
(fusion, gradient, step, projection, recording and the per-block checks) and
not the random builder's.  Records follow the scenario's decimation.

The trace pass is timed on seed 0 run for ``--rounds`` rounds and recorded at
every one: ``write`` is a run's ``write_trace_csv`` of ``trace.csv``,
``plotdata.csv`` and ``trace.jsonl``, ``export`` is ``export``'s read of that
``trace.jsonl`` and its write of the two CSV files, each the best of ``--repeat``
divided by the records.  ``f_gap`` is taken against the run's last ``f_bar``, so it
is formatted as a run with an oracle formats it, without solving for the oracle.

    PYTHONPATH=src python tools/round_cost.py [--rounds 2000] [--repeat 7] [--batch 1 20]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import tempfile
import time
from pathlib import Path

from consopt.engine import read_trace_blocks, run, run_batch, write_trace_csv
from consopt.network import CyclicSchedule
from consopt.scenario import load_scenario, shipped_scenario_names, shipped_scenario_path


def _best(cfgs, repeat: int) -> tuple[float, float]:
    """The best wall times of ``run_batch`` over ``cfgs`` and over the same
    configs with no rounds, run alternately ``repeat`` times."""
    idle = [dataclasses.replace(c, n_iterations=0) for c in cfgs]
    best = [float("inf")] * 2
    for _ in range(repeat):
        for i, batch in enumerate((cfgs, idle)):
            gc.collect()
            start = time.perf_counter()
            run_batch(batch)
            best[i] = min(best[i], time.perf_counter() - start)
    return best[0], best[1]


def round_cost_us(name: str, batch: int, rounds: int, repeat: int) -> float:
    """µs per round of ``run_batch`` for ``batch`` seeds of a shipped scenario."""
    rc = load_scenario(shipped_scenario_path(name)).run_config
    rc = dataclasses.replace(rc, n_iterations=rounds,
                             schedule=CyclicSchedule(rc.schedule.distinct_matrices(rounds)))
    cfgs = [dataclasses.replace(rc, seed=s) for s in range(batch)]
    stepped, idle = _best(cfgs, repeat)
    return 1e6 * (stepped - idle) / rounds


def trace_cost_us(name: str, rounds: int, repeat: int) -> tuple[float, float]:
    """µs per record of a run's trace write and of ``export``'s read and write, for
    seed 0 of a shipped scenario recorded at every one of ``rounds`` rounds."""
    trace = run(load_scenario(shipped_scenario_path(name), n_iterations=rounds,
                              decimate=1).run_config)
    f_star = float(trace.f_bar[-1])
    best = [float("inf")] * 2
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        jsonl = out / "trace.jsonl"
        passes = (lambda: write_trace_csv(trace, out / "trace.csv", out / "plotdata.csv",
                                          f_star, jsonl),
                  lambda: write_trace_csv(read_trace_blocks(jsonl), out / "export.csv",
                                          out / "export_plotdata.csv", f_star))
        for _ in range(repeat):
            for i, trace_pass in enumerate(passes):
                gc.collect()
                start = time.perf_counter()
                trace_pass()
                best[i] = min(best[i], time.perf_counter() - start)
    return 1e6 * best[0] / trace.n_records, 1e6 * best[1] / trace.n_records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=2000, help="rounds per timed run")
    ap.add_argument("--repeat", type=int, default=7, help="timed runs per figure; the best counts")
    ap.add_argument("--batch", type=int, nargs="+", default=[1, 20], help="batch sizes")
    args = ap.parse_args(argv)
    names = shipped_scenario_names()
    width = max(map(len, names))
    heads = [f"B={b} µs" for b in args.batch] + ["write µs/rec", "export µs/rec"]
    print(f"{'scenario':<{width}}  " + "  ".join(f"{h:>13}" for h in heads))
    for name in names:
        costs = [round_cost_us(name, b, args.rounds, args.repeat) for b in args.batch]
        costs += trace_cost_us(name, args.rounds, args.repeat)
        print(f"{name:<{width}}  " + "  ".join(f"{c:13.2f}" for c in costs), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
