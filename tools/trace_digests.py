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
Each scenario runs twice: with its own iterations and decimation, and at
2000 iterations recording every one (``<name>@dense`` lines), so that the
record path is compared at every iteration.  Before its runs, each scenario
goes through ``cmd_validate`` with an output root, and the sha256 of what it
printed and of the ``validation.json`` it wrote are printed (``validate/``
lines), so that loading and validation are compared too.  Comparing the output
of two checkouts checks that a change kept every trace and report
byte-identical: save one checkout's digests, then check the other against them,
which prints the lines that differ and exits 1 on any difference:

    PYTHONPATH=src python tools/trace_digests.py > digests.txt
    PYTHONPATH=src python tools/trace_digests.py --against digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from consopt.cli import cmd_export, cmd_validate, execute_run
from consopt.scenario import load_shipped, shipped_scenario_names, shipped_scenario_path

FILES = ("trace.jsonl", "trace.csv", "plotdata.csv", "summary.json", "oracle.json",
         "verdict.json", "bound_check.json", "transformed_problem.json")
EXPORTED = ("trace.csv", "plotdata.csv")
# (label suffix, execute_run overrides): the shipped settings, then every iteration
SETTINGS = (("", {}), ("@dense", {"iterations": 2000, "decimate": 1}))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


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
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    execute_run(load_shipped(name), 0, run_dir, **overrides)
                export_dir = Path(tmp) / f"{label}-export"
                with contextlib.redirect_stdout(io.StringIO()):
                    cmd_export(run_dir, export_dir)
                f_star = json.loads((run_dir / "oracle.json").read_text())["f_star"]
                for fname in FILES:
                    yield f"{label} {fname} {_sha256(run_dir / fname)}"
                for fname in EXPORTED:
                    yield f"{label} export/{fname} {_sha256(export_dir / fname)}"
                yield f"{label} f_star {f_star!r}"


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
