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
lines), so that loading and validation are compared too.  Diffing the output
of two checkouts checks that a change kept every trace and report
byte-identical:

    PYTHONPATH=src python tools/trace_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in shipped_scenario_names():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                cmd_validate(shipped_scenario_path(name), Path(tmp) / "validate")
            print(f"{name} validate/stdout "
                  f"{hashlib.sha256(stdout.getvalue().encode()).hexdigest()}")
            report = Path(tmp) / "validate" / name / "validation.json"
            print(f"{name} validate/validation.json {_sha256(report)}")
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
                    print(f"{label} {fname} {_sha256(run_dir / fname)}")
                for fname in EXPORTED:
                    print(f"{label} export/{fname} {_sha256(export_dir / fname)}")
                print(f"{label} f_star {f_star!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
