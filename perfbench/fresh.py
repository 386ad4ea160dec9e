"""Fresh-process probes, started by run.py in a new interpreter each time.

    python3 perfbench/fresh.py setup --config CFG
        import consopt, then load and validate CFG; the parent times the
        whole process as one set-up sample.
    python3 perfbench/fresh.py workload --workload NAME --seed N
        run the workload's command sequence once and print, as one JSON
        line, the process's peak RSS and the outcome of the checks.

The probes import the package from the checkout's own ``src`` tree, never
from an installed copy, so a benchmark run always measures the code beside it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def use_checkout_source() -> Path:
    """Put ROOT/src first on sys.path and return ROOT; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "consopt" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no consopt sources under {src}; "
                         "run from the root of a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    return ROOT


def _setup(config: str) -> int:
    import consopt

    report = consopt.validate_scenario(consopt.load_scenario(config))
    return 0 if report.hard_pass else 1


def _workload(name: str, seed: int) -> int:
    import json
    import resource

    import workloads

    plan = workloads.plan(name, seed, ROOT, workloads.work_dir(ROOT, name, seed) / "fresh")
    rep = workloads.execute(plan)
    outcome = workloads.Outcome()
    outcome.add(plan, rep)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "peak_rss_mb": peak_kib / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
    }))
    return 0


def main(argv: list[str]) -> int:
    use_checkout_source()
    if len(argv) == 3 and argv[0] == "setup" and argv[1] == "--config":
        return _setup(argv[2])
    if len(argv) == 5 and argv[0] == "workload" and argv[1] == "--workload" and argv[3] == "--seed":
        return _workload(argv[2], int(argv[4]))
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
