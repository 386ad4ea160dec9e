"""Scenario configuration: one JSON document describes a reproducible run.

A scenario bundles the problem, the communication graph, the mixing
schedule, the step-size rule, an optional privacy transform, iteration and
seed ranges, and output options.  Loading a scenario applies the transform
(seeded, so the result is reproducible) and exposes both the original and
the executable problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import network, privacy
from .engine import RunConfig, StepSchedule
from .network import (
    Graph, WeightSchedule, graph, is_connected, is_q_connected, support_graph,
)
from .privacy import TransformedProblem
from .problem import (
    ConfigError, Problem, estimate_bounds, problem_from_dict, verify_sum_convexity,
)

SCHEMA_VERSION = 1

_VALIDATION_SEED = 20_240_601
_VALIDATE_HORIZON = 128
_RANDOM_HORIZON = 32


@dataclass(eq=False)
class Scenario:
    name: str
    raw: dict
    problem: Problem
    graph: Graph | None
    transformed: TransformedProblem | None
    schedule: WeightSchedule
    steps: StepSchedule
    transform_kind: str
    n_iterations: int
    seeds: tuple[int, ...]
    decimate: int
    connectivity_mode: str
    q_window: int | None
    tol_consensus: float
    tol_gap: float
    init_points: np.ndarray | None
    oracle_budget: int

    @property
    def run_problem(self) -> Problem:
        return self.transformed.problem if self.transformed else self.problem

    @property
    def run_graph(self) -> Graph | None:
        return self.transformed.graph if self.transformed else self.graph


def _field(d: dict, key: str, default=None, required: bool = False):
    if key in d:
        return d[key]
    if required:
        raise ConfigError(f"config is missing required field {key!r}")
    return default


def _parse_seeds(spec) -> tuple[int, ...]:
    if spec is None:
        return (0,)
    if isinstance(spec, int):
        return (spec,)
    if isinstance(spec, list):
        return tuple(int(s) for s in spec)
    if isinstance(spec, dict):
        try:
            start, stop = int(spec["start"]), int(spec["stop"])
        except KeyError as e:
            raise ConfigError(f"field 'seeds' missing {e.args[0]!r}") from e
        if stop <= start:
            raise ConfigError("field 'seeds': stop must exceed start")
        return tuple(range(start, stop))
    raise ConfigError("field 'seeds' must be an int, list, or {start, stop}")


def _parse_transform(spec: dict | None, prob: Problem, g: Graph | None):
    if spec is None or spec.get("kind", "none") == "none":
        return "none", None
    kind = spec["kind"]
    if g is None:
        raise ConfigError(f"transform {kind!r} requires a 'graph' field in the config")
    if kind == "partition":
        if "m_per_agent" in spec:
            plan = privacy.default_plan(g, int(spec["m_per_agent"]))
        else:
            plan_spec = _field(spec, "plan", required=True)
            if plan_spec == "six-virtual":
                plan = privacy.six_virtual_plan()
            elif isinstance(plan_spec, dict) and "m_per_agent" in plan_spec:
                plan = privacy.default_plan(g, int(plan_spec["m_per_agent"]))
            else:
                raise ConfigError(
                    "field 'transform.plan' must be 'six-virtual' or {m_per_agent}")
        t = privacy.partition_problem(
            prob, g, plan, int(_field(spec, "seed", 0)),
            perturbation_scale=float(_field(spec, "perturbation_scale", 1.0)),
            max_grad_bound=spec.get("max_grad_bound"),
        )
        return kind, t
    if kind == "random_sharing":
        t = privacy.random_function_sharing(
            prob, g, float(_field(spec, "scale", required=True)),
            int(_field(spec, "seed", 0)),
        )
        return kind, t
    raise ConfigError(f"unknown transform kind {kind!r}")


def load_scenario(source, base_dir: Path | None = None) -> Scenario:
    """Build a scenario from a config path or an already-parsed dict."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        base_dir = base_dir or path.parent
        try:
            raw = json.loads(path.read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        name = raw.get("name", path.stem)
    else:
        raw = dict(source)
        name = raw.get("name", "scenario")

    version = int(_field(raw, "schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    prob_spec = _field(raw, "problem", required=True)
    if isinstance(prob_spec, dict) and "file" in prob_spec:
        ref = Path(prob_spec["file"])
        if not ref.is_absolute():
            ref = (base_dir or Path.cwd()) / ref
        try:
            prob_spec = json.loads(ref.read_text())
        except OSError as e:
            raise ConfigError(f"cannot read problem file {ref}: {e}") from e
    prob = problem_from_dict(prob_spec)

    g = None
    if raw.get("graph") is not None:
        gd = raw["graph"]
        try:
            g = graph(int(gd["n_agents"]), gd["edges"])
        except KeyError as e:
            raise ConfigError(f"field 'graph' missing {e.args[0]!r}") from e

    transform_kind, transformed = _parse_transform(raw.get("transform"), prob, g)
    run_problem = transformed.problem if transformed else prob

    schedule = network.schedule_from_dict(_field(raw, "schedule", required=True))
    if schedule.n_agents != run_problem.n_agents:
        raise ConfigError(
            f"schedule is for {schedule.n_agents} agents but the executable problem "
            f"has {run_problem.n_agents}"
        )

    steps_spec = _field(raw, "steps", required=True)
    steps = StepSchedule(
        float(steps_spec["a"]), float(steps_spec.get("b", 1.0)), float(steps_spec.get("p", 1.0))
    )

    conn = raw.get("connectivity", {"mode": "per-k"})
    mode = conn.get("mode", "per-k")
    if mode not in ("per-k", "q-connected"):
        raise ConfigError("field 'connectivity.mode' must be 'per-k' or 'q-connected'")
    q_window = int(conn["Q"]) if mode == "q-connected" else None
    if q_window is not None and q_window < 1:
        raise ConfigError("field 'connectivity.Q' must be >= 1")

    tols = raw.get("tolerances", {})
    init_spec = raw.get("init", {"kind": "seeded-uniform"})
    init_points = None
    if init_spec.get("kind") == "explicit":
        init_points = np.asarray(init_spec["points"], dtype=float)
    elif init_spec.get("kind") not in (None, "seeded-uniform"):
        raise ConfigError("field 'init.kind' must be 'seeded-uniform' or 'explicit'")

    return Scenario(
        name=name,
        raw=raw,
        problem=prob,
        graph=g,
        transformed=transformed,
        schedule=schedule,
        steps=steps,
        transform_kind=transform_kind,
        n_iterations=int(_field(raw, "n_iterations", required=True)),
        seeds=_parse_seeds(raw.get("seeds")),
        decimate=int(raw.get("decimate", 1)),
        connectivity_mode=mode,
        q_window=q_window,
        tol_consensus=float(tols.get("consensus", 1e-3)),
        tol_gap=float(tols.get("gap", 1e-3)),
        init_points=init_points,
        oracle_budget=int(raw.get("oracle_budget", 200_000)),
    )


def build_run_config(sc: Scenario, seed: int, *, n_iterations: int | None = None,
                     record_every: int | None = None) -> RunConfig:
    return RunConfig(
        problem=sc.run_problem,
        schedule=sc.schedule,
        steps=sc.steps,
        n_iterations=sc.n_iterations if n_iterations is None else n_iterations,
        seed=seed,
        initial_states=sc.init_points,
        record_every=sc.decimate if record_every is None else record_every,
    )


# ---------------------------------------------------------------------------
# assumption validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    severity: str  # "error" | "warning"
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "severity": self.severity, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def hard_pass(self) -> bool:
        return all(c.passed for c in self.checks if c.severity == "error")

    @property
    def warnings(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.severity == "warning" and not c.passed)

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks], "hard_pass": self.hard_pass}


def validate_scenario(sc: Scenario) -> ValidationReport:
    """Run every assumption check against the executable problem/schedule.

    Convexity of the sum, set validity, bound declarations, per-round (or
    windowed) connectivity, and double stochasticity are hard checks; a
    non-scrambling schedule only degrades to a warning since runs remain
    well-defined, merely without the closed-form disagreement bound.
    """
    checks: list[CheckResult] = []
    prob = sc.run_problem

    conv = verify_sum_convexity(prob, 200, _VALIDATION_SEED)
    checks.append(CheckResult(
        "sum-convexity", conv.passed, "error",
        f"worst sampled violation {conv.worst_violation:.3g} over {conv.n_pairs} pairs",
    ))

    fs = prob.feasible_set
    checks.append(CheckResult(
        "feasible-set", True, "error",
        f"{type(fs).__name__.lower()} in dimension {fs.dimension} (non-empty by construction)",
    ))

    bad_l, bad_n = [], []
    for idx, c in enumerate(prob.components):
        est = estimate_bounds(c, fs, 200, _VALIDATION_SEED + idx)
        if est.l_violated:
            bad_l.append(f"{c.id}: sampled {est.l_hat:.3g} > declared {c.grad_bound:.3g}")
        if est.n_violated:
            bad_n.append(f"{c.id}: sampled {est.n_hat:.3g} > declared {c.lipschitz:.3g}")
    checks.append(CheckResult(
        "gradient-bounds", not bad_l, "error",
        "; ".join(bad_l) or "sampled gradient norms stay below declared bounds",
    ))
    checks.append(CheckResult(
        "gradient-lipschitz", not bad_n, "error",
        "; ".join(bad_n) or "sampled difference quotients stay below declared moduli",
    ))

    rounds = max(1, min(sc.n_iterations or _RANDOM_HORIZON, _RANDOM_HORIZON))
    mats = sc.schedule.distinct_matrices(rounds)
    # a schedule with one matrix per round is checked over these rounds only
    scope = (f" (first {rounds} of {sc.n_iterations} rounds)"
             if len(mats) == rounds < sc.n_iterations else "")
    ds_ok = all(network.is_doubly_stochastic(m.entries) for m in mats)
    checks.append(CheckResult(
        "doubly-stochastic", ds_ok, "error",
        f"{len(mats)} distinct matrix(es) checked at tolerance {network.DS_TOL}{scope}",
    ))

    rg = sc.run_graph
    if rg is not None:
        stray = set()
        for m in mats:
            stray |= support_graph(m.entries).edges - rg.edges
        checks.append(CheckResult(
            "schedule-support", not stray, "error",
            f"off-graph links used by the schedule: {sorted(stray)}{scope}" if stray
            else f"matrix support stays within the declared links{scope}",
        ))

    if sc.connectivity_mode == "per-k":
        disconnected = [i for i, m in enumerate(mats)
                        if not is_connected(support_graph(m.entries))]
        checks.append(CheckResult(
            "connectivity", not disconnected, "error",
            f"support graph disconnected at matrix index {disconnected}{scope}" if disconnected
            else f"support graph connected at every round{scope}",
        ))
    else:
        horizon = max(sc.q_window, min(sc.n_iterations or sc.q_window, _VALIDATE_HORIZON))
        ok = is_q_connected(sc.schedule, sc.q_window, horizon)
        checks.append(CheckResult(
            "connectivity", ok, "error",
            f"window union {'connected' if ok else 'DISCONNECTED'} for Q={sc.q_window} "
            f"over horizon {horizon}",
        ))

    nu = network.max_contraction(mats)
    checks.append(CheckResult(
        "scrambling", nu < 1.0, "warning",
        f"schedule contraction coefficient {nu:.6g}{scope}"
        + ("" if nu < 1.0 else " (disagreement bound disabled)"),
    ))

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# shipped scenario library


def _scenario_root():
    return resources.files("consopt").joinpath("scenarios")


def shipped_scenario_names() -> tuple[str, ...]:
    root = _scenario_root()
    return tuple(sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json")))


def shipped_scenario_path(name: str) -> Path:
    return Path(str(_scenario_root().joinpath(f"{name}.json")))


def load_shipped(name: str) -> Scenario:
    text = _scenario_root().joinpath(f"{name}.json").read_text()
    sc = load_scenario(json.loads(text))
    if sc.name == "scenario":
        sc.name = name
    return sc
