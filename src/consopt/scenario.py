"""Scenario configuration: one JSON document describes a reproducible run.

A scenario bundles the problem, the communication graph, the mixing
schedule, the step-size rule, an optional privacy transform, iteration and
seed ranges, and output options.  Loading a scenario applies the transform
(seeded, so the result is reproducible) and builds the run it describes: the
executable problem's ``RunConfig`` at the first seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import network, privacy
from .engine import RunConfig, StepSchedule
from .network import Graph, graph, support_graph, windows_connected
from .privacy import TransformedProblem
from .problem import (
    ConfigError, Problem, as_float, as_int, as_numbers, estimate_bounds, problem_from_dict,
    reading, verify_sum_convexity,
)

SCHEMA_VERSION = 1

_VALIDATION_SEED = 20_240_601
_VALIDATE_HORIZON = 128


@dataclass(eq=False)
class Scenario:
    name: str
    problem: Problem
    graph: Graph | None
    transformed: TransformedProblem | None
    run_config: RunConfig  # the executable problem's run at seeds[0]
    seeds: tuple[int, ...]
    tol_consensus: float
    tol_gap: float
    oracle_budget: int

    @property
    def run_graph(self) -> Graph | None:
        return self.transformed.graph if self.transformed else self.graph


_ABSENT = object()


def _read(raw: dict, path: str, parse=None, default=_ABSENT):
    """``parse`` of the config field at a dotted ``path`` (the value itself without
    ``parse``), or ``default`` when the field or an object above it is absent; a
    field without a default is required."""
    with reading(path):
        value = raw
        for key in path.split("."):
            value = value.get(key, _ABSENT)  # AttributeError when not an object
            if value is _ABSENT:
                if default is _ABSENT:
                    raise ConfigError(f"config: missing field {path!r}")
                return default
        return value if parse is None else parse(value)


def _read_int(raw: dict, path: str, default=_ABSENT):
    """``_read`` of a field that must be a JSON integer."""
    return _read(raw, path, lambda v: as_int(v, path), default)


def _read_float(raw: dict, path: str, default=_ABSENT):
    """``_read`` of a field that must be a JSON number."""
    return _read(raw, path, lambda v: as_float(v, path), default)


def _load_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"cannot read {what} {path}: {e}") from e


def parse_seeds(spec, field: str = "seeds") -> tuple[int, ...]:
    """The seeds a config's ``seeds`` (an int, a list, ``{start, stop}``, or null
    for seed 0) or a command line's ``N`` or ``A..B`` names: one or more
    non-negative integers, else a ``ConfigError`` naming ``field``."""
    with reading(field):
        if isinstance(spec, str):
            a, dots, b = spec.partition("..")
            spec = {"start": int(a), "stop": int(b)} if dots else int(spec)
        if isinstance(spec, dict):
            spec = range(*(as_int(spec[k], f"{field}.{k}") for k in ("start", "stop")))
        seeds = spec if isinstance(spec, (list, range)) else [0 if spec is None else spec]
        seeds = tuple(as_int(s, field) for s in seeds)
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"{field}: expected one or more non-negative integers, got {spec!r}")
    return seeds


def _parse_transform(raw: dict, prob: Problem, g: Graph | None):
    if raw.get("transform") is None:
        return None
    kind = _read(raw, "transform.kind", default="none")
    if kind == "none":
        return None
    if g is None:
        raise ConfigError(f"transform {kind!r} requires a 'graph' field in the config")
    seed = _read_int(raw, "transform.seed", 0)
    if kind == "partition":
        m = _read_int(raw, "transform.m_per_agent", None)
        if m is None and _read(raw, "transform.plan") != "six-virtual":
            raise ConfigError("field 'transform.plan' must be 'six-virtual' "
                              "(or give 'transform.m_per_agent')")
        plan = privacy.six_virtual_plan() if m is None else privacy.default_plan(g, m)
        cap = _read(raw, "transform.max_grad_bound",
                    lambda v: None if v is None else as_float(v, "transform.max_grad_bound"), None)
        return privacy.partition_problem(
            prob, g, plan, seed,
            perturbation_scale=_read_float(raw, "transform.perturbation_scale", 1.0),
            max_grad_bound=cap,
        )
    if kind == "random_sharing":
        return privacy.random_function_sharing(
            prob, g, _read_float(raw, "transform.scale"), seed)
    raise ConfigError(f"unknown transform kind {kind!r}")


def _path_component(name) -> str:
    """A scenario name: one path component, so its run dirs stay under the root."""
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f"field 'name' must be a single path component, got {name!r}")
    return name


def _parse_graph(spec) -> Graph | None:
    if spec is None:
        return None
    return graph(spec["n_agents"], spec["edges"])


def load_scenario(path, *, seeds=None, n_iterations=None, decimate=None) -> Scenario:
    """Build a scenario from a config path; a relative ``problem.file`` is read
    from the config's directory.  ``seeds``, ``n_iterations`` and ``decimate``
    (the command line's ``--seed``/``--seeds``, ``--iterations`` and
    ``--decimate``) replace the config's values before its run is built, so
    they follow the config's rules."""
    path = Path(path)
    raw = _load_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(raw).__name__}")

    version = _read_int(raw, "schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    prob_spec = _read(raw, "problem")
    if isinstance(prob_spec, dict) and "file" in prob_spec:
        ref = _read(raw, "problem.file", Path)
        if not ref.is_absolute():
            ref = path.parent / ref
        prob_spec = _load_json(ref, "problem file")
    prob = problem_from_dict(prob_spec)

    g = _read(raw, "graph", _parse_graph, None)
    transformed = _parse_transform(raw, prob, g)

    schedule = _read(raw, "schedule", network.schedule_from_dict)
    steps = StepSchedule(_read_float(raw, "steps.a"), _read_float(raw, "steps.b", 1.0),
                         _read_float(raw, "steps.p", 1.0))

    init_kind = _read(raw, "init.kind", default=None)
    init_points = None
    if init_kind == "explicit":
        init_points = _read(raw, "init.points",
                            lambda p: np.asarray(as_numbers(p, "init.points"), dtype=float))
    elif init_kind not in (None, "seeded-uniform"):
        raise ConfigError("field 'init.kind' must be 'seeded-uniform' or 'explicit'")

    oracle_budget = _read_int(raw, "oracle_budget", 200_000)
    if oracle_budget < 0:
        raise ConfigError("field 'oracle_budget' must be >= 0")
    name = _read(raw, "name", _path_component, path.stem)
    n_iterations = _read_int(raw, "n_iterations") if n_iterations is None else n_iterations
    seeds = _read(raw, "seeds", parse_seeds, (0,)) if seeds is None else parse_seeds(list(seeds))
    decimate = _read_int(raw, "decimate", 1) if decimate is None else decimate
    tol_consensus = _read_float(raw, "tolerances.consensus", 1e-3)
    tol_gap = _read_float(raw, "tolerances.gap", 1e-3)
    try:
        run_config = RunConfig(
            problem=transformed.problem if transformed else prob,
            schedule=schedule,
            steps=steps,
            n_iterations=n_iterations,
            seed=seeds[0],
            initial_states=init_points,
            record_every=decimate,
        )
    except ConfigError as e:  # RunConfig's messages start with the field they judge
        field, _, rule = str(e).partition(" ")
        raise ConfigError(f"{_CONFIG_NAMES.get(field, field)} {rule}") from None
    return Scenario(name, prob, g, transformed, run_config, seeds, tol_consensus, tol_gap,
                    oracle_budget)


# the config field (or command-line option) that sets a RunConfig field of another name
_CONFIG_NAMES = {"record_every": "decimate", "initial_states": "init.points"}


# ---------------------------------------------------------------------------
# assumption validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    severity: str  # "error" | "warning"
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def hard_pass(self) -> bool:
        return all(c.passed for c in self.checks if c.severity == "error")

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks], "hard_pass": self.hard_pass}


def validate_scenario(sc: Scenario) -> ValidationReport:
    """Run every assumption check against the executable problem/schedule.

    Convexity of the sum, set validity, bound declarations, double
    stochasticity and connectivity (for some window length Q, the union of
    every window of Q rounds) are hard checks; a non-scrambling schedule only
    degrades to a warning since runs remain well-defined, merely without the
    closed-form disagreement bound.
    """
    checks: list[CheckResult] = []
    prob = sc.run_config.problem

    conv = verify_sum_convexity(prob, 200, _VALIDATION_SEED)
    checks.append(CheckResult(
        "sum-convexity", conv.passed, "error",
        f"worst sampled violation {conv.worst_violation:.3g} over {conv.n_pairs} pairs"
        + (f" ({conv.n_nonfinite} with a non-finite sum)" if conv.n_nonfinite else ""),
    ))

    fs = prob.feasible_set
    checks.append(CheckResult(
        "feasible-set", True, "error",
        f"{type(fs).__name__.lower()} in dimension {fs.dimension} (non-empty by construction)",
    ))

    bad_l, bad_n = [], []
    for idx, c in enumerate(prob.components):
        est = estimate_bounds(c, fs, 200, _VALIDATION_SEED + idx)
        nf = f" (non-finite at {est.n_nonfinite} of 200 sampled pairs)" if est.n_nonfinite else ""
        if est.l_violated:
            bad_l.append(f"{c.id}: sampled {est.l_hat:.3g} > declared {c.grad_bound:.3g}{nf}")
        if est.n_violated:
            bad_n.append(f"{c.id}: sampled {est.n_hat:.3g} > declared {c.lipschitz:.3g}{nf}")
    checks.append(CheckResult(
        "gradient-bounds", not bad_l, "error",
        "; ".join(bad_l) or "sampled gradient norms stay below declared bounds",
    ))
    checks.append(CheckResult(
        "gradient-lipschitz", not bad_n, "error",
        "; ".join(bad_n) or "sampled difference quotients stay below declared moduli",
    ))

    K = sc.run_config.n_iterations
    horizon = min(K or _VALIDATE_HORIZON, _VALIDATE_HORIZON)
    mats = sc.run_config.schedule.distinct_matrices(horizon)
    # a schedule with one matrix per round is checked over these rounds only
    scope = f" (first {horizon} of {K} rounds)" if len(mats) == horizon < K else ""
    checks.append(CheckResult(
        "doubly-stochastic", network.is_doubly_stochastic(mats), "error",
        f"{len(mats)} distinct matrix(es) checked at tolerance {network.DS_TOL}{scope}",
    ))

    rg = sc.run_graph
    if rg is not None:
        stray = support_graph(np.any(mats > 0, axis=0)).edges - rg.edges
        checks.append(CheckResult(
            "schedule-support", not stray, "error",
            f"off-graph links used by the schedule: {sorted(stray)}{scope}" if stray
            else f"matrix support stays within the declared links{scope}",
        ))

    # Q is the shortest window whose unions all connect; past the number of
    # distinct matrices a longer window adds none, so the search stops there
    for Q in range(1, min(len(mats), horizon) + 1):
        connected = windows_connected(mats, Q, horizon)
        if connected.all():
            break
    if Q == 1:  # each window is one round, named by its matrix index
        split = np.flatnonzero(~connected).tolist()
        detail = (f"support graph disconnected at matrix index {split}" if split
                  else "support graph connected at every round") + scope
    else:
        detail = (f"window union {'connected' if connected.all() else 'DISCONNECTED'} "
                  f"for Q={Q} over horizon {horizon}")
    checks.append(CheckResult("connectivity", bool(connected.all()), "error", detail))

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
    return load_scenario(shipped_scenario_path(name))
