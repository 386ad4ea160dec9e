"""Synchronous rounds of consensus fusion followed by projected gradient descent.

Each round k first fuses neighbor states through the round's doubly
stochastic matrix, then every agent takes a step along its own component
gradient at its own fused point and projects back onto the feasible set.
The run is deterministic given its configuration and produces a trace of per
iteration records plus a terminal summary of the fusion invariants
(average preservation and sum non-expansiveness) tracked at every round.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import BoundParams, disagreement_caps, max_delta, max_disagreement
from .problem import ConfigError, Problem, sum_value
from .network import WeightMatrix, WeightSchedule, max_contraction

_STREAM_INIT = 11
_STREAM_YSET = 12


class EngineError(RuntimeError):
    """A run aborted; carries the offending agent and iteration."""

    def __init__(self, message: str, agent: int | None = None, iteration: int | None = None):
        super().__init__(message)
        self.agent = agent
        self.iteration = iteration


# ---------------------------------------------------------------------------
# step-size schedule


@dataclass(frozen=True)
class StepSchedule:
    """Diminishing steps a/(k+b)^p: positive, non-increasing, with divergent
    sum and convergent sum of squares (guaranteed by p in (1/2, 1])."""

    a: float
    b: float = 1.0
    p: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise ConfigError("step schedule needs a > 0")
        if not (np.isfinite(self.b) and self.b >= 1):
            raise ConfigError("step schedule needs b >= 1")
        if not (0.5 < self.p <= 1.0):
            raise ConfigError("step schedule needs p in (1/2, 1]")

    def at(self, k):
        """Step size at iteration k; accepts scalars or integer arrays."""
        return self.a / (np.asarray(k, dtype=float) + self.b) ** self.p


def step_size(s: StepSchedule, k: int) -> float:
    if k < 0:
        raise ConfigError("iteration index must be >= 0")
    return float(s.at(k))


# ---------------------------------------------------------------------------
# run configuration and trace


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything a run needs; two runs with equal configs match bitwise."""

    problem: Problem
    schedule: WeightSchedule
    steps: StepSchedule
    n_iterations: int
    seed: int = 0
    initial_states: np.ndarray | None = None
    record_every: int = 1
    track_bound: bool | None = None  # None = when the schedule is scrambling

    def __post_init__(self):
        if self.n_iterations < 0:
            raise ConfigError("n_iterations must be >= 0")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.schedule.n_agents != self.problem.n_agents:
            raise ConfigError(
                f"schedule is for {self.schedule.n_agents} agents, "
                f"problem has {self.problem.n_agents}"
            )
        if self.initial_states is not None:
            x0 = np.asarray(self.initial_states, dtype=float)
            S, D = self.problem.n_agents, self.problem.dimension
            if x0.shape != (S, D):
                raise ConfigError(f"initial states must have shape ({S}, {D})")
            dist = self.problem.feasible_set.distance_many(x0)
            if np.any(dist > 1e-12):
                raise ConfigError("initial states must lie in the feasible set")
            object.__setattr__(self, "initial_states", x0)


@dataclass(frozen=True)
class RunSummary:
    n_iterations: int
    n_agents: int
    dimension: int
    final_f_bar: float
    final_max_disagreement: float
    final_max_delta: float
    max_average_drift: float
    max_nonexpansive_slack: float
    nu: float | None
    delta0: float
    l_bar: float
    n_bar: float
    bound_enabled: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(eq=False)
class RunTrace:
    """Column-wise record of a run: one row per recorded iteration."""

    ks: np.ndarray                 # (R,)
    alphas: np.ndarray             # (R,)
    states: np.ndarray             # (R, S, D)
    x_bar: np.ndarray              # (R, D)
    f_bar: np.ndarray              # (R,)
    max_delta: np.ndarray          # (R,)
    max_disagreement: np.ndarray   # (R,)
    bound: np.ndarray | None       # (R,) or None when disabled
    summary: RunSummary | None

    @property
    def n_records(self) -> int:
        return int(self.ks.shape[0])


# ---------------------------------------------------------------------------
# the algorithm


def _fuse(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    return m @ x


def _descend(v: np.ndarray, k: int, alpha: float, prob: Problem) -> np.ndarray:
    g = prob.evaluator.grads(v)
    if not np.all(np.isfinite(g)):
        bad = int(np.where(~np.isfinite(g).all(axis=1))[0][0])
        raise EngineError(
            f"non-finite gradient for agent {bad} at iteration {k}; aborting run",
            agent=bad, iteration=k,
        )
    return prob.feasible_set.project_many(v - alpha * g)


def fuse(states, matrix) -> np.ndarray:
    """One consensus step: row j of the result is sum_i m[j,i] states[i]."""
    x = np.asarray(states, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    m = matrix.entries if isinstance(matrix, WeightMatrix) else np.asarray(matrix, float)
    if m.shape[0] != m.shape[1] or m.shape[0] != x.shape[0]:
        raise ConfigError(f"matrix shape {m.shape} does not match {x.shape[0]} states")
    out = _fuse(x, m)
    return out[:, 0] if squeeze else out


def descend(fused, k: int, cfg: RunConfig) -> np.ndarray:
    """Projected gradient step: each agent uses its own component gradient."""
    v = np.asarray(fused, dtype=float)
    shape = (cfg.problem.n_agents, cfg.problem.dimension)
    if v.shape != shape:
        raise ConfigError(f"fused states have shape {v.shape}, expected {shape}")
    return _descend(v, k, step_size(cfg.steps, k), cfg.problem)


def initial_states(cfg: RunConfig) -> np.ndarray:
    """Explicit initial iterates, or seeded uniform samples from the set."""
    if cfg.initial_states is not None:
        return cfg.initial_states.copy()
    rng = np.random.default_rng([cfg.seed, _STREAM_INIT])
    return cfg.problem.feasible_set.sample(cfg.problem.n_agents, rng)


def run(cfg: RunConfig) -> RunTrace:
    """Execute the full fuse-then-descend loop and collect the trace.

    Records the initial state (iteration 0) and every ``record_every``-th
    iteration, always including the terminal one.  Fusion invariants are
    tracked at every round regardless of decimation.  When the schedule is
    scrambling the closed-form disagreement bound is recorded alongside each
    iterate; otherwise a warning is emitted and the bound column is absent.
    """
    prob = cfg.problem
    S, D = prob.n_agents, prob.dimension
    fs = prob.feasible_set

    x = initial_states(cfg)
    delta0 = max_disagreement(x)

    mats = cfg.schedule.distinct_matrices(max(cfg.n_iterations, 1))
    nu = None
    bound_on = False
    if cfg.track_bound is not False:
        nu = max_contraction(mats)
        bound_on = nu < 1.0
        if not bound_on and cfg.track_bound:
            raise ConfigError("bound tracking requested but the schedule is not scrambling")
        if not bound_on:
            warnings.warn(
                "mixing schedule is not scrambling (contraction coefficient 1); "
                "disagreement bound disabled",
                RuntimeWarning,
            )

    # fixed probe points for the sum non-expansiveness invariant
    rng_y = np.random.default_rng([cfg.seed, _STREAM_YSET])
    probes = np.vstack([fs.project_many(np.zeros((1, D))), fs.sample(10, rng_y)])

    rows: list[tuple] = []

    def snapshot(t: int, states: np.ndarray):
        xbar = states.mean(axis=0)
        rows.append((
            t, float(cfg.steps.at(t)), states.copy(), xbar,
            float(sum_value(prob, xbar[None, :])[0]),
            max_delta(states), max_disagreement(states),
        ))

    snapshot(0, x)
    max_drift = 0.0
    max_slack = -np.inf
    for k in range(cfg.n_iterations):
        v = _fuse(x, mats[k % len(mats)].entries)

        drift = float(np.linalg.norm(v.mean(axis=0) - x.mean(axis=0)))
        max_drift = max(max_drift, drift)
        sq_x = ((x[None, :, :] - probes[:, None, :]) ** 2).sum(axis=(1, 2))
        sq_v = ((v[None, :, :] - probes[:, None, :]) ** 2).sum(axis=(1, 2))
        max_slack = max(max_slack, float(np.max(sq_v - sq_x)))

        x = _descend(v, k, float(cfg.steps.at(k)), prob)
        t = k + 1
        if t % cfg.record_every == 0 or t == cfg.n_iterations:
            snapshot(t, x)

    ks = np.array([r[0] for r in rows], dtype=int)
    bound = None
    if bound_on:
        params = BoundParams(nu=nu, l_bar=prob.l_bar, n_bar=prob.n_bar,
                             delta0=delta0, n_agents=S)
        bound = disagreement_caps(params, cfg.steps, cfg.n_iterations)[ks]
    trace = RunTrace(
        ks=ks,
        alphas=np.array([r[1] for r in rows]),
        states=np.stack([r[2] for r in rows]),
        x_bar=np.stack([r[3] for r in rows]),
        f_bar=np.array([r[4] for r in rows]),
        max_delta=np.array([r[5] for r in rows]),
        max_disagreement=np.array([r[6] for r in rows]),
        bound=bound,
        summary=None,
    )
    trace.summary = RunSummary(
        n_iterations=cfg.n_iterations,
        n_agents=S,
        dimension=D,
        final_f_bar=float(trace.f_bar[-1]),
        final_max_disagreement=float(trace.max_disagreement[-1]),
        final_max_delta=float(trace.max_delta[-1]),
        max_average_drift=max_drift,
        max_nonexpansive_slack=float(max_slack) if np.isfinite(max_slack) else 0.0,
        nu=nu,
        delta0=delta0,
        l_bar=prob.l_bar,
        n_bar=prob.n_bar,
        bound_enabled=bound_on,
    )
    return trace


# ---------------------------------------------------------------------------
# trace export


def trace_records(trace: RunTrace):
    """Iterate records as plain dicts in the serialized field order."""
    for r in range(trace.n_records):
        yield {
            "k": int(trace.ks[r]),
            "alpha": float(trace.alphas[r]),
            "x": trace.states[r].tolist(),
            "x_bar": trace.x_bar[r].tolist(),
            "f_bar": float(trace.f_bar[r]),
            "max_delta": float(trace.max_delta[r]),
            "max_disagreement": float(trace.max_disagreement[r]),
            "bound": None if trace.bound is None else float(trace.bound[r]),
        }


def write_trace_jsonl(trace: RunTrace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        for rec in trace_records(trace):
            fh.write(json.dumps(rec) + "\n")


def read_trace_jsonl(path) -> RunTrace:
    ks, alphas, states, xbar, fbar, mdl, mdis, bound = [], [], [], [], [], [], [], []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            ks.append(rec["k"])
            alphas.append(rec["alpha"])
            states.append(rec["x"])
            xbar.append(rec["x_bar"])
            fbar.append(rec["f_bar"])
            mdl.append(rec["max_delta"])
            mdis.append(rec["max_disagreement"])
            bound.append(rec["bound"])
    if not ks:
        raise ConfigError(f"trace file {path} has no records")
    has_bound = bound[0] is not None
    return RunTrace(
        ks=np.array(ks, dtype=int),
        alphas=np.array(alphas),
        states=np.array(states),
        x_bar=np.array(xbar),
        f_bar=np.array(fbar),
        max_delta=np.array(mdl),
        max_disagreement=np.array(mdis),
        bound=np.array([b if b is not None else np.nan for b in bound]) if has_bound else None,
        summary=None,
    )


def write_trace_csv(trace: RunTrace, path) -> None:
    """CSV columns: k, alpha, f_bar, max_disagreement, max_delta, bound, x_J_d."""
    n_rec, S, D = trace.states.shape
    header = ["k", "alpha", "f_bar", "max_disagreement", "max_delta", "bound"]
    header += [f"x_{j}_{d}" for j in range(S) for d in range(D)]
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in range(n_rec):
            bound = "" if trace.bound is None or not np.isfinite(trace.bound[r]) else repr(float(trace.bound[r]))
            row = [
                int(trace.ks[r]), repr(float(trace.alphas[r])), repr(float(trace.f_bar[r])),
                repr(float(trace.max_disagreement[r])), repr(float(trace.max_delta[r])), bound,
            ]
            row += [repr(float(v)) for v in trace.states[r].ravel()]
            w.writerow(row)
