"""Synchronous rounds of consensus fusion followed by projected gradient descent.

Each round k first fuses neighbor states through the round's doubly
stochastic matrix, then every agent takes a step along its own component
gradient at its own fused point and projects back onto the feasible set.
The run is deterministic given its configuration and produces a trace of per
iteration records plus a terminal summary of the fusion invariants
(average preservation and sum non-expansiveness) tracked at every round.
Runs that differ only in seed and initial states step together as one
batch, each with the trace it would have alone.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import BoundParams, disagreement_caps, max_delta, max_disagreement
from .problem import ConfigError, Problem, sum_value
from .network import WeightMatrix, WeightSchedule, max_contraction

_STREAM_INIT = 11
_STREAM_YSET = 12


class EngineError(RuntimeError):
    """A run aborted; carries the offending agent, iteration and run seed."""

    def __init__(self, message: str, agent: int | None = None, iteration: int | None = None,
                 seed: int | None = None):
        super().__init__(message)
        self.agent = agent
        self.iteration = iteration
        self.seed = seed


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
        """Step size at iteration k; accepts scalars or integer arrays.

        ``at(k)`` and ``at(ks)[i]`` agree bitwise: ``np.power`` uses one
        kernel for both, while ``**`` on a numpy scalar calls the C pow,
        which can differ from the vectorised kernel by an ulp when p != 1.
        """
        return self.a / np.power(np.asarray(k, dtype=float) + self.b, self.p)


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
            if not (np.all(np.isfinite(x0))
                    and np.all(self.problem.feasible_set.distance_many(x0) <= 1e-12)):
                raise ConfigError("initial states must be finite and lie in the feasible set")
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
    nu: float
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


def _nonfinite(g: np.ndarray, k: int, seed: int) -> EngineError:
    """The error for one run's (S, D) gradients, naming its first bad agent."""
    bad = int(np.flatnonzero(~np.isfinite(g).all(axis=1))[0])
    return EngineError(
        f"non-finite gradient for agent {bad} at iteration {k} (seed {seed}); aborting run",
        agent=bad, iteration=k, seed=seed,
    )


def fuse(states, matrix) -> np.ndarray:
    """One consensus step: row j of the result is sum_i m[j,i] states[i]."""
    x = np.asarray(states, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    m = matrix.entries if isinstance(matrix, WeightMatrix) else np.asarray(matrix, float)
    if m.shape[0] != m.shape[1] or m.shape[0] != x.shape[0]:
        raise ConfigError(f"matrix shape {m.shape} does not match {x.shape[0]} states")
    out = m @ x
    return out[:, 0] if squeeze else out


def descend(fused, k: int, cfg: RunConfig) -> np.ndarray:
    """Projected gradient step: each agent uses its own component gradient."""
    v = np.asarray(fused, dtype=float)
    shape = (cfg.problem.n_agents, cfg.problem.dimension)
    if v.shape != shape:
        raise ConfigError(f"fused states have shape {v.shape}, expected {shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        g = cfg.problem.evaluator.grads(v)
    if not np.isfinite(g).all():
        raise _nonfinite(g, k, cfg.seed)
    return cfg.problem.feasible_set.project_many(v - step_size(cfg.steps, k) * g)


def initial_states(cfg: RunConfig) -> np.ndarray:
    """Explicit initial iterates, or seeded uniform samples from the set."""
    if cfg.initial_states is not None:
        return cfg.initial_states.copy()
    rng = np.random.default_rng([cfg.seed, _STREAM_INIT])
    return cfg.problem.feasible_set.sample(cfg.problem.n_agents, rng)


_SHARED = ("problem", "schedule", "steps", "n_iterations", "record_every")


def run_batch(cfgs: Sequence[RunConfig]) -> list[RunTrace | EngineError]:
    """Execute the fuse-then-descend loop for several runs at once.

    The configs must share everything but the seed and the initial states;
    their runs step together as one (B, S, D) stack, and each run's trace is
    bitwise the one it has in a batch of its own.  Records the initial state
    (iteration 0) and every ``record_every``-th iteration, always including
    the terminal one.  Fusion invariants are tracked at every round
    regardless of decimation.  When the schedule is scrambling the
    closed-form disagreement bound is recorded alongside each iterate;
    otherwise a warning is emitted and the bound column is absent.

    A run whose gradient goes non-finite leaves the stack, and its entry in
    the returned list is the ``EngineError`` naming its seed, agent and
    iteration; the other runs go on.
    """
    if not cfgs:
        raise ConfigError("a batch needs at least one run config")
    first = cfgs[0]
    for name in _SHARED:
        if any(getattr(c, name) != getattr(first, name) for c in cfgs[1:]):
            raise ConfigError(f"the run configs of one batch must share {name}")
    prob, steps, K = first.problem, first.steps, first.n_iterations
    B, S, D = len(cfgs), prob.n_agents, prob.dimension
    fs = prob.feasible_set

    x = np.stack([initial_states(c) for c in cfgs])
    delta0 = max_disagreement(x)

    mats = first.schedule.distinct_matrices(max(K, 1))
    n_mats = len(mats)
    nu = max_contraction(mats)
    bound_on = nu < 1.0
    if not bound_on:
        warnings.warn(
            "mixing schedule is not scrambling (contraction coefficient 1); "
            "disagreement bound disabled",
            RuntimeWarning,
        )

    # fixed probe points per run for the sum non-expansiveness invariant
    origin = fs.project_many(np.zeros((1, D)))
    probes = np.stack([
        np.vstack([origin, fs.sample(10, np.random.default_rng([c.seed, _STREAM_YSET]))])
        for c in cfgs])

    alpha = steps.at(np.arange(K + 1))
    ks = np.r_[0:K:first.record_every, K]
    states = np.empty((ks.shape[0], B, S, D))
    states[0] = x
    r = 1
    rows = np.arange(B)  # the batch row of each run still stepping
    errors: dict[int, EngineError] = {}
    max_drift = np.zeros(B)
    max_slack = np.full(B, -np.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # gradients are checked below
        for k in range(K):
            v = mats[k % n_mats] @ x

            # sum / S is np.mean's arithmetic without its call overhead, and a
            # (1, D) @ (D, 1) matmul takes the dot product np.linalg.norm takes
            dm = v.sum(axis=1) / S - x.sum(axis=1) / S
            np.maximum(max_drift, np.sqrt(dm[:, None, :] @ dm[:, :, None])[:, 0, 0],
                       out=max_drift)
            sq_x = ((x[:, None] - probes[:, :, None]) ** 2).sum(axis=(2, 3))
            sq_v = ((v[:, None] - probes[:, :, None]) ** 2).sum(axis=(2, 3))
            np.maximum(max_slack, (sq_v - sq_x).max(axis=1), out=max_slack)

            g = prob.evaluator.grads(v)
            if not np.isfinite(g).all():
                ok = np.isfinite(g).all(axis=(1, 2))
                for i in np.flatnonzero(~ok):
                    errors[int(rows[i])] = _nonfinite(g[i], k, cfgs[rows[i]].seed)
                rows, v, g, probes, max_drift, max_slack = (
                    a[ok] for a in (rows, v, g, probes, max_drift, max_slack))
                if not rows.size:
                    break
            x = fs.project_many(v - alpha[k] * g)
            if k + 1 == ks[r]:
                states[r, rows] = x
                r += 1

    out: list[RunTrace | EngineError] = [errors.get(b) for b in range(B)]
    if not rows.size:
        return out
    kept = states if rows.size == B else states[:, rows]
    x_bar = kept.mean(axis=2)
    f_bar = sum_value(prob, x_bar.reshape(-1, D)).reshape(x_bar.shape[:2])
    deltas, disagreements = max_delta(kept), max_disagreement(kept)
    for i, b in enumerate(rows.tolist()):
        bound = None
        if bound_on:
            params = BoundParams(nu=nu, l_bar=prob.l_bar, n_bar=prob.n_bar,
                                 delta0=float(delta0[b]), n_agents=S)
            bound = disagreement_caps(params, steps, K)[ks]
        trace = RunTrace(
            ks=ks,
            alphas=alpha[ks],
            states=kept[:, i],
            x_bar=x_bar[:, i],
            f_bar=f_bar[:, i],
            max_delta=deltas[:, i],
            max_disagreement=disagreements[:, i],
            bound=bound,
            summary=None,
        )
        trace.summary = RunSummary(
            n_iterations=K,
            n_agents=S,
            dimension=D,
            final_f_bar=float(trace.f_bar[-1]),
            final_max_disagreement=float(trace.max_disagreement[-1]),
            final_max_delta=float(trace.max_delta[-1]),
            max_average_drift=float(max_drift[i]),
            max_nonexpansive_slack=float(max_slack[i]) if np.isfinite(max_slack[i]) else 0.0,
            nu=nu,
            delta0=float(delta0[b]),
            l_bar=prob.l_bar,
            n_bar=prob.n_bar,
            bound_enabled=bound_on,
        )
        out[b] = trace
    return out


def run(cfg: RunConfig) -> RunTrace:
    """Execute one run: :func:`run_batch` on a batch of one, raising its
    ``EngineError`` if the run aborted."""
    (trace,) = run_batch([cfg])
    if isinstance(trace, EngineError):
        raise trace
    return trace


# ---------------------------------------------------------------------------
# trace export


TRACE_FIELDS = ("k", "alpha", "x", "x_bar", "f_bar", "max_delta", "max_disagreement", "bound")
_BLOCK = 1024  # records held as Python values at a time, writing or reading
_COLUMNS = dict(zip(TRACE_FIELDS, (f.name for f in dataclasses.fields(RunTrace))))


def trace_records(trace: RunTrace, fields: tuple[str, ...] = TRACE_FIELDS):
    """Yield one tuple of plain Python values per record, holding ``fields``
    (names from ``TRACE_FIELDS``, the order of ``RunTrace``) in the order
    given; ``bound`` is None when the column is absent."""
    columns = [getattr(trace, _COLUMNS[f]) for f in fields]
    for lo in range(0, trace.n_records, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        yield from zip(*(itertools.repeat(None) if c is None else c[block].tolist()
                         for c in columns))


def write_trace_jsonl(trace: RunTrace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.writelines(json.dumps(dict(zip(TRACE_FIELDS, r))) + "\n" for r in trace_records(trace))


def write_trace_csv(trace: RunTrace, path) -> None:
    """CSV columns: k, alpha, f_bar, max_disagreement, max_delta, bound, x_J_d;
    the bound cell is empty when the bound is absent or non-finite."""
    xs = ",".join(f"x_{j}_{d}" for j, d in np.ndindex(trace.states.shape[1:]))
    with open(path, "w", newline="\n") as fh:
        fh.write(f"k,alpha,f_bar,max_disagreement,max_delta,bound,{xs}\n")
        fields = ("k", "alpha", "x", "f_bar", "max_delta", "max_disagreement", "bound")
        for k, alpha, x, f_bar, mdl, mdis, bound in trace_records(trace, fields):
            b = repr(bound) if bound is not None and math.isfinite(bound) else ""
            cells = ",".join(map(repr, itertools.chain.from_iterable(x)))
            fh.write(f"{k!r},{alpha!r},{f_bar!r},{mdis!r},{mdl!r},{b},{cells}\n")


def write_plotdata(trace: RunTrace, path, f_star: float | None) -> None:
    """CSV columns: k, f_gap (empty without an oracle), max_disagreement, bound."""
    with open(path, "w", newline="\n") as fh:
        fh.write("k,f_gap,max_disagreement,bound\n")
        fields = ("k", "f_bar", "max_disagreement", "bound")
        for k, f_bar, mdis, bound in trace_records(trace, fields):
            gap = "" if f_star is None else repr(f_bar - f_star)
            fh.write(f"{k!r},{gap},{mdis!r},{'' if bound is None else repr(bound)}\n")


def _columns(lines, shapes) -> list[np.ndarray]:
    """One array per field of ``TRACE_FIELDS`` from JSONL lines; raises on a bad
    record, including one whose fields are not shaped as ``shapes`` (if given)."""
    recs = [json.loads(line) for line in lines]
    cols = [np.array([r[f] for r in recs], dtype=int if f == "k" else float)
            for f in TRACE_FIELDS]
    if shapes is not None and [c.shape[1:] for c in cols] != shapes:
        raise ValueError("a field is shaped unlike in the first record")
    return cols


def read_trace_jsonl(path) -> RunTrace:
    """Read a ``trace.jsonl`` back ``_BLOCK`` lines at a time; null bounds become
    NaN, and the column is absent when the first record has none."""
    blocks, shapes = [], None
    with open(path) as fh:
        for n0 in itertools.count(1, _BLOCK):
            lines = list(itertools.islice(fh, _BLOCK))
            if not lines:
                break
            try:
                if shapes is None:
                    shapes = [c.shape[1:] for c in _columns(lines[:1], None)]
                    bounded = json.loads(lines[0])["bound"] is not None
                blocks.append(_columns(lines, shapes))
            except (ValueError, KeyError, TypeError):
                for n, line in enumerate(lines, n0):  # name the first bad record
                    try:
                        _columns([line], shapes)
                    except (ValueError, KeyError, TypeError) as e:
                        raise ConfigError(f"trace file {path} line {n}: bad record "
                                          f"({type(e).__name__}: {e})") from None
                raise
    if not blocks:
        raise ConfigError(f"trace file {path} has no records")
    cols = [np.concatenate(c) for c in zip(*blocks)]
    return RunTrace(*cols[:-1], bound=cols[-1] if bounded else None, summary=None)
