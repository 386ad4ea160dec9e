"""Synchronous rounds of consensus fusion followed by projected gradient descent.

Each round k first fuses neighbor states through the round's doubly
stochastic matrix, then every agent takes a step along its own component
gradient at its own fused point and projects back onto the feasible set.
The run is deterministic given its configuration and produces a trace of per
iteration records plus a terminal summary of the fusion invariants
(average preservation and sum non-expansiveness) tracked at every round.
Runs that differ only in seed and initial states step together as one
batch, each with the trace it would have alone; a run whose gradient goes
non-finite keeps its place in the batch, and its result is its error.  A
round only fuses and steps, writing into preallocated buffers; the records
are gathered and the checks of every round (finite gradients, the fusion
invariants) run once per block of rounds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .analysis import disagreement_caps, max_delta, max_disagreement
from .problem import ConfigError, FeasibleSet, Problem, as_float, as_int, reading, sum_value
from .problem import _BATCH_FLOATS as _CHECK_FLOATS  # one state per round of a check block
from .network import WeightSchedule, max_contraction

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
        for name in ("a", "b", "p"):
            object.__setattr__(self, name, as_float(getattr(self, name), f"steps.{name}"))
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
        for name in ("n_iterations", "seed", "record_every"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.n_iterations < 0:
            raise ConfigError("n_iterations must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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
                raise ConfigError(f"initial_states must have shape ({S}, {D})")
            if not (np.all(np.isfinite(x0))
                    and np.all(self.problem.feasible_set.distance_many(x0) <= 1e-12)):
                raise ConfigError("initial_states must be finite and lie in the feasible set")
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
    """The error for one run's gradients of rounds k, k + 1, ... as (n, S, D),
    naming the first round and agent whose gradient is not finite."""
    t, bad = np.argwhere(~np.isfinite(g).all(axis=-1))[0].tolist()
    return EngineError(
        f"non-finite gradient for agent {bad} at iteration {k + t} (seed {seed}); aborting run",
        agent=bad, iteration=k + t, seed=seed,
    )


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)``, bitwise, in fewer calls when the last axis is short:
    numpy adds fewer than 8 terms one after the other onto 0.0, so those are
    column adds; from 8 terms on it adds pairwise, and that stays ``sum``."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    total = a[..., 0] + 0.0
    for i in range(1, a.shape[-1]):
        total += a[..., i]
    return total


def fuse(states, matrix) -> np.ndarray:
    """One consensus step: row j of the result is sum_i m[j,i] states[i]."""
    x = np.asarray(states, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    m = np.asarray(matrix, dtype=float)
    if m.shape[0] != m.shape[1] or m.shape[0] != x.shape[0]:
        raise ConfigError(f"matrix shape {m.shape} does not match {x.shape[0]} states")
    out = m @ x
    return out[:, 0] if squeeze else out


def _stepper(prob: Problem):
    """The projected gradient step on fused states (..., S, D), with the
    problem's gradient kernel and projection looked up once: ``step(v, alpha,
    g, x)`` moves each agent along its own component gradient and returns the
    new states and the gradients, written into ``x`` and ``g`` if given; the
    caller checks the gradients.  Every operation is row-wise."""
    grads, project = prob.evaluator.grads, prob.feasible_set.project_many

    def step(v: np.ndarray, alpha: float, g: np.ndarray | None = None,
             x: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        g = grads(v, g)
        x = np.subtract(v, np.multiply(g, alpha, out=x), out=x)
        return project(x, x), g

    return step


def descend(fused, k: int, cfg: RunConfig) -> np.ndarray:
    """Projected gradient step: each agent uses its own component gradient."""
    v = np.asarray(fused, dtype=float)
    shape = (cfg.problem.n_agents, cfg.problem.dimension)
    if v.shape != shape:
        raise ConfigError(f"fused states have shape {v.shape}, expected {shape}")
    if k < 0:
        raise ConfigError("iteration index must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        x, g = _stepper(cfg.problem)(v, float(cfg.steps.at(k)))
    if not np.isfinite(g).all():
        raise _nonfinite(g[None], k, cfg.seed)
    return x


def initial_states(cfg: RunConfig) -> np.ndarray:
    """Explicit initial iterates, or seeded uniform samples from the set."""
    if cfg.initial_states is not None:
        return cfg.initial_states.copy()
    rng = np.random.default_rng([cfg.seed, _STREAM_INIT])
    return cfg.problem.feasible_set.sample(cfg.problem.n_agents, rng)


def _probe_points(fs: FeasibleSet, seed: int) -> np.ndarray:
    """The run's fixed points for the sum non-expansiveness invariant: the
    projection of the origin and ten seeded samples from the set, (11, D)."""
    origin = fs.project_many(np.zeros((1, fs.dimension)))
    return np.vstack([origin, fs.sample(10, np.random.default_rng([seed, _STREAM_YSET]))])


_SHARED = ("problem", "schedule", "steps", "n_iterations", "record_every")


def run_batch(cfgs: Sequence[RunConfig]) -> list[RunTrace | EngineError]:
    """Execute the fuse-then-descend loop for several runs at once.

    The configs must share everything but the seed and the initial states;
    their runs step together as one (B, S, D) stack, and each run's trace is
    bitwise the one it has in a batch of its own.  Records the initial state
    (iteration 0) and every ``record_every``-th iteration, always including
    the terminal one.  When the schedule is scrambling the closed-form
    disagreement bound is recorded alongside each iterate; otherwise the
    bound column is absent and the summary's ``bound_enabled`` is false
    (validation's ``scrambling`` check reports it).

    A round is only the in-place numpy calls that write the fused states, the
    gradients and the next states into block buffers: the step's gradient
    kernel and projection are resolved once per run, and the buffers'
    per-round views come from iterating them.  The rest runs once per block
    of C rounds: the recorded states are gathered from the block's buffer,
    and every round's checks run, the gradients' finiteness, then the fusion
    invariants (regardless of decimation), folded into their maxima with a
    per-round check's arithmetic, so no result depends on C.  The
    non-expansiveness slack over a run's P probe points is folded through
    the centred identity of ``flush``, so the check of a block costs
    O(B*S*D + P*B*D) per round rather than O(P*B*S*D).
    The stack keeps its (B, S, D) shape from the first round to the last.  A
    run whose gradient goes non-finite keeps its place and steps on, but
    nothing of it is read again: its entry in the returned list is the
    ``EngineError`` naming its seed and its first non-finite agent and
    iteration, and the other runs go on, bitwise as they would alone.
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

    # each run's fixed probe points for the sum non-expansiveness invariant, (B, D, P)
    probes = np.stack([_probe_points(fs, c.seed).T for c in cfgs])

    alpha = steps.at(np.arange(K + 1))
    ks = np.r_[0:K:first.record_every, K]
    states = np.empty((ks.shape[0], B, S, D))
    states[0] = x
    alive = np.ones(B, dtype=bool)  # the runs whose gradients have all been finite
    out: list[RunTrace | EngineError | None] = [None] * B
    max_drift = np.zeros(B)
    max_slack = np.full(B, -np.inf)

    # a block of up to C rounds waits in these buffers for one check: the fused
    # states v of each round and the states x it fused (plus the one after) as one
    # stack, w[0] and w[1], and each round's gradients
    C = max(1, _CHECK_FLOATS // (B * S * D))
    w, gs = np.empty((2, C + 1, B, S, D)), np.empty((C, B, S, D))
    w[1, 0] = x

    def flush(n: int) -> None:
        """Fold the n buffered rounds into the per-run drift and slack maxima;
        each round's arithmetic is the same whatever n and C are.

        A round's slack is the largest over the probes y of
        sum_j ||v_j - y||^2 - sum_j ||x_j - y||^2.  Centred on c, the average of
        the x_j, that is A - 2 (y - c)'d, with A = sum_j ||v_j - c||^2 -
        sum_j ||x_j - c||^2 and d = sum_j (v_j - x_j), so the probes enter only
        through y'd.  Centring keeps the rounding at the scale of the agents'
        spread, not of ||x||, and d adds the agents' own differences, because
        sum_j v_j - sum_j x_j would carry the rounding of both sums at ||x||."""
        vx = w[:, :n]  # (2, n, B, S, D)
        # sum / S is np.mean's arithmetic without its call overhead, and a
        # (1, D) @ (D, 1) matmul takes the dot product np.linalg.norm takes
        sums = _row_sums(np.moveaxis(vx, 3, -1)) / S
        dm = (sums[0] - sums[1]).reshape(-1, D)
        drift = np.sqrt(dm[:, None, :] @ dm[:, :, None]).reshape(n, -1)
        np.maximum(max_drift, drift.max(axis=0), out=max_drift)
        c = sums[1]  # (n, B, D)
        # c repeated for each agent, so the centring runs over whole rows of S * D
        centred = vx.reshape(2, n, -1, S * D) - np.tile(c, S)
        norms = _row_sums(np.square(centred, out=centred))
        d = _row_sums(np.moveaxis(np.subtract(vx[0], vx[1]), 2, -1))[:, :, None]  # (n, B, 1, D)
        yd = (d @ probes)[:, :, 0].min(axis=-1)  # the smallest y'd over the probes
        cd = (d @ c[..., None])[:, :, 0, 0]
        slack = norms[0] - norms[1] - 2.0 * (yd - cd)
        np.maximum(max_slack, slack.max(axis=0), out=max_slack)
        w[1, 0] = w[1, n]

    step, steps_k = _stepper(prob), alpha.tolist()
    r = 1  # the next record
    with np.errstate(over="ignore", invalid="ignore"):  # gradients are checked per block
        for k0 in range(0, K, C):
            n = min(C, K - k0)
            # round k0 + j fuses w[1, j] into w[0, j], and steps it into w[1, j + 1]
            # with its gradients in gs[j]: iterating the buffers makes those views
            x = w[1, 0]
            for k, v, g, x_next in zip(range(k0, k0 + n), w[0], gs, w[1, 1:]):
                np.matmul(mats[k % n_mats], x, out=v)
                step(v, steps_k[k], g, x_next)
                x = x_next
            failed = alive & ~np.isfinite(gs[:n]).all(axis=(0, 2, 3))
            if failed.any():
                # a failed run keeps its row and steps on, row-wise apart from the
                # others, but nothing of it is read again
                for b in np.flatnonzero(failed).tolist():
                    out[b] = _nonfinite(gs[:n, b], k0, cfgs[b].seed)
                alive &= ~failed
                if not alive.any():
                    return out
            # the block's records, iterations k0 + 1 ... k0 + n, in one gather
            r1 = int(np.searchsorted(ks, k0 + n, side="right"))
            states[r:r1] = w[1, ks[r:r1] - k0]
            r = r1
            flush(n)

    states[:, ~alive] = 0.0  # a failed run's rows are not finite, and reach no metric
    x_bar = states.mean(axis=2)
    f_bar = sum_value(prob, x_bar.reshape(-1, D)).reshape(x_bar.shape[:2])
    deltas, disagreements = max_delta(states), max_disagreement(states)
    for b in np.flatnonzero(alive).tolist():
        bound = None
        if bound_on:
            bound = disagreement_caps(nu, prob.l_bar, alpha[:K], float(delta0[b]), S)[ks]
        trace = RunTrace(
            ks=ks,
            alphas=alpha[ks],
            states=states[:, b],
            x_bar=x_bar[:, b],
            f_bar=f_bar[:, b],
            max_delta=deltas[:, b],
            max_disagreement=disagreements[:, b],
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
            max_average_drift=float(max_drift[b]),
            max_nonexpansive_slack=float(max_slack[b]) if np.isfinite(max_slack[b]) else 0.0,
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
_BLOCK = 256  # records formatted or parsed at a time, writing or reading
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # of float repr
_REPR_SPELLING = {v: k for k, v in _JSON_SPELLING.items()}


class TraceBlocks(NamedTuple):
    """A trace as blocks of at most ``_BLOCK`` records, each a list of its ``k``s and
    a list of the text of its other numbers, as ``repr`` spells them.  A record's
    numbers are its step, ``f_bar``, both disagreement metrics, its bound (only if
    ``bounded``), its states and their average: F = 4 + bounded + S*D + D of them."""

    n_agents: int
    dimension: int
    bounded: bool
    blocks: Iterable[tuple[list, list]]


def _reprs(values: list) -> list[str]:
    """The ``repr`` of each float of a list, which ``json.dumps`` also writes, in one C call."""
    return repr(values)[1:-1].split(", ")


def _formatted(trace: RunTrace) -> TraceBlocks:
    """A run's trace as blocks: each block's floats are one table, formatted once."""
    R, S, D = trace.states.shape
    bounded = trace.bound is not None
    cols = [trace.alphas, trace.f_bar, trace.max_disagreement, trace.max_delta,
            *([trace.bound] if bounded else []), trace.states.reshape(R, S * D), trace.x_bar]
    return TraceBlocks(S, D, bounded, (
        (trace.ks[lo:lo + _BLOCK].tolist(),
         _reprs(np.column_stack([c[lo:lo + _BLOCK] for c in cols]).ravel().tolist()))
        for lo in range(0, R, _BLOCK)))


def _joined(template: str, cols: Sequence[list]) -> str:
    """The text of a block of rows: row i is ``template`` with its t-th ``%s``
    replaced by ``cols[t][i]``, made by one ``join`` over the template's fixed
    text and the columns, laid out together by slice assignment."""
    seps = template.split("%s")
    row = [None] * (2 * len(seps) - 1)
    row[::2] = seps
    parts = row * len(cols[0])
    for t, col in enumerate(cols):
        parts[2 * t + 1::len(row)] = col
    return "".join(parts)


def _trace_lines(trace: TraceBlocks, f_star: float | None, jsonl: bool):
    """Yield the number of records and the text of ``trace.csv``, ``plotdata.csv`` and
    (if ``jsonl``) ``trace.jsonl``: first the headers, then each block's lines as one
    string per file, :func:`_joined` from a row template built once per trace and the
    block's number text, so no line is put together in Python.  A non-finite bound is an
    empty cell in ``trace.csv`` and stays ``nan`` in ``plotdata.csv``; only a block
    that holds a non-finite number is respelled for the JSONL, as ``json.dumps``
    spells it."""
    S, D, bounded = trace.n_agents, trace.dimension, trace.bounded
    q = 4 + bounded  # a row's first x column; x_bar, which only the JSONL holds, follows x
    F = q + S * D + D
    # each file's row template; a cell the trace has no column for is empty
    bound_cell, gap_cell = "%s" if bounded else "", "%s" if f_star is not None else ""
    csv = f"%s,%s,%s,%s,%s,{bound_cell}," + ",".join(["%s"] * (S * D)) + "\n"
    plot = f"%s,{gap_cell},%s,{bound_cell}\n"
    xs = ", ".join(["%s"] * D)
    record = ('{"k": %s, "alpha": %s, "x": [' + ", ".join([f"[{xs}]"] * S)
              + f'], "x_bar": [{xs}], "f_bar": %s, "max_delta": %s, "max_disagreement": %s, '
              + ('"bound": %s}\n' if bounded else '"bound": null}\n'))
    # a record's columns in the JSONL template's order, which is that of TRACE_FIELDS
    picks = [0, *range(q, F), 1, 3, 2, *range(4, q)]
    names = ",".join(f"x_{j}_{d}" for j, d in np.ndindex(S, D))
    yield 0, (f"k,alpha,f_bar,max_disagreement,max_delta,bound,{names}\n",
              "k,f_gap,max_disagreement,bound\n")
    for ks, s in trace.blocks:
        k, cols = list(map(str, ks)), [s[j::F] for j in range(F)]
        bound = cols[4:q]  # the bound column, if the trace has one
        gap = [_reprs([float(f) - f_star for f in cols[1]])] if f_star is not None else []
        csv_bound = bound
        if bound and not _JSON_SPELLING.keys().isdisjoint(bound[0]):
            csv_bound = [["" if b in _JSON_SPELLING else b for b in bound[0]]]
        texts = (_joined(csv, [k, *cols[:4], *csv_bound, *cols[q:q + S * D]]),
                 _joined(plot, [k, *gap, cols[2], *bound]))
        if jsonl:
            if not _JSON_SPELLING.keys().isdisjoint(s):
                cols = [[_JSON_SPELLING.get(c, c) for c in col] for col in cols]
            texts += (_joined(record, [k, *(cols[j] for j in picks)]),)
        yield len(ks), texts


def write_trace_csv(trace: RunTrace | TraceBlocks, path, plotdata, f_star: float | None,
                    jsonl=None) -> int:
    """Write ``trace.csv`` at ``path``, ``plotdata.csv`` at ``plotdata`` and, if given,
    ``trace.jsonl`` at ``jsonl`` in one pass, and return the number of records.
    trace.csv: k, alpha, f_bar, max_disagreement, max_delta, bound (empty when absent
    or non-finite), x_J_d; plotdata.csv: k, f_gap (empty without an oracle),
    max_disagreement, bound; trace.jsonl: one ``json.dumps`` object per record, keyed
    by ``TRACE_FIELDS``.  A run's trace is formatted here; the blocks of
    :func:`read_trace_blocks` are copied as they were read."""
    if isinstance(trace, RunTrace):
        trace = _formatted(trace)
    n = 0
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", newline="\n"))
                 for p in (path, plotdata, jsonl) if p is not None]
        for count, texts in _trace_lines(trace, f_star, jsonl is not None):
            for fh, text in zip(files, texts):
                fh.write(text)
            n += count
    return n


def _records(lines) -> list:
    """The records on ``lines``, one per line, with each number kept as its text and
    ``NaN``/``Infinity`` respelled as ``repr`` spells them.  Each line is wrapped in
    a list of its own, so a record split over lines, or two on one line, is rejected."""
    wrapped = json.loads("[[" + "],[".join(lines) + "]]", parse_float=str,
                         parse_constant=_REPR_SPELLING.__getitem__)
    if len(wrapped) != len(lines):  # a line that closed its list early: `{…}], [{…}`
        raise ValueError("a line holds more than one record")
    return [r for (r,) in wrapped]


def _trace_shape(line: str) -> tuple[int, int, bool]:
    """S, D and whether the trace has a bound column, from its first record."""
    (r,) = _records([line])
    x = r["x"]
    if not (isinstance(x, list) and x and isinstance(x[0], list) and x[0]):
        raise ValueError("field 'x' is not a non-empty list of lists")
    return len(x), len(x[0]), r["bound"] is not None


def _number(token, field: str) -> str:
    """The text of a value that is not a float literal: an integer literal is
    written as the float it is, a null bound as ``nan``; anything else raises."""
    if type(token) is int:
        return repr(float(token))
    if token is None and field == "bound":
        return "nan"
    kind = "null" if token is None else f"a {type(token).__name__}"
    raise TypeError(f"field {field!r} is {kind}, not a number")


def _parse_block(lines, S: int, D: int, bounded: bool) -> tuple[list, list]:
    """The ``k``s and number text of the records on ``lines``, in ``TraceBlocks``
    order; raises on a record that is not typed or shaped as the first one."""
    recs = _records(lines)
    ks = [r["k"] for r in recs]
    tokens, shape = [], [D] * S
    for r in recs:
        x, x_bar = r["x"], r["x_bar"]
        if list(map(len, x)) != shape or len(x_bar) != D:
            raise ValueError(f"'x' is not {S}x{D} or 'x_bar' not of length {D}, as in line 1")
        tokens += (r["alpha"], r["f_bar"], r["max_disagreement"], r["max_delta"])
        if bounded:
            tokens.append(r["bound"])
        tokens += itertools.chain.from_iterable(x)
        tokens += x_bar
    # every record has the 8 fields, so any further quote is a string or another field
    if sum(map(str.count, lines, itertools.repeat('"'))) != 2 * len(TRACE_FIELDS) * len(recs):
        raise ValueError("a value is a string, or a field is not one of TRACE_FIELDS")
    # and S + 2 brackets (x, its rows, x_bar), so a missing one is a bare number
    if sum(map(str.count, lines, itertools.repeat("["))) != (S + 2) * len(recs):
        raise ValueError("a row of 'x', or 'x_bar', is not a list")
    if set(map(type, ks)) != {int}:
        raise TypeError("field 'k' is not an integer")
    if not bounded and not {type(r["bound"]) for r in recs} <= {str, int, type(None)}:
        raise TypeError("field 'bound' is not a number or null")
    if set(map(type, tokens)) != {str}:
        fields = ["alpha", "f_bar", "max_disagreement", "max_delta", *["bound"] * bounded,
                  *["x"] * (S * D), *["x_bar"] * D]
        tokens = [t if type(t) is str else _number(t, fields[i % len(fields)])
                  for i, t in enumerate(tokens)]
    return ks, tokens


def read_trace_blocks(path) -> TraceBlocks:
    """A ``trace.jsonl`` as blocks of ``_BLOCK`` lines, one ``json.loads`` each, its
    numbers kept as written; a null bound reads ``nan``, and the column is absent
    when the first record has none.  The first record is read here and gives the
    shape; the blocks are parsed as they are iterated, once.  A record that is not one
    line, whose ``k`` is not a JSON integer, whose other values are not numbers
    (or, for the bound, null), or whose ``x`` is not S x D as in the first record
    is a ``ConfigError`` naming the file and line."""
    with open(path) as fh:
        first = fh.readline()
    if not first:
        raise ConfigError(f"trace file {path} has no records")
    with reading(f"trace file {path} line 1"):
        shape = _trace_shape(first)

    def blocks():
        with open(path) as fh:
            for n0 in itertools.count(1, _BLOCK):
                lines = list(itertools.islice(fh, _BLOCK))
                if not lines:
                    return
                try:
                    block = _parse_block(lines, *shape)
                except (KeyError, TypeError, ValueError, OverflowError):
                    for n, line in enumerate(lines, n0):  # name the first bad record
                        with reading(f"trace file {path} line {n}"):
                            json.loads(line)  # its own parse error, if any
                            _parse_block([line], *shape)
                    raise
                yield block

    return TraceBlocks(*shape, blocks())


def read_trace_jsonl(path) -> RunTrace:
    """Read a ``trace.jsonl`` back: the floats of :func:`read_trace_blocks`' text."""
    trace = read_trace_blocks(path)
    S, D, bounded = trace.n_agents, trace.dimension, trace.bounded
    ks, tables = [], []
    for k, s in trace.blocks:
        ks += k
        tables.append(np.array(s, dtype=float).reshape(len(k), -1))
    t = np.concatenate(tables)
    q = 4 + bounded
    return RunTrace(
        ks=np.array(ks, dtype=int),
        alphas=t[:, 0],
        states=t[:, q:q + S * D].reshape(-1, S, D),
        x_bar=t[:, q + S * D:],
        f_bar=t[:, 1],
        max_delta=t[:, 3],
        max_disagreement=t[:, 2],
        bound=t[:, 4] if bounded else None,
        summary=None,
    )
