"""Test-only references that share no code with the library paths they check.

``disagreement_bound`` is the paper's closed-form disagreement cap, which
cross-checks the recursion ``analysis.disagreement_caps``.

``reference_run`` runs the iteration of Ram, Nedic & Veeravalli (2010),

    v_i = sum_j W_ij[k] x_j,    x_i = P_X(v_i - alpha_k grad f_i(v_i)),

agent by agent and round by round in plain Python and numpy.  Its
gradients, projections, step sizes, fusion invariants, initial spread,
contraction coefficient and disagreement caps are written out here from
their formulas; it reads only the run config's data (component parameters,
declared gradient bounds, the schedule's matrix of each round), the initial
states and the probe points.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from consopt.analysis import BoundParams
from consopt.engine import RunConfig, RunTrace, StepSchedule
from consopt.problem import Ball, Box, ComponentFunction, ConfigError


class BoundUnavailableError(ValueError):
    """The disagreement bound is vacuous: the schedule is not scrambling."""


def disagreement_bound(p: BoundParams, steps: StepSchedule, k: int) -> float:
    """Closed-form cap on max_J ||x_J - x_bar|| after k+1 rounds.

    Evaluates (S-1)/S * (nu^(k+1) delta0 + l_bar * sum_{i=1..k} alpha_i
    nu^(k-i)), with 0^0 = 1 so the i = k term is alpha_k itself.  Raises
    when nu >= 1 (non-scrambling schedules make the cap vacuous).
    """
    if p.nu >= 1.0:
        raise BoundUnavailableError("contraction coefficient is 1; bound unavailable")
    if k < 0:
        raise ConfigError("iteration index must be >= 0")
    tail = 0.0
    if k >= 1:
        i = np.arange(1, k + 1)
        tail = float(np.sum(steps.at(i) * p.nu ** (k - i).astype(float)))
    lead = p.nu ** (k + 1) * p.delta0
    factor = (p.n_agents - 1) / p.n_agents if p.n_agents > 1 else 0.0
    return factor * (lead + p.l_bar * tail)


# ---------------------------------------------------------------------------
# the reference iteration


def component_gradient(c: ComponentFunction, x: np.ndarray) -> np.ndarray:
    """grad f(x) of one component at one point, from the family's formula."""
    prm = c.params
    if c.family == "polynomial-separable":
        # d/dx_d sum_t c_t x_d^t = sum_{t >= 1} t c_t x_d^(t-1)
        return np.array([sum(t * cf[t] * x[d] ** (t - 1) for t in range(1, cf.size))
                         for d, cf in enumerate(prm["coeffs"])], dtype=float)
    g = prm["a"] @ x + prm["b"]  # 0.5 x'Ax + b'x + c with A symmetric
    if c.family == "sine-perturbed-quadratic":
        g = g + prm["amplitude"] * prm["frequency"] * np.cos(prm["frequency"] * x)
    return g


def project(fs, x: np.ndarray) -> np.ndarray:
    """The Euclidean projection of one point onto a box or a ball."""
    if isinstance(fs, Box):
        return np.minimum(np.maximum(x, fs.lo), fs.hi)
    if isinstance(fs, Ball):
        dist = float(np.linalg.norm(x - fs.center))
        return x if dist <= fs.radius else fs.center + (x - fs.center) * (fs.radius / dist)
    raise TypeError(f"no reference projection for {type(fs).__name__}")


def contraction(w: np.ndarray) -> float:
    """1 - min over row pairs of sum_l min(w_il, w_jl), clipped to [0, 1]."""
    S = w.shape[0]
    low = min((sum(min(w[i, l], w[j, l]) for l in range(S))
               for i in range(S) for j in range(i + 1, S)), default=1.0)
    return min(max(1.0 - low, 0.0), 1.0)


@dataclass
class ReferenceRun:
    states: np.ndarray        # (K + 1, S, D): every round's state
    alphas: list              # alpha_k for k = 0..K
    max_drift: float
    max_slack: float
    delta0: float
    nu: float
    caps: list | None         # the cap at k = 0..K, None when nu = 1


def reference_run(cfg: RunConfig, x0: np.ndarray, probes: np.ndarray) -> ReferenceRun:
    """The run of ``cfg`` from the states ``x0`` (S, D), with the sum
    non-expansiveness slack taken over the points ``probes`` (P, D)."""
    prob, steps, K = cfg.problem, cfg.steps, cfg.n_iterations
    S, fs, sched = prob.n_agents, prob.feasible_set, cfg.schedule
    alphas = [steps.a / (k + steps.b) ** steps.p for k in range(K + 1)]
    x = [np.array(row, dtype=float) for row in x0]
    states, drifts, slacks = [np.array(x)], [], []
    for k in range(K):
        w = sched.matrix_at(k).entries
        v = [sum(w[i, j] * x[j] for j in range(S)) for i in range(S)]
        drifts.append(float(np.linalg.norm(sum(v) / S - sum(x) / S)))
        slacks.append(max(sum(float(np.sum((v[i] - y) ** 2)) for i in range(S))
                          - sum(float(np.sum((x[i] - y) ** 2)) for i in range(S))
                          for y in probes))
        x = [project(fs, v[i] - alphas[k] * component_gradient(prob.components[i], v[i]))
             for i in range(S)]
        states.append(np.array(x))

    # nu is the largest contraction over the rounds run (at least one), and
    # over the whole cycle of a cyclic schedule
    horizon = max(K, 1, len(getattr(sched, "matrices", ())))
    nu = max(contraction(sched.matrix_at(k).entries) for k in range(horizon))
    delta0 = max(float(np.linalg.norm(a - b)) for a in x0 for b in x0)
    caps = None
    if nu < 1.0:
        # h_0 = nu delta0, h_t = nu h_{t-1} + l_bar alpha_t; the cap is (S-1)/S h_t,
        # and (S-1)/S delta0 at t = 0
        factor, l_bar = (S - 1) / S, sum(c.grad_bound for c in prob.components)
        caps, h = [factor * delta0], nu * delta0
        for t in range(1, K + 1):
            h = nu * h + l_bar * alphas[t]
            caps.append(factor * h)
    return ReferenceRun(np.array(states), alphas, max(drifts, default=0.0),
                        max(slacks, default=0.0), delta0, nu, caps)


# ---------------------------------------------------------------------------
# trace files, one record at a time


TRACE_FIELDS = ("k", "alpha", "x", "x_bar", "f_bar", "max_delta", "max_disagreement", "bound")
_BLOCK = 1024  # records held as Python values at a time
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
