"""Test-only references that share no code with the library paths they check.

``disagreement_bound`` is the paper's closed-form disagreement cap, which
cross-checks the recursion ``analysis.disagreement_caps``, and
``is_scrambling`` is the combinatorial test that cross-checks nu < 1.

``reference_run`` runs the iteration of Ram, Nedic & Veeravalli (2010),

    v_i = sum_j W_ij[k] x_j,    x_i = P_X(v_i - alpha_k grad f_i(v_i)),

agent by agent and round by round in plain Python and numpy.  Its
gradients, projections, step sizes, fusion invariants, initial spread,
contraction coefficient and disagreement caps (built from the steps it
took, and checked against its own states at every round) are written out
here from their formulas; it reads only the run config's data (component parameters,
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

from consopt.engine import RunConfig, RunTrace, StepSchedule
from consopt.problem import Ball, Box, ComponentFunction, ConfigError


class BoundUnavailableError(ValueError):
    """The disagreement bound is vacuous: the schedule is not scrambling."""


def is_scrambling(m: np.ndarray) -> bool:
    """True iff every pair of rows shares a column where both are positive."""
    pos = np.asarray(m) > 0
    return bool(np.all(np.einsum("ik,jk->ij", pos, pos) > 0))


def disagreement_bound(nu: float, l_bar: float, delta0: float, n_agents: int,
                       steps: StepSchedule, k: int) -> float:
    """Closed-form cap on max_J ||x_J - x_bar|| after k rounds.

    Round t fuses, which shrinks the largest pairwise distance D by nu, then
    steps with alpha_t.  The fused states lie in the feasible set, so the
    projected step moves agent J by at most alpha_t L_J, and D_{t+1} <=
    nu D_t + l_bar alpha_t from D_0 = delta0.  Unrolled and scaled by the
    (S-1)/S that bounds max_J ||x_J - x_bar|| by D, that is (S-1)/S *
    (nu^k delta0 + l_bar * sum_{i=0..k-1} alpha_i nu^(k-1-i)), with 0^0 = 1
    so the i = k-1 term is alpha_{k-1} itself.  Raises when nu >= 1
    (non-scrambling schedules make the cap vacuous).
    """
    if nu >= 1.0:
        raise BoundUnavailableError("contraction coefficient is 1; bound unavailable")
    if k < 0:
        raise ConfigError("iteration index must be >= 0")
    i = np.arange(k)
    tail = float(np.sum(steps.at(i) * nu ** (k - 1 - i).astype(float)))
    factor = (n_agents - 1) / n_agents if n_agents > 1 else 0.0
    return factor * (nu ** k * delta0 + l_bar * tail)


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
    non-expansiveness slack taken over the points ``probes`` (P, D); raises
    ``AssertionError`` when a round's max_delta exceeds its disagreement cap."""
    prob, steps, K = cfg.problem, cfg.steps, cfg.n_iterations
    S, fs = prob.n_agents, prob.feasible_set
    alphas = [steps.a / (k + steps.b) ** steps.p for k in range(K + 1)]
    mats = cfg.schedule.distinct_matrices(max(K, 1))
    # nu is the largest contraction over the rounds run (at least one), and
    # over the whole cycle of a cyclic schedule
    nu = max(contraction(w) for w in mats)
    delta0 = max(float(np.linalg.norm(a - b)) for a in x0 for b in x0)
    # h caps the largest pairwise distance: the step alphas[k] moves agent i at
    # most alphas[k] * L_i from its fused state, so round k adds l_bar alphas[k]
    factor, l_bar = (S - 1) / S, sum(c.grad_bound for c in prob.components)
    h = delta0
    caps = [factor * h]
    x = [np.array(row, dtype=float) for row in x0]
    states, drifts, slacks = [np.array(x)], [], []
    for k in range(K):
        w = mats[k % len(mats)]
        v = [sum(w[i, j] * x[j] for j in range(S)) for i in range(S)]
        drifts.append(float(np.linalg.norm(sum(v) / S - sum(x) / S)))
        slacks.append(max(sum(float(np.sum((v[i] - y) ** 2)) for i in range(S))
                          - sum(float(np.sum((x[i] - y) ** 2)) for i in range(S))
                          for y in probes))
        x = [project(fs, v[i] - alphas[k] * component_gradient(prob.components[i], v[i]))
             for i in range(S)]
        states.append(np.array(x))
        h = nu * h + l_bar * alphas[k]
        caps.append(factor * h)

    if nu < 1.0:  # the cap holds at every round 0..K
        for k, xs in enumerate(states):
            dev = max(float(np.linalg.norm(xi - sum(xs) / S)) for xi in xs)
            if dev > caps[k] + 1e-9:
                raise AssertionError(f"round {k}: max_delta {dev!r} above the cap {caps[k]!r}")
    else:
        caps = None
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
