"""Theoretical quantities and empirical verdicts for completed runs.

Provides the closed-form bound on the worst per-agent deviation from the
iterate average under scrambling schedules, a certified centralized oracle
for the optimal value, and pass/fail verdicts for consensus and convergence
of a trace against that oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .problem import ConfigError, Problem, QUADRATIC, sum_grad, sum_value

if TYPE_CHECKING:
    from .engine import RunTrace

ORACLE_RESIDUAL_TOL = 1e-6
BOUND_SLACK = 1e-9


def _states(states) -> np.ndarray:
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ConfigError(f"expected a (..., S, D) state array, got shape {x.shape}")
    return x


def _per_state(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def max_disagreement(states):
    """Largest pairwise distance between agent states; 0 for one agent.

    A stack of shape (..., S, D) gives one value per state; a single (S, D)
    state gives a float.
    """
    x = _states(states)
    out = np.zeros(x.shape[:-2])
    # agent i against the agents after it, so each pair is measured once (its two
    # differences are negatives, of one norm) and no (..., S, S, D) array is formed
    for i in range(x.shape[-2] - 1):
        dist = np.linalg.norm(x[..., i + 1:, :] - x[..., i:i + 1, :], axis=-1)
        out = np.maximum(out, dist.max(axis=-1))
    return _per_state(out)


def max_delta(states):
    """Largest distance from any agent state to the state average.

    Always at most (S-1)/S times the largest pairwise distance.  Takes a
    single state or a stack, like :func:`max_disagreement`.
    """
    x = _states(states)
    dev = np.linalg.norm(x - x.mean(axis=-2, keepdims=True), axis=-1)
    return _per_state(dev.max(axis=-1))


# ---------------------------------------------------------------------------
# the closed-form disagreement bound


def disagreement_caps(nu: float, l_bar: float, alphas, delta0: float,
                      n_agents: int) -> np.ndarray:
    """The disagreement cap after each of t = 0..len(alphas) rounds, by recursion.

    ``nu`` is the schedule's contraction coefficient, ``l_bar`` the summed
    gradient bounds, ``alphas[t]`` the step round t takes after it fuses and
    ``delta0`` the largest initial pairwise distance.  Fusing shrinks that
    distance by nu and the step moves agent J by at most alpha_t L_J, so it is
    at most h_t, with h_0 = delta0 and h_t = nu h_{t-1} + l_bar alpha_{t-1}.
    Returns (S-1)/S * h_t, which equals the closed form
    (S-1)/S * (nu^t delta0 + l_bar * sum_{i=0..t-1} alpha_i nu^(t-1-i)).
    """
    factor = (n_agents - 1) / n_agents if n_agents > 1 else 0.0
    caps, h = [factor * delta0], delta0
    for alpha in np.asarray(alphas, dtype=float).tolist():
        h = nu * h + l_bar * alpha
        caps.append(factor * h)
    return np.array(caps)


@dataclass(frozen=True)
class BoundCheckReport:
    applicable: bool
    n_checked: int
    violations: tuple
    worst_margin: float  # max over records of observed - bound; negative is good

    @property
    def passed(self) -> bool:
        return self.applicable and not self.violations

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "n_checked": self.n_checked,
            "n_violations": len(self.violations),
            "worst_margin": self.worst_margin,
            "violations": [list(v) for v in self.violations[:20]],
            "passed": self.passed,
        }


def check_disagreement_bound(trace: RunTrace) -> BoundCheckReport:
    """Verify the observed max deviation against the recorded cap at every
    recorded iteration.

    ``trace.bound`` holds the cap from :func:`disagreement_caps` after the
    record's t rounds, (S-1)/S * (nu^t delta0 + l_bar * sum_{i<t} alpha_i
    nu^(t-1-i)), which is (S-1)/S * delta0 at t = 0.  Not applicable when the
    trace has no bound column (a non-scrambling schedule).  Tolerance 1e-9
    absolute.
    """
    if trace.bound is None:
        return BoundCheckReport(False, 0, (), float("nan"))
    ks, observed, caps = trace.ks, trace.max_delta, trace.bound
    margins = observed - caps
    bad = np.where(margins > BOUND_SLACK)[0]
    violations = tuple(
        (int(ks[i]), float(observed[i]), float(caps[i])) for i in bad
    )
    return BoundCheckReport(True, len(ks), violations, float(np.max(margins)))


# ---------------------------------------------------------------------------
# centralized oracle


@dataclass(frozen=True)
class OracleSolution:
    x_star: np.ndarray
    f_star: float
    method: str  # "closed-form" | "projected-gradient"
    residual: float
    certified: bool

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(), "f_star": self.f_star,
            "method": self.method, "residual": self.residual, "certified": self.certified,
        }


def _pg_step(prob: Problem, x: np.ndarray, gamma: float) -> np.ndarray:
    g = sum_grad(prob, x[None, :])[0]
    return prob.feasible_set.project_many((x - gamma * g)[None, :])[0]


def _residual(prob: Problem, x: np.ndarray, gamma: float) -> float:
    return float(np.linalg.norm(x - _pg_step(prob, x, gamma)) / gamma)


def _projected_gradient(prob: Problem, x0: np.ndarray, gamma: float, budget: int) -> np.ndarray:
    x = x0.copy()
    stop = gamma * 1e-13
    for _ in range(budget):
        x_new = _pg_step(prob, x, gamma)
        if np.linalg.norm(x_new - x) <= stop:
            return x_new
        x = x_new
    return x


def centralized_solve(prob: Problem, budget: int = 200_000) -> OracleSolution:
    """Solve the summed problem centrally to serve as the reference optimum.

    All-quadratic sums get the linear-system solution when it is feasible
    and certified; everything else falls back to projected gradient with
    the safe step 1/(sum of Lipschitz constants) for up to ``budget``
    iterations.  The residual is the norm of the projected gradient mapping;
    solutions with residual above 1e-6 are flagged uncertified.
    """
    fs = prob.feasible_set
    gamma = 1.0 / max(prob.n_bar, 1e-12)
    cand = None
    if all(c.family == QUADRATIC for c in prob.components):
        h = np.sum([c.params["a"] for c in prob.components], axis=0)
        rhs = -np.sum([c.params["b"] for c in prob.components], axis=0)
        try:
            cand = np.linalg.solve(h, rhs)
        except np.linalg.LinAlgError:
            cand = np.linalg.lstsq(h, rhs, rcond=None)[0]
        if not np.all(np.isfinite(cand)):
            cand = None
        elif float(fs.distance_many(cand[None, :])[0]) <= 1e-12 * (1.0 + np.linalg.norm(cand)):
            res = _residual(prob, cand, gamma)
            if res <= ORACLE_RESIDUAL_TOL:
                return OracleSolution(cand, float(sum_value(prob, cand[None, :])[0]),
                                      "closed-form", res, True)
    start = fs.project_many(cand[None, :])[0] if cand is not None else fs.center_point()
    x = _projected_gradient(prob, start, gamma, budget)
    res = _residual(prob, x, gamma)
    return OracleSolution(x, float(sum_value(prob, x[None, :])[0]),
                          "projected-gradient", res, res <= ORACLE_RESIDUAL_TOL)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class VerdictReport:
    consensus_final: float
    consensus_tol: float
    consensus_pass: bool
    gap_final: float
    gap_tol: float
    gap_pass: bool
    trend_pass: bool
    trend_detail: dict
    n_records: int
    bound: str  # "pass", "fail" or "not applicable"

    @property
    def overall_pass(self) -> bool:
        return self.consensus_pass and self.gap_pass and self.trend_pass and self.bound != "fail"

    def to_dict(self) -> dict:
        return {
            "consensus": {"final": self.consensus_final, "tol": self.consensus_tol,
                          "pass": self.consensus_pass},
            "gap": {"final": self.gap_final, "tol": self.gap_tol, "pass": self.gap_pass},
            "trend": {"pass": self.trend_pass, **self.trend_detail},
            "bound": self.bound,
            "n_records": self.n_records,
            "overall_pass": self.overall_pass,
        }


def verdict(trace: RunTrace, oracle: OracleSolution, tol_consensus: float = 1e-3,
            tol_gap: float = 1e-3, bound: BoundCheckReport | None = None) -> VerdictReport:
    """Judge consensus, convergence and the disagreement cap of a completed trace.

    Checks the final pairwise disagreement against ``tol_consensus``, the
    final objective gap against the oracle value, that the last-decile
    mean of each metric does not exceed the first-decile mean (the run moved
    in the right direction), and that no record exceeds its cap: ``bound``
    is the trace's :func:`check_disagreement_bound` report, taken here when
    not given.  Verdicts can be negative; nothing raises.
    """
    if bound is None:
        bound = check_disagreement_bound(trace)
    n = trace.n_records
    gaps = trace.f_bar - oracle.f_star
    cons_final = float(trace.max_disagreement[-1])
    gap_final = float(gaps[-1])
    d = max(1, n // 10)
    trend = {
        "disagreement_first_decile": float(np.mean(trace.max_disagreement[:d])),
        "disagreement_last_decile": float(np.mean(trace.max_disagreement[-d:])),
        "gap_first_decile": float(np.mean(gaps[:d])),
        "gap_last_decile": float(np.mean(gaps[-d:])),
    }
    trend_ok = (
        trend["disagreement_last_decile"] <= trend["disagreement_first_decile"] + 1e-12
        and trend["gap_last_decile"] <= trend["gap_first_decile"] + 1e-12
    ) if n >= 2 else True
    return VerdictReport(
        consensus_final=cons_final, consensus_tol=tol_consensus,
        consensus_pass=cons_final <= tol_consensus,
        gap_final=gap_final, gap_tol=tol_gap, gap_pass=gap_final <= tol_gap,
        trend_pass=trend_ok, trend_detail=trend, n_records=n,
        bound=("pass" if bound.passed else "fail") if bound.applicable else "not applicable",
    )
