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
    from .engine import RunTrace, StepSchedule

ORACLE_RESIDUAL_TOL = 1e-6
BOUND_SLACK = 1e-9


class BoundUnavailableError(ValueError):
    """The disagreement bound is vacuous: the schedule is not scrambling."""


def _states(states) -> np.ndarray:
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 1:
        raise ConfigError(f"expected a (S, D) state array, got shape {x.shape}")
    return x


def max_disagreement(states) -> float:
    """Largest pairwise distance between agent states; 0 for one agent."""
    x = _states(states)
    if x.shape[0] == 1:
        return 0.0
    diff = x[:, None, :] - x[None, :, :]
    return float(np.max(np.linalg.norm(diff, axis=2)))


def max_delta(states) -> float:
    """Largest distance from any agent state to the state average.

    Always at most (S-1)/S times the largest pairwise distance.
    """
    x = _states(states)
    return float(np.max(np.linalg.norm(x - x.mean(axis=0), axis=1)))


# ---------------------------------------------------------------------------
# the closed-form disagreement bound


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the disagreement bound.

    nu is the schedule-wide contraction coefficient (max over rounds),
    l_bar / n_bar the summed gradient / Lipschitz constants, delta0 the
    largest initial pairwise distance.
    """

    nu: float
    l_bar: float
    n_bar: float
    delta0: float
    n_agents: int

    def __post_init__(self):
        if not (0.0 <= self.nu <= 1.0):
            raise ConfigError("nu must lie in [0, 1]")
        if self.l_bar < 0 or self.n_bar < 0 or self.delta0 < 0 or self.n_agents < 1:
            raise ConfigError("bound parameters must be nonnegative with n_agents >= 1")


def params_from_trace(trace: RunTrace) -> BoundParams:
    s = trace.summary
    if s is None or s.nu is None:
        raise ConfigError("trace carries no bound parameters (summary or nu missing)")
    return BoundParams(nu=s.nu, l_bar=s.l_bar, n_bar=s.n_bar,
                       delta0=s.delta0, n_agents=s.n_agents)


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


def disagreement_caps(p: BoundParams, steps: StepSchedule, k_max: int) -> np.ndarray:
    """The disagreement cap at every iteration t = 0..k_max, by recursion.

    Runs h_t = nu h_{t-1} + l_bar alpha_t from h_0 = nu delta0 and returns
    (S-1)/S * h_t, which equals :func:`disagreement_bound` at t; entry 0 is
    the algebraic cap (S-1)/S * delta0 on the initial states.
    """
    factor = (p.n_agents - 1) / p.n_agents if p.n_agents > 1 else 0.0
    caps = np.empty(k_max + 1)
    caps[0] = factor * p.delta0
    h = p.nu * p.delta0
    for t in range(1, k_max + 1):
        h = p.nu * h + p.l_bar * float(steps.at(t))
        caps[t] = factor * h
    return caps


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


def check_disagreement_bound(trace: RunTrace, p: BoundParams, steps: StepSchedule) -> BoundCheckReport:
    """Verify observed max deviation against the closed-form cap at every
    recorded iteration.

    The record at iteration t >= 1 is compared with the closed form
    evaluated at t; the initial record is compared with the algebraic cap
    (S-1)/S * delta0.  Tolerance 1e-9 absolute.
    """
    if p.nu >= 1.0:
        return BoundCheckReport(False, 0, (), float("nan"))
    ks = trace.ks
    observed = trace.max_delta
    caps = disagreement_caps(p, steps, int(ks[-1]))[ks]
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

    @property
    def overall_pass(self) -> bool:
        return self.consensus_pass and self.gap_pass and self.trend_pass

    def to_dict(self) -> dict:
        return {
            "consensus": {"final": self.consensus_final, "tol": self.consensus_tol,
                          "pass": self.consensus_pass},
            "gap": {"final": self.gap_final, "tol": self.gap_tol, "pass": self.gap_pass},
            "trend": {"pass": self.trend_pass, **self.trend_detail},
            "n_records": self.n_records,
            "overall_pass": self.overall_pass,
        }


def verdict(trace: RunTrace, oracle: OracleSolution, tol_consensus: float = 1e-3,
            tol_gap: float = 1e-3) -> VerdictReport:
    """Judge consensus and convergence of a completed trace.

    Checks the final pairwise disagreement against ``tol_consensus``, the
    final objective gap against the oracle value, and that the last-decile
    mean of each metric does not exceed the first-decile mean (the run moved
    in the right direction).  Verdicts can be negative; nothing raises.
    """
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
    )
