"""Communication graphs, doubly stochastic mixing matrices, and schedules.

Agents are indexed 0..S-1.  Links are bidirectional; a weight matrix is
doubly stochastic with support matching the links (self-weights on the
diagonal).  A schedule maps the iteration index to the matrix used at that
round and must be reproducible: the same index and seed always yield the
identical matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .problem import ConfigError

DS_TOL = 1e-12
DEFAULT_ETA = 1e-3


class ConstructionError(ValueError):
    """A builder could not produce a matrix satisfying its contract."""


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Undirected communication graph without self-loops."""

    n_agents: int
    edges: frozenset

    def __post_init__(self):
        if self.n_agents < 1:
            raise ConfigError("graph needs at least one agent")
        norm = set()
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ConfigError(f"self-loop ({i},{j}) not allowed in the edge set")
            if not (0 <= i < self.n_agents and 0 <= j < self.n_agents):
                raise ConfigError(f"edge ({i},{j}) out of range for {self.n_agents} agents")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))


def graph(n_agents: int, edges: Iterable) -> Graph:
    return Graph(int(n_agents), frozenset(tuple(e) for e in edges))


def complete_graph(n: int) -> Graph:
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def ring_graph(n: int) -> Graph:
    if n < 3:
        return path_graph(n)
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def degrees(g: Graph) -> np.ndarray:
    d = np.zeros(g.n_agents, dtype=int)
    for i, j in g.edges:
        d[i] += 1
        d[j] += 1
    return d


def neighbors(g: Graph, i: int) -> tuple[int, ...]:
    out = [j if a == i else a for a, j in g.edges if i in (a, j)]
    return tuple(sorted(out))


def connected_component(g: Graph, start: int = 0) -> set[int]:
    adj: list[list[int]] = [[] for _ in range(g.n_agents)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def is_connected(g: Graph) -> bool:
    """Every agent is reachable from agent 0."""
    return len(connected_component(g)) == g.n_agents


# ---------------------------------------------------------------------------
# weight matrices


def _entries(m) -> np.ndarray:
    return np.asarray(m.entries if isinstance(m, WeightMatrix) else m, dtype=float)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Doubly stochastic mixing matrix with a floor on its nonzero entries."""

    entries: np.ndarray
    eta: float

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("weight matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ConfigError("weight matrix has non-finite entries")
        if np.any(m < 0):
            raise ConfigError("weight matrix has negative entries")
        if not is_doubly_stochastic(m, DS_TOL):
            raise ConfigError(f"matrix rows/columns do not sum to 1 within {DS_TOL}")
        if not (0 < self.eta <= 1):
            raise ConfigError("eta must lie in (0, 1]")
        nz = m[m > 0]
        if nz.size and float(np.min(nz)) < self.eta * (1 - 1e-9):
            raise ConfigError(f"nonzero entry {np.min(nz)} below the declared floor {self.eta}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "eta", float(self.eta))

    @property
    def n_agents(self) -> int:
        return self.entries.shape[0]


def is_doubly_stochastic(m, tol: float = DS_TOL) -> bool:
    """True iff the matrix is nonnegative with all row/column sums within tol of 1."""
    m = _entries(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError("expected a square matrix")
    if np.any(m < 0):
        return False
    ok_rows = np.all(np.abs(m.sum(axis=1) - 1.0) <= tol)
    ok_cols = np.all(np.abs(m.sum(axis=0) - 1.0) <= tol)
    return bool(ok_rows and ok_cols)


def is_scrambling(m) -> bool:
    """True iff every pair of rows shares a column where both are positive."""
    pos = _entries(m) > 0
    overlap = np.einsum("ik,jk->ij", pos, pos)
    return bool(np.all(overlap > 0))


def contraction_coefficient(m) -> float:
    """One-step worst-case shrink factor of pairwise disagreement.

    Computed as the largest half-l1 distance between rows, equivalently one
    minus the smallest row overlap sum_k min(m[i,k], m[j,k]).  It is 0 for
    identical rows, 1 for rows with disjoint support, and < 1 exactly when
    the matrix is scrambling.
    """
    m = _entries(m)
    if m.shape[0] == 1:
        return 0.0
    overlap = np.minimum(m[:, None, :], m[None, :, :]).sum(axis=2)
    iu = np.triu_indices(m.shape[0], k=1)
    nu = 1.0 - float(np.min(overlap[iu]))
    return min(max(nu, 0.0), 1.0)


def support_graph(m, tol: float = 0.0) -> Graph:
    """Undirected graph of off-diagonal positive entries (either direction)."""
    m = _entries(m)
    n = m.shape[0]
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if m[i, j] > tol or m[j, i] > tol
    }
    return graph(n, edges)


# ---------------------------------------------------------------------------
# builders


def build_metropolis(g: Graph, eta_floor: float = DEFAULT_ETA) -> WeightMatrix:
    """Metropolis-Hastings weights: m[i,j] = 1/(1+max(deg_i,deg_j)) on links."""
    n = g.n_agents
    if not (0 < eta_floor <= 1.0 / n):
        raise ConfigError(f"eta_floor must lie in (0, 1/{n}]")
    deg = degrees(g)
    m = np.zeros((n, n))
    for i, j in g.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        m[i, j] = m[j, i] = w
    np.fill_diagonal(m, 1.0 - m.sum(axis=1))
    nz = m[m > 0]
    if nz.size and float(np.min(nz)) < eta_floor:
        raise ConstructionError(
            f"graph degrees force an entry {np.min(nz):.3g} below the floor {eta_floor}"
        )
    return WeightMatrix(m, eta_floor)


def build_two_link_matrix(pattern: Sequence[Sequence[int]], kappa: float) -> WeightMatrix:
    """Matrix with diagonal 1-2k and weight k on each row's two listed links.

    ``pattern[i]`` names the two columns receiving weight ``kappa`` in row i.
    The pattern may be asymmetric, but every column must be named exactly
    twice or the result cannot be doubly stochastic.
    """
    if not (0.0 < kappa <= 0.5):
        raise ConfigError("kappa must lie in (0, 1/2]")
    n = len(pattern)
    m = np.zeros((n, n))
    for i, links in enumerate(pattern):
        links = tuple(int(x) for x in links)
        if len(links) != 2 or links[0] == links[1]:
            raise ConfigError(f"row {i} must list exactly two distinct links")
        if i in links or not all(0 <= x < n for x in links):
            raise ConfigError(f"row {i} has an invalid link in {links}")
        m[i, i] = 1.0 - 2.0 * kappa
        m[i, links[0]] = kappa
        m[i, links[1]] = kappa
    if not is_doubly_stochastic(m, DS_TOL):
        raise ConstructionError("pattern columns are unbalanced; matrix is not doubly stochastic")
    eta = kappa if kappa >= 0.5 else min(kappa, 1.0 - 2.0 * kappa)
    return WeightMatrix(m, eta)


# ---------------------------------------------------------------------------
# schedules


class WeightSchedule:
    """Deterministic map from the iteration index to a mixing matrix.

    Round k uses ``mats[k % len(mats)]`` with ``mats = distinct_matrices(horizon)``
    for any horizon above k, so a run builds its matrices once and indexes them.
    """

    n_agents: int

    def distinct_matrices(self, horizon: int | None = None) -> tuple[WeightMatrix, ...]:
        """The matrices the rounds cycle through; an unbounded schedule
        returns one per round of the first ``horizon``."""
        raise NotImplementedError

    def matrix_at(self, k: int) -> WeightMatrix:
        mats = self.distinct_matrices(k + 1)
        return mats[k % len(mats)]

    def contraction_sup(self, horizon: int | None = None) -> float:
        return max_contraction(self.distinct_matrices(horizon))


def max_contraction(mats: Sequence[WeightMatrix]) -> float:
    """The schedule's nu: the largest contraction coefficient over its matrices."""
    return max(contraction_coefficient(m) for m in mats)


@dataclass(frozen=True, eq=False)
class StaticSchedule(WeightSchedule):
    matrix: WeightMatrix

    def __post_init__(self):
        object.__setattr__(self, "n_agents", self.matrix.n_agents)

    def distinct_matrices(self, horizon=None):
        return (self.matrix,)


@dataclass(frozen=True, eq=False)
class CyclicSchedule(WeightSchedule):
    matrices: tuple[WeightMatrix, ...]

    def __post_init__(self):
        mats = tuple(self.matrices)
        if not mats:
            raise ConfigError("cyclic schedule needs at least one matrix")
        n = mats[0].n_agents
        if any(m.n_agents != n for m in mats):
            raise ConfigError("cyclic schedule matrices must share one size")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "n_agents", n)

    def distinct_matrices(self, horizon=None):
        return self.matrices


@dataclass(frozen=True, eq=False)
class RandomSchedule(WeightSchedule):
    """Per-iteration connected random graph with Metropolis weights.

    Bitwise reproducible: the matrix at index k depends only on (seed, k).
    """

    n_agents: int
    edge_probability: float
    seed: int
    eta_floor: float = DEFAULT_ETA

    def __post_init__(self):
        if not (0.0 < self.edge_probability <= 1.0):
            raise ConfigError("edge_probability must lie in (0, 1]")
        if self.n_agents < 2:
            raise ConfigError("random schedule needs at least two agents")

    def matrix_at(self, k):
        rng = np.random.default_rng([int(self.seed), int(k)])
        n = self.n_agents
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(1000):
            mask = rng.random(len(pairs)) < self.edge_probability
            g = graph(n, [p for p, keep in zip(pairs, mask) if keep])
            if is_connected(g):
                return build_metropolis(g, self.eta_floor)
        raise ConstructionError(
            f"could not sample a connected graph at k={k}; raise edge_probability"
        )

    def distinct_matrices(self, horizon=None):
        if horizon is None:
            raise ConfigError("random schedules need an explicit horizon")
        return tuple(self.matrix_at(k) for k in range(horizon))


def is_q_connected(schedule: WeightSchedule, q: int, horizon: int) -> bool:
    """True iff every window of q consecutive support graphs unions connected."""
    if q < 1 or horizon < q:
        raise ConfigError("need q >= 1 and horizon >= q")
    edges = [support_graph(m.entries).edges for m in schedule.distinct_matrices(horizon)]
    supports = [edges[k % len(edges)] for k in range(horizon)]
    n = schedule.n_agents
    for t in range(horizon - q + 1):
        union = set()
        for s in supports[t:t + q]:
            union |= s
        if not is_connected(graph(n, union)):
            return False
    return True


# ---------------------------------------------------------------------------
# serialization


def _matrix_from_entries(entries, eta=None) -> WeightMatrix:
    m = np.asarray(entries, dtype=float)
    if eta is None:
        nz = m[m > 0]
        eta = float(np.min(nz)) if nz.size else 1.0
    return WeightMatrix(m, float(eta))


def schedule_from_dict(d: dict) -> WeightSchedule:
    try:
        variant = d["variant"]
        if variant == "static":
            return StaticSchedule(_matrix_from_entries(d["matrix"], d.get("eta")))
        if variant == "cyclic":
            return CyclicSchedule(tuple(_matrix_from_entries(m, d.get("eta")) for m in d["matrices"]))
        if variant == "kappa":
            return StaticSchedule(build_two_link_matrix(d["pattern"], float(d["kappa"])))
        if variant == "random":
            return RandomSchedule(
                int(d["n_agents"]), float(d["edge_probability"]), int(d["seed"]),
                float(d.get("eta", DEFAULT_ETA)),
            )
    except KeyError as e:
        raise ConfigError(f"schedule definition missing field {e.args[0]!r}") from e
    raise ConfigError(f"unknown schedule variant {variant!r}")
