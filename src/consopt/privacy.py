"""Privacy-enhancing problem transforms that preserve the global objective.

Two transforms are provided.  *Function partitioning* splits each agent's
objective into additive pieces owned by virtual agents; seeded zero-sum
perturbations make the individual pieces non-convex while their sum stays
exactly the original component.  *Random function sharing* exchanges seeded
functions along every directed link, adding each to the receiver and
subtracting it from the sender so the network-wide sum is unchanged.

Both transforms emit an ordinary problem plus a topology the simulator can
run directly; which virtual agent belongs to which real agent is recorded
only as provenance metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import problem as prb
from .problem import (
    ComponentFunction, ConfigError, FeasibleSet, Problem,
    QUADRATIC, POLYNOMIAL, SINE_QUADRATIC, sum_grad, sum_value,
)
from .network import ConstructionError, Graph, connected_component, graph, is_connected, neighbors

_STREAM_PARTITION = 21
_STREAM_SHARE = 22
_STREAM_CERT = 23

EQUIVALENCE_RTOL = 1e-9

# Out-link pattern for the six virtual agents of a triangle split two ways:
# virtual agents 2i and 2i+1 belong to real agent i, every link maps to a
# real link, and the resulting 6-node graph is connected and 3-regular.
SIX_VIRTUAL_PATTERN = ((2, 5), (2, 5), (1, 4), (1, 4), (0, 3), (0, 3))


# ---------------------------------------------------------------------------
# partition plans


@dataclass(frozen=True)
class PartitionPlan:
    """How each real agent's objective splits into virtual pieces.

    ``counts[i]`` is the number of pieces of agent i, ``assigned_neighbors``
    names the real neighbor each piece fronts (metadata only), and
    ``virtual_edges`` are links between global virtual indices, where piece
    j of agent i has index offset(i) + j.
    """

    counts: tuple[int, ...]
    assigned_neighbors: tuple[tuple[int, ...], ...]
    virtual_edges: frozenset

    def __post_init__(self):
        counts = tuple(int(m) for m in self.counts)
        if any(m < 1 for m in counts):
            raise ConfigError("every agent needs at least one piece")
        assigned = tuple(tuple(int(a) for a in row) for row in self.assigned_neighbors)
        if len(assigned) != len(counts) or any(len(a) != m for a, m in zip(assigned, counts)):
            raise ConfigError("assigned_neighbors must list one neighbor per piece")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "assigned_neighbors", assigned)
        object.__setattr__(self, "virtual_edges",
                           frozenset((min(int(u), int(v)), max(int(u), int(v)))
                                     for u, v in self.virtual_edges))

    @property
    def n_virtual(self) -> int:
        return sum(self.counts)

    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for m in self.counts:
            out.append(acc)
            acc += m
        return tuple(out)

    def owners(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.counts) for _ in range(m))


def default_plan(g: Graph, m_per_agent: int) -> PartitionPlan:
    """Split every agent into m pieces, linking all pieces across each real
    link (complete bipartite per edge), which keeps the virtual graph
    connected whenever the real one is."""
    if m_per_agent < 1:
        raise ConfigError("m_per_agent must be >= 1")
    counts = (m_per_agent,) * g.n_agents
    assigned = []
    for i in range(g.n_agents):
        nb = neighbors(g, i) or (i,)
        assigned.append(tuple(nb[j % len(nb)] for j in range(m_per_agent)))
    edges = set()
    for i, j in g.edges:
        for a in range(m_per_agent):
            for b in range(m_per_agent):
                edges.add((i * m_per_agent + a, j * m_per_agent + b))
    return PartitionPlan(counts, tuple(assigned), frozenset(edges))


def six_virtual_plan() -> PartitionPlan:
    """Two pieces per agent of a 3-agent triangle, wired like the two-link
    mixing pattern in :data:`SIX_VIRTUAL_PATTERN`."""
    edges = set()
    for i, links in enumerate(SIX_VIRTUAL_PATTERN):
        for j in links:
            edges.add((min(i, j), max(i, j)))
    return PartitionPlan((2, 2, 2), ((1, 2), (0, 2), (0, 1)), frozenset(edges))


def virtual_topology(g: Graph, plan: PartitionPlan) -> Graph:
    """Build and validate the virtual communication graph of a plan.

    Every virtual link must either join pieces of one owner or map to a
    real link between the owners; the result must be connected.
    """
    if len(plan.counts) != g.n_agents:
        raise ConfigError(f"plan covers {len(plan.counts)} agents, graph has {g.n_agents}")
    owners = plan.owners()
    for u, v in plan.virtual_edges:
        if not (0 <= u < plan.n_virtual and 0 <= v < plan.n_virtual):
            raise ConfigError(f"virtual link ({u},{v}) out of range")
        ou, ov = owners[u], owners[v]
        if ou != ov and (min(ou, ov), max(ou, ov)) not in g.edges:
            raise ConstructionError(
                f"virtual link ({u},{v}) joins agents {ou} and {ov} with no real link"
            )
    vg = graph(plan.n_virtual, plan.virtual_edges)
    if not is_connected(vg):
        missing = sorted(set(range(plan.n_virtual)) - connected_component(vg, 0))
        raise ConstructionError(f"virtual topology is disconnected; isolated agents: {missing}")
    return vg


# ---------------------------------------------------------------------------
# transformed problems


@dataclass(frozen=True)
class TransformProvenance:
    kind: str
    owners: tuple[int, ...]
    details: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "owners": list(self.owners), "details": dict(self.details)}


@dataclass(frozen=True, eq=False)
class TransformedProblem:
    problem: Problem
    graph: Graph
    provenance: TransformProvenance


def transformed_to_dict(t: TransformedProblem) -> dict:
    d = prb.problem_to_dict(t.problem)
    d["provenance"] = t.provenance.to_dict()
    d["graph"] = {"n_agents": t.graph.n_agents, "edges": sorted(list(e) for e in t.graph.edges)}
    return d


# ---------------------------------------------------------------------------
# quadratic perturbation machinery


def _draw_quadratic(rng: np.random.Generator, dim: int, scale: float, diagonal: bool):
    """Seeded quadratic used as a perturbation or a shared function.

    For dim >= 2 the matrix is trace-free symmetric (hence indefinite) with
    spectral norm equal to ``scale``; diagonal-only when the receiving family
    needs separability.  In one dimension a signed curvature is drawn
    instead, making the perturbed piece convex or concave at random.
    """
    if scale == 0.0:
        return np.zeros((dim, dim)), np.zeros(dim), 0.0
    if dim == 1:
        curv = rng.uniform(0.25, 1.0) * scale * (1.0 if rng.random() < 0.5 else -1.0)
        a = np.array([[curv]])
    elif diagonal:
        d = rng.uniform(-1.0, 1.0, dim)
        d -= d.mean()  # zero trace forces mixed signs
        peak = np.max(np.abs(d))
        if peak < 1e-12:
            d = np.linspace(-1.0, 1.0, dim)
            peak = 1.0
        a = np.diag(d * (scale / peak))
    else:
        m = rng.standard_normal((dim, dim))
        a = 0.5 * (m + m.T)
        a -= np.eye(dim) * (np.trace(a) / dim)
        a *= scale / np.max(np.abs(np.linalg.eigvalsh(a)))
    b = rng.uniform(-scale, scale, dim)
    return a, b, 0.0


def _shift_by_quadratic(c: ComponentFunction, qa, qb, qc, cid: str,
                        fs: FeasibleSet) -> ComponentFunction:
    """Return the component plus the quadratic 0.5 x'Qx + q'x + c, staying in
    the component's family; bounds are recomputed analytically over fs."""
    if c.family == QUADRATIC:
        return prb.quadratic(cid, c.params["a"] + qa, c.params["b"] + qb,
                             c.params["c"] + qc, bounds_for=fs)
    if c.family == SINE_QUADRATIC:
        return prb.sine_quadratic(cid, c.params["a"] + qa, c.params["b"] + qb,
                                  c.params["c"] + qc, c.params["amplitude"],
                                  c.params["frequency"], bounds_for=fs)
    off_diag = qa - np.diag(np.diag(qa))
    if np.any(off_diag != 0.0):
        raise ConfigError(
            f"component {c.id!r} is separable; perturbation must be diagonal"
        )
    coeffs = []
    for d, cf in enumerate(c.params["coeffs"]):
        new = np.zeros(max(cf.size, 3))
        new[: cf.size] = cf
        new[1] += qb[d]
        new[2] += 0.5 * qa[d, d]
        if d == 0:
            new[0] += qc
        coeffs.append(new)
    return prb.polynomial(cid, coeffs, bounds_for=fs)


def _scale_component(c: ComponentFunction, factor: float, cid: str,
                     fs: FeasibleSet) -> ComponentFunction:
    if c.family == QUADRATIC:
        return prb.quadratic(cid, c.params["a"] * factor, c.params["b"] * factor,
                             c.params["c"] * factor, bounds_for=fs)
    if c.family == SINE_QUADRATIC:
        return prb.sine_quadratic(cid, c.params["a"] * factor, c.params["b"] * factor,
                                  c.params["c"] * factor,
                                  c.params["amplitude"] * factor,
                                  c.params["frequency"], bounds_for=fs)
    return prb.polynomial(cid, [cf * factor for cf in c.params["coeffs"]], bounds_for=fs)


# ---------------------------------------------------------------------------
# equivalence certification


@dataclass(frozen=True)
class EquivalenceReport:
    value_residual: float
    grad_residual: float
    n_points: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "value_residual": self.value_residual, "grad_residual": self.grad_residual,
            "n_points": self.n_points, "passed": self.passed,
        }


def certify_equivalence(original: Problem, transformed: TransformedProblem,
                        n_points: int, seed) -> EquivalenceReport:
    """Sample the set and compare summed values and gradients of the two
    problems; passes when both residuals stay below 1e-9 (1 + |f|)."""
    new = transformed.problem
    if new.dimension != original.dimension:
        raise ConfigError("transformed problem changed the dimension")
    if type(new.feasible_set) is not type(original.feasible_set):
        raise ConfigError("transformed problem changed the feasible set")
    rng = np.random.default_rng(seed)
    xs = original.feasible_set.sample(n_points, rng)
    v_old = sum_value(original, xs)
    v_new = sum_value(new, xs)
    g_old = sum_grad(original, xs)
    g_new = sum_grad(new, xs)
    scale = 1.0 + np.abs(v_old)
    dv = np.abs(v_new - v_old)
    dg = np.linalg.norm(g_new - g_old, axis=1)
    passed = bool(np.all(dv <= EQUIVALENCE_RTOL * scale) and np.all(dg <= EQUIVALENCE_RTOL * scale))
    return EquivalenceReport(float(np.max(dv)), float(np.max(dg)), n_points, passed)


def _self_certify(original: Problem, t: TransformedProblem, seed: int, kind: str):
    report = certify_equivalence(original, t, 1000, [seed, _STREAM_CERT])
    if not report.passed:
        raise ConstructionError(
            f"{kind} transform failed its sum-preservation certificate "
            f"(value residual {report.value_residual:.3g}, "
            f"gradient residual {report.grad_residual:.3g})"
        )


# ---------------------------------------------------------------------------
# the transforms


def partition_problem(prob: Problem, g: Graph, plan: PartitionPlan, seed: int, *,
                      perturbation_scale: float = 1.0,
                      max_grad_bound: float | None = None) -> TransformedProblem:
    """Split each component into additive virtual pieces.

    Piece j of agent i is f_i/m_i plus a seeded quadratic perturbation; the
    perturbations of one agent sum to zero by construction (the last piece
    carries the negated total).  Declared gradient constants are recomputed
    analytically for every piece, and the whole transform is certified
    pointwise against the original before it is returned.
    """
    if len(plan.counts) != prob.n_agents:
        raise ConfigError("plan does not match the number of components")
    if perturbation_scale < 0:
        raise ConfigError("perturbation_scale must be >= 0")
    vgraph = virtual_topology(g, plan)
    fs = prob.feasible_set
    dim = prob.dimension
    pieces: list[ComponentFunction] = []
    for i, comp in enumerate(prob.components):
        m = plan.counts[i]
        base = _scale_component(comp, 1.0 / m, comp.id, fs)
        if m == 1:
            pieces.append(_scale_component(comp, 1.0, f"{comp.id}/0", fs))
            continue
        rng = np.random.default_rng([int(seed), _STREAM_PARTITION, i])
        diagonal = comp.family == POLYNOMIAL
        qa_sum = np.zeros((dim, dim))
        qb_sum = np.zeros(dim)
        qc_sum = 0.0
        for j in range(m - 1):
            qa, qb, qc = _draw_quadratic(rng, dim, perturbation_scale, diagonal)
            qa_sum += qa
            qb_sum += qb
            qc_sum += qc
            pieces.append(_shift_by_quadratic(base, qa, qb, qc, f"{comp.id}/{j}", fs))
        pieces.append(_shift_by_quadratic(base, -qa_sum, -qb_sum, -qc_sum,
                                          f"{comp.id}/{m - 1}", fs))
    if max_grad_bound is not None:
        worst = max(p.grad_bound for p in pieces)
        if worst > max_grad_bound:
            raise ConfigError(
                f"a piece's gradient bound {worst:.3g} exceeds the cap {max_grad_bound:.3g}; "
                "reduce perturbation_scale"
            )
    new_prob = Problem(dim, tuple(pieces), fs)
    t = TransformedProblem(
        new_prob, vgraph,
        TransformProvenance("partition", plan.owners(),
                            {"seed": int(seed), "perturbation_scale": perturbation_scale,
                             "counts": list(plan.counts)}),
    )
    _self_certify(prob, t, int(seed), "partition")
    return t


def random_function_sharing(prob: Problem, g: Graph, scale: float, seed: int) -> TransformedProblem:
    """Exchange seeded quadratics along every directed link.

    The function drawn for link (i -> j) is added to agent j's objective and
    subtracted from agent i's, so everything cancels in the network-wide
    sum while individual objectives become arbitrary-looking (and generally
    non-convex).  Agent count and topology are unchanged.
    """
    if g.n_agents != prob.n_agents:
        raise ConfigError("graph does not match the number of components")
    if scale < 0:
        raise ConfigError("scale must be >= 0")
    if not is_connected(g):
        raise ConfigError("random function sharing needs a connected graph")
    dim = prob.dimension
    fs = prob.feasible_set
    families = [c.family for c in prob.components]
    acc_a = [np.zeros((dim, dim)) for _ in range(prob.n_agents)]
    acc_b = [np.zeros(dim) for _ in range(prob.n_agents)]
    acc_c = [0.0 for _ in range(prob.n_agents)]
    for i, j in sorted(g.edges):
        for snd, rcv in ((i, j), (j, i)):
            diagonal = POLYNOMIAL in (families[snd], families[rcv])
            rng = np.random.default_rng([int(seed), _STREAM_SHARE, snd, rcv])
            qa, qb, qc = _draw_quadratic(rng, dim, scale, diagonal)
            acc_a[rcv] += qa
            acc_b[rcv] += qb
            acc_c[rcv] += qc
            acc_a[snd] -= qa
            acc_b[snd] -= qb
            acc_c[snd] -= qc
    comps = tuple(
        _shift_by_quadratic(c, acc_a[i], acc_b[i], acc_c[i], c.id, fs)
        for i, c in enumerate(prob.components)
    )
    t = TransformedProblem(
        Problem(dim, comps, fs), g,
        TransformProvenance("random-sharing", tuple(range(prob.n_agents)),
                            {"seed": int(seed), "scale": scale}),
    )
    _self_certify(prob, t, int(seed), "random-sharing")
    return t
