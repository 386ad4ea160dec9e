"""Communication graphs, doubly stochastic mixing matrices, and schedules.

Agents are indexed 0..S-1.  Links are bidirectional; a weight matrix is
doubly stochastic with support matching the links (self-weights on the
diagonal).  A schedule maps the iteration index to the matrix used at that
round and must be reproducible: the same index and seed always yield the
identical matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .problem import ConfigError, ConstructionError, as_float, as_int, as_numbers, reading

DS_TOL = 1e-12
_CHUNK = 64  # matrices max_contraction compares at a time; bounds its temporaries
_DRAW_WORDS = 2**13  # random-schedule uniforms drawn per block; bounds the temporaries


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Undirected graph without self-loops, its ``edges`` kept as the frozenset of (i, j), i < j."""

    n_agents: int
    edges: frozenset

    def __post_init__(self):
        n = as_int(self.n_agents, "graph.n_agents")
        if n < 1:
            raise ConfigError("graph needs at least one agent")
        norm = set()
        for e in self.edges:
            if np.shape(e) != (2,):
                raise ConfigError(f"graph.edges: expected a pair of agents, got {e!r}")
            i, j = as_int(e[0], "graph.edges"), as_int(e[1], "graph.edges")
            if i == j:
                raise ConfigError(f"self-loop ({i},{j}) not allowed in the edge set")
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigError(f"edge ({i},{j}) out of range for {n} agents")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "n_agents", n)
        object.__setattr__(self, "edges", frozenset(norm))


def graph(n_agents: int, edges: Iterable) -> Graph:
    return Graph(n_agents, edges)


def complete_graph(n: int) -> Graph:
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def ring_graph(n: int) -> Graph:
    if n < 3:
        return path_graph(n)
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric boolean adjacency matrix of the graph."""
    adj = np.zeros((g.n_agents, g.n_agents), dtype=bool)
    for i, j in g.edges:
        adj[i, j] = adj[j, i] = True
    return adj


def reachability(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of one adjacency matrix or a stack (..., S, S).

    Entry [i, j] is True iff j can be reached from i.  A shortest path has at
    most S-1 links, so ceil(log2(S-1)) squarings of (adj or identity) reach
    every path.  The products run in floating point (BLAS), clamped to 1.
    """
    S = adj.shape[-1]
    r = np.logical_or(adj, np.eye(S, dtype=bool)).astype(float)
    for _ in range(max(S - 2, 0).bit_length()):
        np.minimum(r @ r, 1.0, out=r)
    return r > 0


def is_connected(g: Graph) -> bool:
    """Every agent is reachable from agent 0."""
    return bool(support_connected(adjacency(g)))


# ---------------------------------------------------------------------------
# weight matrices


def _check_weights(m: np.ndarray) -> None:
    """The mixing-matrix contract, on one matrix or on a stack of them."""
    if not np.all(np.isfinite(m)):
        raise ConfigError("weight matrix has non-finite entries")
    if np.any(m < 0):
        raise ConfigError("weight matrix has negative entries")
    if not is_doubly_stochastic(m, DS_TOL):
        raise ConfigError(f"matrix rows/columns do not sum to 1 within {DS_TOL}")


def _weight_matrix(m) -> np.ndarray:
    """A read-only float copy of one doubly stochastic mixing matrix (S, S)."""
    m = np.array(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError("weight matrix must be square")
    _check_weights(m)
    m.setflags(write=False)
    return m


def is_doubly_stochastic(m, tol: float = DS_TOL) -> bool:
    """True iff the matrix, or every matrix of a stack (..., S, S), is
    nonnegative with all row/column sums within tol of 1."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ConfigError("expected a square matrix")
    if np.any(m < 0):
        return False
    ok_rows = np.all(np.abs(m.sum(axis=-1) - 1.0) <= tol)
    ok_cols = np.all(np.abs(m.sum(axis=-2) - 1.0) <= tol)
    return bool(ok_rows and ok_cols)


def max_contraction(mats: np.ndarray) -> float:
    """The schedule's nu: the largest contraction coefficient over an
    (n, S, S) stack, evaluated ``_CHUNK`` matrices at a time.  A matrix's
    coefficient, one minus its smallest row overlap sum_k min(m[i,k], m[j,k])
    over the row pairs i < j (its largest half-l1 row distance), is < 1
    exactly when it is scrambling.  The scan stops at the first chunk whose
    smallest overlap is <= 0: nu is then 1 whatever the later matrices hold.
    """
    mats = np.asarray(mats, dtype=float)
    S = mats.shape[-1]
    if S == 1:
        return 0.0
    i, j = np.triu_indices(S, k=1)
    low = np.inf
    for lo in range(0, len(mats), _CHUNK):
        m = mats[lo:lo + _CHUNK]
        low = min(low, float(np.min(np.minimum(m[:, i], m[:, j]).sum(axis=-1))))
        if low <= 0.0:
            break
    return min(max(1.0 - low, 0.0), 1.0)


def support_graph(m) -> Graph:
    """Undirected graph of off-diagonal positive entries (either direction)."""
    pos = np.asarray(m) > 0
    return graph(len(pos), zip(*(a.tolist() for a in np.nonzero(np.triu(pos | pos.T, 1)))))


def support_connected(mats: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (..., S, S): whether its support graph (links in
    either direction) is connected."""
    pos = np.asarray(mats) > 0
    return reachability(pos | np.swapaxes(pos, -1, -2))[..., 0, :].all(axis=-1)


# ---------------------------------------------------------------------------
# builders


def _metropolis(adj: np.ndarray) -> np.ndarray:
    """Metropolis weights of one symmetric adjacency matrix without self-loops,
    or of a stack of them; every positive entry is at least 1/S."""
    deg = adj.sum(axis=-1)
    m = np.where(adj, 1.0 / (1.0 + np.maximum(deg[..., :, None], deg[..., None, :])), 0.0)
    i = np.arange(adj.shape[-1])
    m[..., i, i] = 1.0 - m.sum(axis=-1)
    return m


def build_metropolis(g: Graph) -> np.ndarray:
    """Metropolis-Hastings weights: m[i,j] = 1/(1+max(deg_i,deg_j)) on links."""
    return _weight_matrix(_metropolis(adjacency(g)))


def build_two_link_matrix(pattern: Sequence[Sequence[int]], kappa: float) -> np.ndarray:
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
        links = tuple(as_int(x, "schedule.pattern") for x in links)
        if len(links) != 2 or links[0] == links[1]:
            raise ConfigError(f"row {i} must list exactly two distinct links")
        if i in links or not all(0 <= x < n for x in links):
            raise ConfigError(f"row {i} has an invalid link in {links}")
        m[i, i] = 1.0 - 2.0 * kappa
        m[i, links[0]] = kappa
        m[i, links[1]] = kappa
    if not is_doubly_stochastic(m, DS_TOL):
        raise ConstructionError("pattern columns are unbalanced; matrix is not doubly stochastic")
    return _weight_matrix(m)


# ---------------------------------------------------------------------------
# schedules


class WeightSchedule:
    """Deterministic map from the iteration index to a mixing matrix.

    Round k uses ``mats[k % len(mats)]`` with ``mats = distinct_matrices(horizon)``
    for any horizon above k, so a run builds its matrices once and indexes them.
    """

    n_agents: int

    def distinct_matrices(self, horizon: int) -> np.ndarray:
        """The read-only (n, S, S) stack the rounds cycle through; an unbounded
        schedule returns one matrix per round of the first ``horizon``."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class CyclicSchedule(WeightSchedule):
    """The rounds cycle through ``matrices``, kept as one read-only (n, S, S) stack."""

    matrices: np.ndarray

    def __post_init__(self):
        mats = [_weight_matrix(m) for m in self.matrices]
        if not mats:
            raise ConfigError("cyclic schedule needs at least one matrix")
        if any(m.shape != mats[0].shape for m in mats):
            raise ConfigError("cyclic schedule matrices must share one size")
        stack = np.stack(mats)
        stack.setflags(write=False)
        object.__setattr__(self, "matrices", stack)
        object.__setattr__(self, "n_agents", stack.shape[1])

    def distinct_matrices(self, horizon):
        return self.matrices


class StaticSchedule(CyclicSchedule):
    """A cycle of one: every round uses the one matrix."""

    def __init__(self, matrix):
        super().__init__((matrix,))


# NumPy's published seeding constants: SeedSequence's hashmix and mix over a
# pool of four 32-bit words, and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1


def _seed_sequence_state(seed: int, ks: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, k]).generate_state(4, np.uint64)`` of every round
    k of ``ks`` (each below 2**32, so k is one entropy word), as a
    (len(ks), 4) array: NumPy's algorithm in uint32 arithmetic, vectorised
    over the rounds."""
    words = [seed & _MASK32]  # the seed's 32-bit words, least significant first
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    entropy = [np.full(len(ks), w, dtype=np.uint32) for w in words]
    entropy.append(ks.astype(np.uint32))
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _MASK32
        v = v * h
        return v ^ v >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    zero = np.zeros(len(ks), dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    h, out = _INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * _MULT_B & _MASK32
        v = v * h
        out.append((v ^ v >> 16).astype(np.uint64))
    return np.stack([out[i] | out[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


def _add128(a, b):
    """a + b mod 2**128 of (hi, lo) uint64 word pairs, broadcast."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _mul128(a, b):
    """a * b mod 2**128 of (hi, lo) uint64 word pairs, broadcast: the low words'
    full product from their 32-bit halves, plus the cross terms' low words."""
    (ah, al), (bh, bl) = a, b
    a0, a1, b0, b1 = al & _MASK32, al >> 32, bl & _MASK32, bl >> 32
    hi = a1 * b1
    hi += ah * bl
    hi += al * bh
    mid = a0 * b0
    mid >>= 32
    for x, y in ((a0, b1), (a1, b0)):
        t = x * y
        hi += t >> 32
        t &= _MASK32
        mid += t
    mid >>= 32
    hi += mid
    return hi, al * bl


def _words(xs: list[int]) -> np.ndarray:
    """The (2, n) uint64 (hi, lo) words of n Python ints, mod 2**128."""
    return np.array([[x >> 64 & _MASK64 for x in xs], [x & _MASK64 for x in xs]], dtype=np.uint64)


def _pcg64_starts(seed: int, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (state, inc) of ``PCG64(SeedSequence([seed, k]))`` for every round k
    of ``ks``, each as (2, len(ks)) (hi, lo) words: PCG64's seeding step,
    inc = 2i + 1 and state = (s + inc) * M + inc, on the hashed (s, i)."""
    s0, s1, i0, i1 = _seed_sequence_state(seed, ks).T
    inc = (i0 << 1 | i1 >> 63, i1 << 1 | 1)
    state = _add128(_mul128(_add128((s0, s1), inc), _words([_PCG64_MULT])), inc)
    return np.stack(state), np.stack(inc)


def _pcg64_jumps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, G), each (2, n) words: column t - 1 holds A_t = M**t and
    G_t = sum_{i<t} M**i (mod 2**128), so t PCG64 steps take a state s to
    A_t * s + G_t * inc."""
    powers = [pow(_PCG64_MULT, t, 1 << 128) for t in range(n + 1)]
    return _words(powers[1:]), _words(list(itertools.accumulate(powers[:-1])))


def _pcg64_random(state: np.ndarray, inc: np.ndarray,
                  jumps: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The next n ``Generator.random`` doubles of each of R PCG64 streams, as
    an (R, n) array, and the streams' states after them.  ``state`` and
    ``inc`` are (2, R) words, ``jumps`` is ``_pcg64_jumps(n)``.  Output t is
    the XSL-RR of the state t steps on, as (x >> 11) * 2**-53."""
    hi, lo = _add128(_mul128(jumps[0][:, None], state[:, :, None]),
                     _mul128(jumps[1][:, None], inc[:, :, None]))
    end = np.stack([hi[:, -1], lo[:, -1]])
    lo ^= hi  # XSL: x = hi ^ lo, rotated right by the state's top 6 bits
    hi >>= 58
    x = lo >> hi
    lo <<= 64 - hi  # a shift by 64 gives 0
    x |= lo
    x >>= 11
    return x * 2.0**-53, end


@dataclass(frozen=True, eq=False)
class RandomSchedule(WeightSchedule):
    """Per-iteration connected random graph with Metropolis weights.

    Bitwise reproducible: the matrix at index k depends only on (seed, k).
    Round k draws edge masks from the stream of ``default_rng([seed, k])``
    until the graph is connected, at most 1000 times.  The streams are
    ``default_rng``'s, bit for bit, but run in batch: the seed sequences of
    a block of rounds are hashed at once, and every round's PCG64 stream is
    stepped in numpy uint64 words, so no generator is constructed or set
    per round.
    """

    n_agents: int
    edge_probability: float
    seed: int

    def __post_init__(self):
        n = as_int(self.n_agents, "schedule.n_agents")
        p = as_float(self.edge_probability, "schedule.edge_probability")
        seed = as_int(self.seed, "random schedule seed")
        if seed < 0:
            raise ConfigError(f"random schedule seed must be a non-negative integer, got {seed}")
        if not (0.0 < p <= 1.0):
            raise ConfigError("edge_probability must lie in (0, 1]")
        if n < 2:
            raise ConfigError("random schedule needs at least two agents")
        object.__setattr__(self, "n_agents", n)
        object.__setattr__(self, "edge_probability", p)
        object.__setattr__(self, "seed", seed)

    def _build(self, ks: np.ndarray) -> np.ndarray:
        """The read-only stack of the matrices of rounds ``ks`` (each below 2**32).

        Every round draws once; the rounds still disconnected then redraw
        together, pass by pass, each continuing its stream from where its last
        draw left it.  A pass draws its rounds in blocks of ``_DRAW_WORDS``
        uniforms, so the temporaries stay bounded, and writes their links into
        the output stack, where the Metropolis weights then replace them block
        by block; between passes only the pending rounds' streams are kept.
        """
        n = self.n_agents
        iu = np.triu_indices(n, k=1)
        jumps = _pcg64_jumps(iu[0].size)
        rows = max(1, _DRAW_WORDS // iu[0].size)
        out = np.empty((len(ks), n, n))
        pending = np.arange(len(ks))
        for p in range(1001):
            if not len(pending):
                break
            if p == 1000:
                raise ConstructionError(f"could not sample a connected graph at "
                                        f"k={int(ks[pending[0]])}; raise edge_probability")
            left = []
            for lo in range(0, len(pending), rows):
                r = pending[lo:lo + rows]
                s, i = (_pcg64_starts(self.seed, ks[r]) if p == 0
                        else (state[:, lo:lo + rows], inc[:, lo:lo + rows]))
                u, s = _pcg64_random(s, i, jumps)
                adj = np.zeros((len(r), n, n), dtype=bool)
                adj[:, iu[0], iu[1]] = adj[:, iu[1], iu[0]] = u < self.edge_probability
                out[r] = adj
                again = ~support_connected(adj)
                left.append((r[again], s[:, again], i[:, again]))
            pending, state, inc = (np.concatenate(x, axis=-1) for x in zip(*left))
        for lo in range(0, len(ks), rows):
            m = _metropolis(out[lo:lo + rows] > 0)
            _check_weights(m)
            out[lo:lo + rows] = m
        out.setflags(write=False)
        return out

    def distinct_matrices(self, horizon):
        return self._build(np.arange(horizon))


def windows_connected(mats: np.ndarray, q: int, horizon: int) -> np.ndarray:
    """Per distinct window of q consecutive rounds within the first ``horizon``:
    whether the union of its support graphs is connected.  Round t uses
    ``mats[t % n]``, so an (n, S, S) stack has at most n distinct windows and
    only the first min(horizon, n + q - 1) rounds are read; window t starts at
    round t, which for q = 1 is matrix t."""
    if q < 1 or horizon < q:
        raise ConfigError("need q >= 1 and horizon >= q")
    rounds = min(horizon, len(mats) + q - 1)
    pos = mats[np.arange(rounds) % len(mats)] > 0
    # links used within window [t, t+q) counted as differences of running sums
    used = np.cumsum(pos, axis=0, dtype=np.int64)
    used = np.concatenate([np.zeros_like(used[:1]), used])
    return support_connected(used[q:] - used[:-q])


# ---------------------------------------------------------------------------
# serialization


def schedule_from_dict(d: dict) -> WeightSchedule:
    with reading("schedule"):
        variant = d["variant"]
        if variant == "static":
            return StaticSchedule(as_numbers(d["matrix"], "schedule.matrix"))
        if variant == "cyclic":
            return CyclicSchedule(as_numbers(d["matrices"], "schedule.matrices"))
        if variant == "kappa":
            return StaticSchedule(build_two_link_matrix(
                d["pattern"], as_float(d["kappa"], "schedule.kappa")))
        if variant == "random":
            return RandomSchedule(d["n_agents"], d["edge_probability"], d["seed"])
    raise ConfigError(f"unknown schedule variant {variant!r}")
