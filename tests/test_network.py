import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consopt import network
from consopt.network import (
    _DRAW_WORDS, ConstructionError, CyclicSchedule, RandomSchedule, StaticSchedule,
    _pcg64_jumps, _pcg64_random, _pcg64_starts, _seed_sequence_state, adjacency, build_metropolis,
    build_two_link_matrix, complete_graph, graph, is_connected, is_doubly_stochastic,
    max_contraction, path_graph, reachability, ring_graph, schedule_from_dict, support_graph,
    windows_connected,
)
from consopt.problem import ConfigError
from consopt.privacy import SIX_VIRTUAL_PATTERN
from consopt.scenario import load_scenario, shipped_scenario_names, shipped_scenario_path
from reference import is_scrambling


def nu(m) -> float:
    """The contraction coefficient of one matrix: ``max_contraction`` of a stack of one."""
    return max_contraction(np.asarray(m)[None])


def cube_contraction(mats) -> float:
    """Reference nu of a stack: the row overlaps of every ordered row pair, the
    (n, S, S, S) cube of minima summed over its last axis."""
    mats = np.asarray(mats, dtype=float)
    S = mats.shape[-1]
    if S == 1:
        return 0.0
    overlap = np.minimum(mats[:, :, None, :], mats[:, None, :, :]).sum(axis=-1)
    iu = np.triu_indices(S, k=1)
    return min(max(1.0 - float(np.min(overlap[:, iu[0], iu[1]])), 0.0), 1.0)


def random_connected_graph(rng, n, p):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        mask = rng.random(len(pairs)) < p
        g = graph(n, [e for e, keep in zip(pairs, mask) if keep])
        if is_connected(g):
            return g


def bfs_component(g, start=0):
    """Reference reachability: breadth-first search over the edge set."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for i, j in g.edges:
            for u, v in ((i, j), (j, i)):
                if u in frontier and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def bfs_connected(g):
    return len(bfs_component(g)) == g.n_agents


def reference_random_matrix(s, k):
    """Round k of a random schedule built one round at a time: sample the
    edge mask, build a graph, test it by BFS, then loop over the edges."""
    rng = np.random.default_rng([s.seed, k])
    n = s.n_agents
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(1000):
        mask = rng.random(len(pairs)) < s.edge_probability
        g = graph(n, [e for e, keep in zip(pairs, mask) if keep])
        if bfs_connected(g):
            break
    else:
        raise ConstructionError(f"could not sample a connected graph at k={k}")
    deg = np.zeros(n, dtype=int)
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    m = np.zeros((n, n))
    for i, j in g.edges:
        m[i, j] = m[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(m, 1.0 - m.sum(axis=1))
    np.testing.assert_array_equal(m, build_metropolis(g))
    return m


# ---------------------------------------------------------------------------
# metropolis weights


def test_metropolis_two_agents():
    m = build_metropolis(complete_graph(2))
    np.testing.assert_array_equal(m, [[0.5, 0.5], [0.5, 0.5]])


def test_metropolis_path_graph_hand_values():
    m = build_metropolis(path_graph(3))
    third = 1.0 / 3.0
    assert m[0, 1] == third and m[1, 2] == third
    assert m[0, 0] == pytest.approx(2 * third, abs=1e-15)
    assert m[1, 1] == pytest.approx(third, abs=1e-15)
    assert m[2, 2] == pytest.approx(2 * third, abs=1e-15)
    assert m[0, 2] == 0.0


def test_metropolis_edgeless_is_identity():
    m = build_metropolis(graph(3, []))
    np.testing.assert_array_equal(m, np.eye(3))


def test_metropolis_support_matches_graph():
    g = random_connected_graph(np.random.default_rng(2), 8, 0.3)
    m = build_metropolis(g)
    assert support_graph(m).edges == g.edges


# ---------------------------------------------------------------------------
# the two-link virtual matrix


def test_two_link_matrix_reproduces_six_agent_layout():
    k = 0.25
    m = build_two_link_matrix(SIX_VIRTUAL_PATTERN, k)
    d = 1 - 2 * k
    want = np.array([
        [d, 0, k, 0, 0, k],
        [0, d, k, 0, 0, k],
        [0, k, d, 0, k, 0],
        [0, k, 0, d, k, 0],
        [k, 0, 0, k, d, 0],
        [k, 0, 0, k, 0, d],
    ])
    np.testing.assert_array_equal(m, want)


def test_two_link_matrix_doubly_stochastic_at_generic_kappa():
    m = build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.3)
    assert is_doubly_stochastic(m, 1e-12)


def test_two_link_matrix_half_kappa_zero_diagonal():
    m = build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.5)
    assert np.all(np.diag(m) == 0.0)
    assert is_doubly_stochastic(m, 1e-12)


@pytest.mark.parametrize("kappa,eta", [(0.25, 0.25), (0.4, 0.2), (0.5, 0.5)])
def test_two_link_matrix_eta_is_its_smallest_positive_entry(kappa, eta):
    m = build_two_link_matrix(SIX_VIRTUAL_PATTERN, kappa)
    assert np.min(m[m > 0]) == pytest.approx(eta, abs=1e-15)


def test_schedule_from_dict_without_eta_takes_the_smallest_positive_entry():
    matrix = [[0.75, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.75]]
    s = schedule_from_dict({"variant": "static", "matrix": matrix})
    m = s.matrices[0]
    assert np.min(m[m > 0]) == 0.25
    s = schedule_from_dict({"variant": "cyclic", "matrices": [matrix, np.eye(3).tolist()]})
    assert [np.min(m[m > 0]) for m in s.matrices] == [0.25, 1.0]


def test_two_link_matrix_kappa_range():
    for bad in (0.0, -0.1, 0.6):
        with pytest.raises(ConfigError):
            build_two_link_matrix(SIX_VIRTUAL_PATTERN, bad)


def test_two_link_matrix_rejects_bad_row_degree():
    with pytest.raises(ConfigError):
        build_two_link_matrix(((1, 1), (0, 2), (0, 1)), 0.25)
    with pytest.raises(ConfigError):
        build_two_link_matrix(((0, 1), (0, 2), (0, 1)), 0.25)  # self link in row 0


def test_two_link_matrix_rejects_unbalanced_columns():
    with pytest.raises(ConstructionError):
        build_two_link_matrix(((1, 2), (0, 2), (0, 1), (0, 1)), 0.25)


# ---------------------------------------------------------------------------
# validators


def test_is_doubly_stochastic_examples():
    assert is_doubly_stochastic(np.eye(4))
    assert not is_doubly_stochastic(np.array([[0.6, 0.4], [0.3, 0.7]]))
    assert is_doubly_stochastic(build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25))


def test_is_scrambling_examples():
    assert is_scrambling(np.full((4, 4), 0.25))
    assert not is_scrambling(np.eye(3))
    m = build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25)
    assert not is_scrambling(m)
    # rows 0 and 3 have disjoint supports, per the pairwise-support oracle
    assert not np.any((m[0] > 0) & (m[3] > 0))


def test_contraction_examples():
    assert nu(np.full((3, 3), 1 / 3)) == 0.0
    assert nu(np.eye(3)) == 1.0
    lazy = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert nu(lazy) == 0.5
    assert nu(build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25)) == 1.0


def test_contraction_equals_half_l1_distance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = build_metropolis(random_connected_graph(rng, n, 0.4))
        half_l1 = max(
            0.5 * float(np.abs(m[i] - m[j]).sum())
            for i in range(n) for j in range(i + 1, n)
        )
        assert nu(m) == pytest.approx(half_l1, abs=1e-14)


def test_contraction_below_one_iff_scrambling():
    rng = np.random.default_rng(8)
    mats = [np.eye(4), np.full((5, 5), 0.2),
            build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25)]
    for _ in range(40):
        n = int(rng.integers(2, 10))
        mats.append(build_metropolis(random_connected_graph(rng, n, 0.35)))
    for m in mats:
        assert (nu(m) < 1.0) == is_scrambling(m)


def test_is_connected():
    assert is_connected(graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_connected(graph(2, []))
    assert is_connected(graph(1, []))


def test_reachability_matches_bfs():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = graph(n, [e for e, keep in zip(pairs, rng.random(len(pairs)) < 0.2) if keep])
        assert is_connected(g) == bfs_connected(g)
        start = int(rng.integers(n))
        reached = set(np.flatnonzero(reachability(adjacency(g))[start]).tolist())
        assert reached == bfs_component(g, start)


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(ConfigError):
        graph(3, [(1, 1)])
    with pytest.raises(ConfigError):
        graph(3, [(0, 3)])


def test_graph_and_two_link_matrix_take_numpy_integers_as_their_ints():
    g = graph(np.int64(3), np.array([[0, 1], [1, 2]]))
    assert g == graph(3, [[0, 1], [1, 2]]) and type(g.n_agents) is int
    assert all(type(i) is int for e in g.edges for i in e)
    np.testing.assert_array_equal(build_two_link_matrix(np.array(SIX_VIRTUAL_PATTERN), 0.25),
                                  build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25))


# ---------------------------------------------------------------------------
# fusion contract on stacked states


def test_fusion_sum_nonexpansive_for_any_doubly_stochastic_matrix():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        m = build_metropolis(random_connected_graph(rng, n, 0.4))
        x = rng.normal(0, 3, (n, d))
        y = rng.normal(0, 3, d)
        v = m @ x
        assert np.sum((v - y) ** 2) <= np.sum((x - y) ** 2) + 1e-9


# ---------------------------------------------------------------------------
# schedules


def q_connected(schedule, q, horizon) -> bool:
    return bool(windows_connected(schedule.distinct_matrices(horizon), q, horizon).all())


def test_q_connected_static_schedule():
    s = StaticSchedule(build_metropolis(ring_graph(4)))
    assert q_connected(s, 1, 8)
    assert q_connected(s, 3, 8)


def test_q_connected_alternating_edges():
    m1 = build_metropolis(graph(3, [(0, 1)]))
    m2 = build_metropolis(graph(3, [(1, 2)]))
    s = CyclicSchedule((m1, m2))
    assert q_connected(s, 2, 12)
    assert not q_connected(s, 1, 12)


def test_q_connected_isolated_agent_fails():
    m = build_metropolis(graph(3, [(0, 1)]))
    s = StaticSchedule(m)
    assert not q_connected(s, 4, 16)


def test_q_connected_validates_window():
    mats = StaticSchedule(build_metropolis(complete_graph(2))).distinct_matrices(4)
    with pytest.raises(ConfigError):
        windows_connected(mats, 0, 4)
    with pytest.raises(ConfigError):
        windows_connected(mats, 5, 4)


def test_windows_connected_reads_each_distinct_window_once():
    split, joined = (build_metropolis(graph(3, e)) for e in ([(0, 1)], [(0, 1), (1, 2)]))
    # a cycle of n matrices has n distinct windows however long the horizon
    cycle = CyclicSchedule((joined, split, split)).distinct_matrices(50)
    assert windows_connected(cycle, 1, 50).tolist() == [True, False, False]
    assert windows_connected(cycle, 2, 50).tolist() == [True, False, True]
    assert windows_connected(cycle, 2, 2).tolist() == [True]
    # a random stack holds one matrix per round: one entry per window of the horizon
    mats = RandomSchedule(4, 0.5, seed=3).distinct_matrices(20)
    assert windows_connected(mats, 1, 20).tolist() == [True] * 20
    assert windows_connected(mats, 3, 20).shape == (18,)


def test_random_schedule_reproducible_bitwise():
    a = RandomSchedule(5, 0.5, seed=123)
    b = RandomSchedule(5, 0.5, seed=123)
    np.testing.assert_array_equal(a.distinct_matrices(501)[[0, 1, 17, 500]],
                                  b.distinct_matrices(501)[[0, 1, 17, 500]])
    assert not np.array_equal(a.distinct_matrices(1),
                              RandomSchedule(5, 0.5, seed=124).distinct_matrices(1))


def test_random_schedule_per_round_validity():
    s = RandomSchedule(6, 0.4, seed=9)
    for m in s.distinct_matrices(20):
        assert is_doubly_stochastic(m, 1e-12)
        assert is_connected(support_graph(m))


def test_cyclic_schedule_indexing():
    m1 = build_metropolis(graph(3, [(0, 1)]))
    m2 = build_metropolis(graph(3, [(1, 2)]))
    s = CyclicSchedule((m1, m2))
    mats = s.distinct_matrices(5)
    np.testing.assert_array_equal(s.matrices, [m1, m2])
    assert len(mats) == 2
    for k, m in ((0, m1), (1, m2), (4, m1)):
        np.testing.assert_array_equal(mats[k % len(mats)], m)
    assert max_contraction(mats) == 1.0  # both matrices are non-scrambling


@pytest.mark.parametrize("n,p,seed", [
    (8, 0.4, 0), (3, 0.6, 1), (6, 0.5, 2), (8, 0.15, 3), (12, 0.3, 4), (2, 0.3, 5),
    (5, 0.5, 123), (6, 0.4, 9),  # the schedules of the tests above
])
def test_random_stack_equals_per_round_reference(n, p, seed):
    s = RandomSchedule(n, p, seed=seed)
    mats = s.distinct_matrices(150)
    assert mats.shape == (150, n, n) and not mats.flags.writeable
    ref = [reference_random_matrix(s, k) for k in range(150)]
    np.testing.assert_array_equal(mats, np.stack(ref))
    assert np.min(mats, where=mats > 0, initial=1.0) >= (1 - 1e-12) / n
    assert max_contraction(mats) == max(nu(m) for m in ref) == cube_contraction(mats)


def test_schedules_give_read_only_stacks():
    m1 = build_metropolis(graph(3, [(0, 1)]))
    m2 = build_metropolis(graph(3, [(1, 2)]))
    for s, want in ((StaticSchedule(m1), [m1]), (CyclicSchedule((m1, m2)), [m1, m2]),
                    (RandomSchedule(3, 0.6, seed=5), None)):
        mats = s.distinct_matrices(4)
        assert mats.ndim == 3 and not mats.flags.writeable
        want = want or [s._build(np.array([k]))[0] for k in range(4)]
        np.testing.assert_array_equal(mats, np.stack(want))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_stacked_contraction_equals_per_matrix_max(n):
    rng = np.random.default_rng(40 + n)
    mats = [np.eye(n), np.full((n, n), 1.0 / n)]
    while len(mats) < 150:
        # lazy mixes of Metropolis and uniform weights: scrambling, nu spread over (0, 1)
        t = rng.uniform(0.0, 0.9)
        m = build_metropolis(random_connected_graph(rng, n, 0.4))
        mats.append(t * np.eye(n) + (1 - t) * (0.5 * m + 0.5 / n))
    per_matrix = [nu(m) for m in mats]
    stack = np.stack(mats)
    assert max_contraction(stack) == max(per_matrix) == cube_contraction(stack)
    # without the identity (nu = 1) the largest nu moves through every chunk position
    for shift in range(149):
        assert max_contraction(np.roll(stack[1:], shift, axis=0)) == max(per_matrix[1:])


@pytest.mark.parametrize("at", [0, 63, 64, 149, None], ids=lambda at: f"at-{at}")
def test_contraction_scan_that_stops_at_a_non_scrambling_matrix_equals_the_cube(at):
    # nu is 1 from the first non-scrambling matrix on, so the scan stops at its
    # chunk; at 63 and 64 it is the last of the first chunk and the first of the next
    rng = np.random.default_rng(7)
    mats = []
    while len(mats) < 150:
        t = rng.uniform(0.0, 0.9)
        m = build_metropolis(random_connected_graph(rng, 5, 0.4))
        mats.append(t * np.eye(5) + (1 - t) * (0.5 * m + 0.5 / 5))
    if at is not None:
        mats[at] = build_metropolis(path_graph(5))  # its end rows share no agent
    stack = np.stack(mats)
    assert max_contraction(stack) == cube_contraction(stack)
    assert (max_contraction(stack) == 1.0) == (at is not None)


def test_random_schedule_that_never_connects_names_the_round():
    s = RandomSchedule(8, 1e-9, seed=0)
    with pytest.raises(ConstructionError, match="k=0;"):
        s.distinct_matrices(2)
    with pytest.raises(ConstructionError, match="k=70;"):
        s._build(np.array([70]))


# seeds of one 32-bit word, of two, three and five (past SeedSequence's pool of four)
STREAM_SEEDS = [0, 2**31 - 1, 2**32 + 9, 2**64 + 3, 2**140 + 2**70 + 11]
PAIRS_S8 = 28  # the uniforms of one draw at S = 8
ROWS_S8 = _DRAW_WORDS // PAIRS_S8  # the rounds of one draw block at S = 8


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_batched_seed_sequences_equal_numpy(seed):
    # pinned against NumPy itself, so a change of its seeding algorithm fails here
    ks = np.array([0, 1, 2, 77, ROWS_S8 - 1, ROWS_S8, 4095, 2**31, 2**32 - 1])
    want = [np.random.SeedSequence([seed, int(k)]).generate_state(4, np.uint64) for k in ks]
    got = _seed_sequence_state(seed, ks)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, np.stack(want))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_batched_streams_equal_default_rng_bit_for_bit(seed):
    ks = np.arange(2 * ROWS_S8 + 3)  # three draw blocks at S = 8, the last one partial
    state, inc = _pcg64_starts(seed, ks)
    assert state.dtype == inc.dtype == np.uint64 and state.shape == inc.shape == (2, len(ks))
    jumps = _pcg64_jumps(PAIRS_S8)
    draws, at = [], state
    for _ in range(3):  # the first draw, then two redraws continuing the stream
        u, at = _pcg64_random(at, inc, jumps)
        assert u.shape == (len(ks), PAIRS_S8)
        draws.append(u)
    for k in (0, 1, ROWS_S8 - 1, ROWS_S8, 2 * ROWS_S8 - 1, 2 * ROWS_S8, len(ks) - 1):
        want = np.random.PCG64(np.random.SeedSequence([seed, k])).state["state"]
        assert ([int(state[0, k]) << 64 | int(state[1, k]), int(inc[0, k]) << 64 | int(inc[1, k])]
                == [want["state"], want["inc"]])
        want = np.random.default_rng([seed, k]).random(3 * PAIRS_S8)
        for p, u in enumerate(draws):
            np.testing.assert_array_equal(
                u[k].view(np.uint64), want[p * PAIRS_S8:(p + 1) * PAIRS_S8].view(np.uint64))


@pytest.mark.parametrize("n,p,seed,horizon", [
    (8, 0.4, 0, 2 * ROWS_S8 + 40),  # three default blocks, the last one partial
    (8, 0.12, 2**64 + 5, 130),  # most rounds redraw
    (20, 0.15, 2**33 + 1, 200),  # 43 rounds per default block
])
def test_block_size_changes_no_bit(monkeypatch, n, p, seed, horizon):
    s = RandomSchedule(n, p, seed=seed)
    pairs = n * (n - 1) // 2
    want = s.distinct_matrices(horizon)  # the default budget
    rows = _DRAW_WORDS // pairs
    edges = [k for k in range(horizon) if k % rows in (0, rows - 1)] + [horizon - 1]
    np.testing.assert_array_equal(want[edges],
                                  np.stack([reference_random_matrix(s, k) for k in edges]))
    assert horizon % 7
    # one round per block, and blocks of 7 rounds, which split the horizon unevenly
    for words in (1, 7 * pairs):
        monkeypatch.setattr(network, "_DRAW_WORDS", words)
        np.testing.assert_array_equal(s.distinct_matrices(horizon), want)


def test_random_build_temporaries_stay_bounded():
    # blocks of _DRAW_WORDS uniforms bound what a build holds beside its output
    s = RandomSchedule(40, 0.12, seed=7)
    s.distinct_matrices(2)  # first-call allocations are not the build's
    tracemalloc.start()
    try:
        mats = s.distinct_matrices(600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - mats.nbytes < 2 * 2**20, f"{(peak - mats.nbytes) / 2**20:.2f} MiB"


def test_heavy_redraw_schedule_equals_per_round_reference():
    s = RandomSchedule(8, 0.12, seed=2**64 + 5)
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]

    def first_draw_connected(k):
        keep = np.random.default_rng([s.seed, k]).random(len(pairs)) < s.edge_probability
        return bfs_connected(graph(8, [e for e, kept in zip(pairs, keep) if kept]))

    assert sum(not first_draw_connected(k) for k in range(130)) > 100  # most rounds redraw
    mats = s.distinct_matrices(130)
    np.testing.assert_array_equal(mats, np.stack([reference_random_matrix(s, k)
                                                  for k in range(130)]))
    assert max_contraction(mats) == cube_contraction(mats)


@pytest.mark.parametrize("seed", [-5, 1.5, True, "3", None])
def test_random_schedule_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ConfigError, match="seed"):
        RandomSchedule(4, 0.5, seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        schedule_from_dict({"variant": "random", "n_agents": 4, "edge_probability": 0.5,
                            "seed": seed})


@pytest.mark.parametrize("field,value", [
    ("n_agents", 3.5), ("n_agents", "4"), ("n_agents", True), ("n_agents", None),
    ("edge_probability", "0.5"), ("edge_probability", True), ("edge_probability", None),
    ("edge_probability", [0.5]),
])
def test_random_schedule_rejects_a_mistyped_argument(field, value):
    args = {"n_agents": 4, "edge_probability": 0.5, "seed": 0, field: value}
    with pytest.raises(ConfigError, match=f"^schedule.{field}: expected a"):
        RandomSchedule(**args)
    with pytest.raises(ConfigError, match=f"^schedule.{field}: expected a"):
        schedule_from_dict({"variant": "random", **args})


def test_random_schedule_takes_a_numpy_integer_seed_as_its_int():
    s = RandomSchedule(np.int64(4), np.float32(0.5), seed=np.uint64(2**63 + 1))
    assert type(s.seed) is int and s.seed == 2**63 + 1
    assert type(s.n_agents) is int and type(s.edge_probability) is float
    np.testing.assert_array_equal(s.distinct_matrices(3),
                                  RandomSchedule(4, 0.5, seed=2**63 + 1).distinct_matrices(3))


@pytest.mark.parametrize("name", shipped_scenario_names())
def test_pairwise_contraction_equals_the_overlap_cube_on_shipped_schedules(name):
    rc = load_scenario(shipped_scenario_path(name)).run_config
    mats = rc.schedule.distinct_matrices(max(rc.n_iterations, 1))
    assert max_contraction(mats) == cube_contraction(mats)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), p=st.floats(0.2, 1.0), seed=st.integers(0, 2**32 - 1))
def test_random_stack_properties(n, p, seed):
    s = RandomSchedule(n, p, seed=seed)
    mats = s.distinct_matrices(66)
    for k, m in enumerate(mats):
        np.testing.assert_array_equal(m, m.T)
        assert np.all(np.abs(m.sum(axis=0) - 1.0) <= 1e-12)
        assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(m >= 0) and bfs_connected(support_graph(m))
        assert np.min(m[m > 0]) >= (1 - 1e-12) / n
        np.testing.assert_array_equal(m, reference_random_matrix(s, k))
    assert max_contraction(mats) == cube_contraction(mats)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_metropolis_doubly_stochastic_on_random_connected_graphs(data, n):
    # a random spanning tree keeps the graph connected; extra links are free
    tree = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = graph(n, tree + [e for e, keep in zip(pairs, extra) if keep])
    m = build_metropolis(g)
    assert is_doubly_stochastic(m, 1e-12)
    np.testing.assert_array_equal(m, m.T)
    assert support_graph(m).edges == g.edges


def test_schedule_from_dict_variants():
    s = schedule_from_dict({"variant": "static", "matrix": [[0.5, 0.5], [0.5, 0.5]]})
    assert isinstance(s, StaticSchedule) and s.n_agents == 2
    s = schedule_from_dict({
        "variant": "kappa",
        "pattern": [list(r) for r in SIX_VIRTUAL_PATTERN],
        "kappa": 0.25,
    })
    assert s.n_agents == 6
    s = schedule_from_dict({"variant": "random", "n_agents": 4,
                            "edge_probability": 0.6, "seed": 5})
    assert isinstance(s, RandomSchedule)
    with pytest.raises(ConfigError, match="matrix"):
        schedule_from_dict({"variant": "static"})
    with pytest.raises(ConfigError):
        schedule_from_dict({"variant": "nope"})


# ---------------------------------------------------------------------------
# weight-matrix invariants


def test_weight_matrix_rejects_bad_input():
    with pytest.raises(ConfigError):
        StaticSchedule(np.array([[0.9, 0.2], [0.2, 0.9]]))  # sums 1.1
    with pytest.raises(ConfigError):
        StaticSchedule(np.array([[1.2, -0.2], [-0.2, 1.2]]))  # negative


def test_schedules_and_builders_freeze_a_copy():
    caller = np.full((2, 2), 0.5)
    s = StaticSchedule(caller)
    assert caller.flags.writeable and not s.matrices.flags.writeable
    caller[0, 0] = 0.0  # the schedule's matrix is its own
    np.testing.assert_array_equal(s.matrices, [np.full((2, 2), 0.5)])
    for m in (build_metropolis(path_graph(3)), build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25)):
        assert isinstance(m, np.ndarray) and not m.flags.writeable


def test_builders_emit_valid_matrices_at_tight_tolerance():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        g = random_connected_graph(rng, n, 0.5)
        m = build_metropolis(g)
        assert is_doubly_stochastic(m, 1e-12)
        assert np.all(m[m > 0] >= (1 - 1e-12) / n)
