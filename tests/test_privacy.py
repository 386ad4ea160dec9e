import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consopt.analysis import centralized_solve, verdict
from consopt.engine import RunConfig, StepSchedule, run
from consopt.network import (
    ConstructionError, StaticSchedule, build_metropolis, build_two_link_matrix,
    complete_graph, graph, is_connected, support_graph,
)
from consopt.privacy import (
    PartitionPlan, SIX_VIRTUAL_PATTERN, TransformedProblem, TransformProvenance,
    certify_equivalence, default_plan, partition_problem,
    random_function_sharing, six_virtual_plan, virtual_topology,
)
from consopt.problem import (
    Ball, Box, ConfigError, Problem, polynomial, quadratic, sine_quadratic, sum_grad,
    sum_value, value_many,
)

TRIANGLE = complete_graph(3)


def triangle_problem():
    fs = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    comps = (
        quadratic("f0", [[1.0, 0.0], [0.0, 0.5]], [0.25, 0.0], 0.0, bounds_for=fs),
        quadratic("f1", [[0.5, 0.0], [0.0, 1.0]], [0.0, 0.25], 0.1, bounds_for=fs),
        quadratic("f2", [[0.75, 0.25], [0.25, 0.75]], [-0.125, -0.125], 0.0, bounds_for=fs),
    )
    return Problem(2, comps, fs)


# ---------------------------------------------------------------------------
# plans and virtual topology


def test_six_virtual_plan_matches_two_link_support():
    plan = six_virtual_plan()
    vg = virtual_topology(TRIANGLE, plan)
    assert vg.n_agents == 6 and is_connected(vg)
    m = build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25)
    assert support_graph(m).edges == vg.edges


def test_six_virtual_plan_owner_mapping_respects_real_links():
    plan = six_virtual_plan()
    owners = plan.owners()
    assert owners == (0, 0, 1, 1, 2, 2)
    for u, v in plan.virtual_edges:
        assert owners[u] != owners[v]  # this wiring has no internal links
        assert (min(owners[u], owners[v]), max(owners[u], owners[v])) in TRIANGLE.edges


def test_single_agent_plan_is_connected():
    g1 = graph(1, [])
    plan = default_plan(g1, 1)
    vg = virtual_topology(g1, plan)
    assert vg.n_agents == 1 and is_connected(vg)


def test_plan_without_cross_links_reports_isolated_agents():
    plan = PartitionPlan((2, 2, 2), frozenset({(0, 1), (2, 3), (4, 5)}))
    with pytest.raises(ConstructionError, match="isolated"):
        virtual_topology(TRIANGLE, plan)


def test_plan_link_between_unlinked_owners_rejected():
    g = graph(3, [(0, 1), (1, 2)])  # no 0~2 link
    plan = PartitionPlan((1, 1, 1), frozenset({(0, 1), (1, 2), (0, 2)}))
    with pytest.raises(ConstructionError, match="no real link"):
        virtual_topology(g, plan)


def test_default_plan_connected_for_connected_graph():
    g = graph(4, [(0, 1), (1, 2), (2, 3)])
    plan = default_plan(g, 3)
    vg = virtual_topology(g, plan)
    assert vg.n_agents == 12 and is_connected(vg)


# ---------------------------------------------------------------------------
# partition transform


def test_partition_zero_perturbation_halves_components():
    prob = triangle_problem()
    t = partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=0,
                          perturbation_scale=0.0)
    assert t.problem.n_agents == 6
    for i, orig in enumerate(prob.components):
        for j in (0, 1):
            piece = t.problem.components[2 * i + j]
            np.testing.assert_array_equal(piece.params["a"], orig.params["a"] / 2)
            np.testing.assert_array_equal(piece.params["b"], orig.params["b"] / 2)
            assert piece.params["c"] == orig.params["c"] / 2


def test_partition_preserves_sum_pointwise():
    prob = triangle_problem()
    t = partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=3,
                          perturbation_scale=1.0)
    rng = np.random.default_rng(0)
    xs = prob.feasible_set.sample(500, rng)
    np.testing.assert_allclose(sum_value(t.problem, xs), sum_value(prob, xs),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(sum_grad(t.problem, xs), sum_grad(prob, xs),
                               rtol=0, atol=1e-12)


def test_partition_pieces_are_nonconvex():
    prob = triangle_problem()
    t = partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=3,
                          perturbation_scale=1.0)
    mins = [np.linalg.eigvalsh(p.params["a"])[0] for p in t.problem.components]
    assert min(mins) < -0.2  # perturbations created genuinely indefinite pieces


def test_partition_declared_bounds_hold_by_sampling():
    from consopt.problem import estimate_bounds
    prob = triangle_problem()
    t = partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=5,
                          perturbation_scale=1.0)
    for idx, piece in enumerate(t.problem.components):
        est = estimate_bounds(piece, prob.feasible_set, 300, seed=idx)
        assert not est.l_violated and not est.n_violated


def test_partition_respects_gradient_cap():
    prob = triangle_problem()
    with pytest.raises(ConfigError, match="perturbation_scale"):
        partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=1,
                          perturbation_scale=5.0, max_grad_bound=1.0)


def test_partition_separable_family_stays_separable():
    fs = Box(np.array([-2.0]), np.array([2.0]))
    prob = Problem(1, (
        polynomial("p0", [[0.0, 0.0, -3.0, 0.0, 1.0]], bounds_for=fs),
        polynomial("p1", [[0.0, 1.0, 3.0]], bounds_for=fs),
    ), fs)
    g = complete_graph(2)
    t = partition_problem(prob, g, default_plan(g, 2), seed=2, perturbation_scale=0.5)
    assert all(p.family == "polynomial-separable" for p in t.problem.components)
    xs = fs.sample(300, np.random.default_rng(1))
    np.testing.assert_allclose(sum_value(t.problem, xs), sum_value(prob, xs), atol=1e-12)


def test_partition_reproducible_bitwise():
    prob = triangle_problem()
    a = partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=9, perturbation_scale=0.7)
    b = partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=9, perturbation_scale=0.7)
    for pa, pb in zip(a.problem.components, b.problem.components):
        np.testing.assert_array_equal(pa.params["a"], pb.params["a"])
        np.testing.assert_array_equal(pa.params["b"], pb.params["b"])
    c = partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=10, perturbation_scale=0.7)
    assert not np.array_equal(a.problem.components[0].params["a"],
                              c.problem.components[0].params["a"])


# ---------------------------------------------------------------------------
# random function sharing


def test_sharing_zero_scale_is_identity():
    prob = triangle_problem()
    t = random_function_sharing(prob, TRIANGLE, 0.0, seed=1)
    assert t.problem.n_agents == 3 and t.graph is TRIANGLE
    for old, new in zip(prob.components, t.problem.components):
        np.testing.assert_array_equal(old.params["a"], new.params["a"])
        np.testing.assert_array_equal(old.params["b"], new.params["b"])


def test_sharing_two_agents_telescopes():
    fs = Box(np.array([-1.0]), np.array([1.0]))
    prob = Problem(1, (
        quadratic("f0", [[2.0]], [0.1], bounds_for=fs),
        quadratic("f1", [[1.0]], [-0.1], bounds_for=fs),
    ), fs)
    g = complete_graph(2)
    t = random_function_sharing(prob, g, 1.0, seed=4)
    xs = fs.sample(200, np.random.default_rng(2))
    shift0 = value_many(t.problem.components[0], xs) - value_many(prob.components[0], xs)
    shift1 = value_many(t.problem.components[1], xs) - value_many(prob.components[1], xs)
    np.testing.assert_allclose(shift0 + shift1, 0.0, atol=1e-12)
    assert np.max(np.abs(shift0)) > 0.01  # something was actually exchanged


def test_sharing_gradient_sums_match():
    prob = triangle_problem()
    t = random_function_sharing(prob, TRIANGLE, 1.0, seed=7)
    xs = prob.feasible_set.sample(100, np.random.default_rng(3))
    np.testing.assert_allclose(sum_grad(t.problem, xs), sum_grad(prob, xs), atol=1e-9)


def test_sharing_creates_nonconvex_components():
    prob = triangle_problem()
    t = random_function_sharing(prob, TRIANGLE, 1.0, seed=7)
    mins = [np.linalg.eigvalsh(c.params["a"])[0] for c in t.problem.components]
    assert min(mins) < 0


def test_sharing_needs_connected_graph():
    prob = triangle_problem()
    with pytest.raises(ConfigError, match="connected"):
        random_function_sharing(prob, graph(3, [(0, 1)]), 1.0, seed=0)


def test_sharing_reproducible():
    prob = triangle_problem()
    a = random_function_sharing(prob, TRIANGLE, 0.5, seed=11)
    b = random_function_sharing(prob, TRIANGLE, 0.5, seed=11)
    for pa, pb in zip(a.problem.components, b.problem.components):
        np.testing.assert_array_equal(pa.params["a"], pb.params["a"])


# ---------------------------------------------------------------------------
# both transforms, on drawn problems

FAMILIES = ("quadratic", "polynomial-separable", "sine-perturbed-quadratic")
PATH3 = graph(3, [(0, 1), (1, 2)])


def drawn_problem(families, in_ball, dim, seed):
    """One component per agent, each of the family named, with seeded parameters."""
    fs = Ball(np.full(dim, 0.25), 1.5) if in_ball else Box(np.full(dim, -1.0), np.full(dim, 1.5))
    rng = np.random.default_rng(seed)
    comps = []
    for j, family in enumerate(families):
        m = rng.normal(size=(dim, dim))
        a, b, c = m + m.T, rng.normal(size=dim), rng.normal()
        if family == "quadratic":
            comps.append(quadratic(f"c{j}", a, b, c, bounds_for=fs))
        elif family == "polynomial-separable":
            cfs = [rng.normal(size=int(rng.integers(1, 6))) for _ in range(dim)]
            comps.append(polynomial(f"c{j}", cfs, bounds_for=fs))
        else:
            comps.append(sine_quadratic(f"c{j}", a, b, c, rng.normal(size=dim),
                                        rng.uniform(0.5, 4.0, size=dim), bounds_for=fs))
    return Problem(dim, tuple(comps), fs)


def assert_preserves_sum(prob, t, seed):
    """Summed value and gradient agree pointwise within 1e-9 (1 + |f|)."""
    xs = prob.feasible_set.sample(64, np.random.default_rng([seed, 1]))
    f = sum_value(prob, xs)
    tol = 1e-9 * (1.0 + np.abs(f))
    assert np.all(np.abs(sum_value(t.problem, xs) - f) <= tol)
    assert np.all(np.linalg.norm(sum_grad(t.problem, xs) - sum_grad(prob, xs), axis=1) <= tol)


def assert_bitwise_equal(p, q):
    assert (p.id, p.family, p.dimension) == (q.id, q.family, q.dimension)
    assert (p.grad_bound, p.lipschitz) == (q.grad_bound, q.lipschitz)
    assert list(p.params) == list(q.params)
    for key, v in p.params.items():
        pairs = zip(v, q.params[key], strict=True) if key == "coeffs" else [(v, q.params[key])]
        for a, b in pairs:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


drawn = dict(families=st.lists(st.sampled_from(FAMILIES), min_size=3, max_size=3),
             in_ball=st.booleans(), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(plan=st.sampled_from(["m1", "m2", "m3", "six-virtual"]),
       scale=st.floats(0.0, 2.0), **drawn)
def test_partition_preserves_the_sum_of_drawn_problems(plan, scale, families, in_ball, dim,
                                                      seed):
    prob = drawn_problem(families, in_ball, dim, seed)
    make_plan = (six_virtual_plan if plan == "six-virtual"
                 else lambda: default_plan(TRIANGLE, int(plan[1])))
    t = partition_problem(prob, TRIANGLE, make_plan(), seed, perturbation_scale=scale)
    assert t.problem.n_agents == make_plan().n_virtual
    assert_preserves_sum(prob, t, seed)
    again = partition_problem(prob, TRIANGLE, make_plan(), seed, perturbation_scale=scale)
    for p, q in zip(t.problem.components, again.problem.components, strict=True):
        assert_bitwise_equal(p, q)


@settings(max_examples=40, deadline=None)
@given(g=st.sampled_from([TRIANGLE, PATH3]), scale=st.floats(0.0, 2.0), **drawn)
def test_sharing_preserves_the_sum_of_drawn_problems(g, scale, families, in_ball, dim, seed):
    prob = drawn_problem(families, in_ball, dim, seed)
    t = random_function_sharing(prob, g, scale, seed)
    assert [c.family for c in t.problem.components] == families
    assert_preserves_sum(prob, t, seed)
    again = random_function_sharing(prob, g, scale, seed)
    for p, q in zip(t.problem.components, again.problem.components, strict=True):
        assert_bitwise_equal(p, q)


# ---------------------------------------------------------------------------
# equivalence certification


def test_certify_identity_transform_zero_residuals():
    prob = triangle_problem()
    t = TransformedProblem(prob, TRIANGLE,
                           TransformProvenance("none", (0, 1, 2), {}))
    rep = certify_equivalence(prob, t, 200, seed=0)
    assert rep.passed and rep.value_residual == 0.0 and rep.grad_residual == 0.0


def test_certify_partition_passes():
    prob = triangle_problem()
    t = partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=2,
                          perturbation_scale=1.0)
    rep = certify_equivalence(prob, t, 1000, seed=5)
    assert rep.passed and rep.value_residual <= 1e-9 and rep.grad_residual <= 1e-9


def test_certify_detects_dropped_share():
    prob = triangle_problem()
    t = random_function_sharing(prob, TRIANGLE, 1.0, seed=6)
    # corrupt the transform: agent 0 "forgets" everything it exchanged
    broken = TransformedProblem(
        Problem(prob.dimension, (prob.components[0],) + t.problem.components[1:],
                prob.feasible_set),
        TRIANGLE, t.provenance,
    )
    rep = certify_equivalence(prob, broken, 500, seed=1)
    assert not rep.passed and rep.value_residual > 1e-3


# ---------------------------------------------------------------------------
# end to end: transformed runs still reach the original optimum


def test_partitioned_run_converges_to_original_optimum():
    prob = triangle_problem()
    t = partition_problem(prob, TRIANGLE, six_virtual_plan(), seed=11,
                          perturbation_scale=0.5)
    sched = StaticSchedule(build_two_link_matrix(SIX_VIRTUAL_PATTERN, 0.25))
    cfg = RunConfig(t.problem, sched, StepSchedule(1.0), 6000, seed=1, record_every=20)
    tr = run(cfg)
    assert tr.bound is None and not tr.summary.bound_enabled  # the kappa schedule: nu = 1
    oracle = centralized_solve(prob)  # the ORIGINAL problem's optimum
    v = verdict(tr, oracle, tol_consensus=5e-3, tol_gap=5e-3)
    assert v.gap_pass and v.consensus_pass


def test_shared_run_converges_to_original_optimum():
    prob = triangle_problem()
    t = random_function_sharing(prob, TRIANGLE, 1.0, seed=3)
    sched = StaticSchedule(build_metropolis(TRIANGLE))
    cfg = RunConfig(t.problem, sched, StepSchedule(1.0), 6000, seed=1, record_every=20)
    tr = run(cfg)
    oracle = centralized_solve(prob)
    v = verdict(tr, oracle, tol_consensus=5e-3, tol_gap=5e-3)
    assert v.gap_pass and v.consensus_pass
