import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consopt.problem import (
    Ball, Box, ConfigError, Problem, analytic_bounds, check_gradient,
    component_from_dict, component_to_dict, estimate_bounds, eval_component,
    grad_component, grad_many, polynomial, problem_from_dict, problem_to_dict,
    project, quadratic, sine_quadratic, sum_grad, sum_value, value_many,
    verify_sum_convexity,
)

BOX1 = Box(np.array([-2.0]), np.array([2.0]))
BOX2 = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


def quartic_minus(cid="q"):
    # x^4 - 3x^2
    return polynomial(cid, [[0.0, 0.0, -3.0, 0.0, 1.0]], bounds_for=BOX1)


def quad_plus(cid="p"):
    # 3x^2 + x
    return polynomial(cid, [[0.0, 1.0, 3.0]], bounds_for=BOX1)


# ---------------------------------------------------------------------------
# projection


def test_project_box_clamps():
    fs = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(project(fs, [2.0, -1.0]), [1.0, 0.0])


def test_project_box_identity_inside():
    fs = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(project(fs, [0.3, 0.7]), [0.3, 0.7])


def test_project_ball_radial():
    fs = Ball(np.zeros(2), 1.0)
    np.testing.assert_allclose(project(fs, [3.0, 4.0]), [0.6, 0.8], atol=1e-12)


@pytest.mark.parametrize("fs", [
    Box(np.array([-1.0, 0.5, -3.0]), np.array([2.0, 0.5, 0.0])),
    Ball(np.array([0.5, -1.0, 2.0]), 1.7),
])
def test_projection_idempotent_and_feasible(fs):
    rng = np.random.default_rng(0)
    pts = rng.normal(0.0, 5.0, size=(300, 3))
    once = fs.project_many(pts)
    twice = fs.project_many(once)
    np.testing.assert_array_equal(once, twice)  # exactly idempotent
    assert np.all(fs.distance_many(once) <= 1e-12)


@pytest.mark.parametrize("fs", [BOX2, Ball(np.array([0.3, -0.2]), 1.5)])
def test_projection_nonexpansive(fs):
    rng = np.random.default_rng(1)
    xs = rng.normal(0.0, 4.0, size=(200, 2))
    ys = rng.normal(0.0, 4.0, size=(200, 2))
    px, py = fs.project_many(xs), fs.project_many(ys)
    lhs = np.linalg.norm(px - py, axis=1)
    rhs = np.linalg.norm(xs - ys, axis=1)
    assert np.all(lhs <= rhs + 1e-12)


def feasible_sets(dim):
    """Boxes (possibly flat in some coordinate) and balls in dimension dim."""
    coords = st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim)
    boxes = st.tuples(coords, coords).map(
        lambda c: Box(np.minimum(c[0], c[1]), np.maximum(c[0], c[1])))
    balls = st.builds(lambda c, r: Ball(np.array(c), r), coords, st.floats(0.01, 4.0))
    return st.one_of(boxes, balls)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), n=st.integers(1, 40))
def test_project_many_idempotent_and_nonexpansive(data, dim, n):
    fs = data.draw(feasible_sets(dim))
    points = st.lists(st.floats(-20.0, 20.0), min_size=n * dim, max_size=n * dim)
    xs = np.array(data.draw(points)).reshape(n, dim)
    ys = np.array(data.draw(points)).reshape(n, dim)
    px, py = fs.project_many(xs), fs.project_many(ys)
    np.testing.assert_array_equal(fs.project_many(px), px)
    scale = 1.0 + np.maximum(np.abs(xs).max(), np.abs(ys).max())
    assert np.all(np.linalg.norm(px - py, axis=1)
                  <= np.linalg.norm(xs - ys, axis=1) + 1e-12 * scale)


def stack_problem(family, fs, n_agents, seed):
    """n_agents components of one family, with seeded random parameters."""
    rng = np.random.default_rng(seed)
    dim = fs.dimension
    comps = []
    for j in range(n_agents):
        m = rng.normal(size=(dim, dim))
        a, b = m + m.T, rng.normal(size=dim)
        if family == "quadratic":
            comps.append(quadratic(f"c{j}", a, b, 0.5, grad_bound=1.0, lipschitz=1.0))
        elif family == "polynomial-separable":
            cfs = [rng.normal(size=int(rng.integers(1, 6))) for _ in range(dim)]
            comps.append(polynomial(f"c{j}", cfs, grad_bound=1.0, lipschitz=1.0))
        else:
            comps.append(sine_quadratic(f"c{j}", a, b, 0.5, rng.normal(size=dim),
                                        rng.uniform(0.5, 4.0, size=dim),
                                        grad_bound=1.0, lipschitz=1.0))
    return Problem(dim, tuple(comps), fs)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["quadratic", "polynomial-separable", "sine-perturbed-quadratic"]),
       in_ball=st.booleans(), dim=st.integers(1, 5), n_agents=st.integers(1, 8),
       batch=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_stacked_grads_and_projections_equal_each_state_alone(family, in_ball, dim, n_agents,
                                                             batch, seed):
    # the batched engine steps (B, S, D) stacks and relies on this equality
    fs = Ball(np.full(dim, 0.25), 1.5) if in_ball else Box(np.full(dim, -1.0), np.full(dim, 1.5))
    prob = stack_problem(family, fs, n_agents, seed)
    v = np.random.default_rng(seed).normal(0.0, 2.0, size=(batch, n_agents, dim))
    grads = prob.evaluator.grads(v)
    projected = fs.project_many(v)
    for b in range(batch):
        assert grads[b].tobytes() == prob.evaluator.grads(v[b]).tobytes()
        assert projected[b].tobytes() == fs.project_many(v[b]).tobytes()


def test_project_dimension_mismatch():
    with pytest.raises(ConfigError):
        project(BOX2, [1.0, 2.0, 3.0])


def test_empty_box_rejected():
    with pytest.raises(ConfigError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ConfigError):
        Ball(np.zeros(2), 0.0)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_quadratic_1d():
    c = quadratic("f", [[2.0]], [0.0], 0.0, grad_bound=10.0, lipschitz=2.0)
    assert eval_component(c, [3.0]) == 9.0


def test_eval_polynomial():
    assert eval_component(quartic_minus(), [1.0]) == -2.0


def test_eval_sum_of_components():
    prob = Problem(1, (quartic_minus(), quad_plus()), BOX1)
    assert float(sum_value(prob, np.array([[1.0]]))[0]) == 2.0


def test_grad_polynomial():
    np.testing.assert_allclose(grad_component(quartic_minus(), [1.0]), [-2.0])


def test_grad_quadratic_at_origin():
    c = quadratic("f", [[2.0, 0.0], [0.0, 2.0]], [1.0, 1.0], 0.0,
                  grad_bound=10.0, lipschitz=2.0)
    np.testing.assert_array_equal(grad_component(c, [0.0, 0.0]), [1.0, 1.0])


def test_grad_stationary_point():
    c = quadratic("f", [[2.0]], [0.0], 0.0, grad_bound=10.0, lipschitz=2.0)
    np.testing.assert_array_equal(grad_component(c, [0.0]), [0.0])


def test_sine_quadratic_closed_forms():
    fs = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    c = sine_quadratic("s", [[1.0, 0.0], [0.0, 2.0]], [0.1, -0.2], 0.3,
                       [0.5, 0.25], [2.0, 3.0], bounds_for=fs)
    x = np.array([0.4, -1.1])
    want = 0.5 * (x[0] ** 2 + 2 * x[1] ** 2) + 0.1 * x[0] - 0.2 * x[1] + 0.3
    want += 0.5 * np.sin(2 * 0.4) + 0.25 * np.sin(3 * -1.1)
    assert eval_component(c, x) == pytest.approx(want, rel=1e-15)
    g_want = np.array([x[0] + 0.1 + 0.5 * 2 * np.cos(2 * x[0]),
                       2 * x[1] - 0.2 + 0.25 * 3 * np.cos(3 * x[1])])
    np.testing.assert_allclose(grad_component(c, x), g_want, rtol=1e-14)


def test_evaluator_matches_per_family_reference():
    # independent per-component formulas: BLAS products, numpy Horner
    from numpy.polynomial import polynomial as npoly
    comps = (
        quadratic("q", [[1.0, 0.3], [0.3, -0.5]], [0.1, -0.2], 0.4, bounds_for=BOX2),
        polynomial("p", [[0.5, -1.0, 0.0, 2.0], [0.0, 1.0]], bounds_for=BOX2),
        sine_quadratic("s", [[2.0, 0.0], [0.0, 1.0]], [0.0, 0.3], -0.1,
                       [0.5, 0.25], [2.0, 3.0], bounds_for=BOX2),
    )
    xs = BOX2.sample(300, np.random.default_rng(4))

    def reference(c):
        if c.family == "polynomial-separable":
            cfs = c.params["coeffs"]
            return (sum(npoly.polyval(xs[:, d], cf) for d, cf in enumerate(cfs)),
                    np.column_stack([npoly.polyval(xs[:, d], npoly.polyder(cf))
                                     for d, cf in enumerate(cfs)]))
        a, b = c.params["a"], c.params["b"]
        v = 0.5 * np.sum(xs * (xs @ a), axis=1) + xs @ b + c.params["c"]
        g = xs @ a + b
        if c.family == "sine-perturbed-quadratic":
            amp, freq = c.params["amplitude"], c.params["frequency"]
            v = v + np.sin(xs * freq) @ amp
            g = g + amp * freq * np.cos(xs * freq)
        return v, g

    refs = [reference(c) for c in comps]
    for c, (v, g) in zip(comps, refs):
        np.testing.assert_allclose(value_many(c, xs), v, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(grad_many(c, xs), g, rtol=1e-13, atol=1e-13)
    prob = Problem(2, comps, BOX2)
    np.testing.assert_allclose(sum_value(prob, xs), sum(v for v, _ in refs), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(sum_grad(prob, xs), sum(g for _, g in refs), rtol=1e-13, atol=1e-13)
    # the stacked evaluator: row j of the states uses component j
    states = xs[:3]
    np.testing.assert_allclose(prob.evaluator.values(states),
                               [refs[j][0][j] for j in range(3)], rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(prob.evaluator.grads(states),
                               [refs[j][1][j] for j in range(3)], rtol=1e-13, atol=1e-13)


def test_asymmetric_quadratic_rejected():
    with pytest.raises(ConfigError):
        quadratic("f", [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0], grad_bound=1.0, lipschitz=1.0)


# ---------------------------------------------------------------------------
# gradient checking


def central_diff(c, p, h):
    fd = np.empty(c.dimension)
    for d in range(c.dimension):
        e = np.zeros(c.dimension)
        e[d] = h
        fd[d] = (eval_component(c, p + e) - eval_component(c, p - e)) / (2 * h)
    return fd


def test_check_gradient_quadratic_exact():
    c = quadratic("f", [[2.0]], [0.0], grad_bound=10.0, lipschitz=2.0)
    rep = check_gradient(c, BOX1, np.array([[1.0]]), h=1e-5)
    assert rep.n_checked == 1 and rep.max_rel_error <= 1e-8


def test_check_gradient_quartic_matches_independent_stencil():
    c = quartic_minus()
    p = np.array([1.5])
    rep = check_gradient(c, BOX1, p[None, :], h=1e-5)
    assert rep.max_rel_error <= 1e-6
    # independent oracle: same stencil computed here versus the closed form
    fd = central_diff(c, p, 1e-5)
    analytic = 4 * 1.5 ** 3 - 6 * 1.5
    np.testing.assert_allclose(fd, [analytic], rtol=1e-7)


def test_check_gradient_sine_family():
    fs = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    c = sine_quadratic("s", [[1.0, 0.2], [0.2, 1.5]], [0.3, -0.1], 0.0,
                       [0.4, 0.6], [1.5, 2.5], bounds_for=fs)
    pts = fs.sample(10, np.random.default_rng(5)) * 0.9  # stay interior
    rep = check_gradient(c, fs, pts, h=1e-5)
    assert rep.n_checked == 10 and rep.max_rel_error <= 1e-5


def test_check_gradient_skips_boundary_points():
    c = quartic_minus()
    pts = np.array([[2.0], [0.5]])  # first sits on the boundary
    with pytest.warns(RuntimeWarning, match="skipped 1"):
        rep = check_gradient(c, BOX1, pts, h=1e-5)
    assert rep.n_checked == 1 and rep.n_skipped == 1


def test_check_gradient_rejects_bad_h():
    with pytest.raises(ConfigError):
        check_gradient(quartic_minus(), BOX1, np.array([[0.0]]), h=0.5)


@pytest.mark.parametrize("make", [
    lambda fs: quadratic("f", [[1.3, -0.4], [-0.4, 0.8]], [0.2, -0.7], 0.1, bounds_for=fs),
    lambda fs: polynomial("f", [[0.0, 1.0, -2.0, 0.5], [1.0, 0.0, 0.3]], bounds_for=fs),
    lambda fs: sine_quadratic("f", [[0.9, 0.1], [0.1, 1.1]], [0.0, 0.4], 0.0,
                              [0.3, -0.2], [2.0, 1.0], bounds_for=fs),
])
def test_gradient_consistency_per_family(make):
    fs = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    c = make(fs)
    pts = fs.sample(100, np.random.default_rng(9)) * 0.99
    rep = check_gradient(c, fs, pts, h=1e-5)
    assert rep.n_checked == 100
    assert rep.max_rel_error <= 1e-5


# ---------------------------------------------------------------------------
# bound estimation


def grid_sup(fun, lo, hi, n=400_001):
    xs = np.linspace(lo, hi, n)
    return float(np.max(np.abs(fun(xs))))


def test_estimate_bounds_quartic_gradient_sup():
    c = quartic_minus()
    est = estimate_bounds(c, BOX1, 2000, seed=3)
    sup = grid_sup(lambda x: 4 * x ** 3 - 6 * x, -2.0, 2.0)
    assert sup == pytest.approx(20.0, abs=1e-3)
    assert est.l_hat <= 20.0 + 1e-9
    assert not est.l_violated


def test_estimate_bounds_quartic_lipschitz_sup():
    c = quartic_minus()
    est = estimate_bounds(c, BOX1, 2000, seed=4)
    sup = grid_sup(lambda x: 12 * x ** 2 - 6, -2.0, 2.0)
    assert sup == pytest.approx(42.0, abs=1e-3)
    assert est.n_hat <= 42.0 + 1e-9
    assert not est.n_violated


def test_estimate_bounds_constant_function():
    c = polynomial("const", [[5.0]], grad_bound=0.0, lipschitz=1e-12)
    est = estimate_bounds(c, BOX1, 200, seed=1)
    assert est.l_hat == 0.0 and est.n_hat == 0.0


def test_estimate_bounds_flags_understated_bound():
    c = polynomial("lie", [[0.0, 0.0, -3.0, 0.0, 1.0]], grad_bound=1.0, lipschitz=1.0)
    est = estimate_bounds(c, BOX1, 500, seed=2)
    assert est.l_violated and est.n_violated


def test_estimate_bounds_needs_samples():
    with pytest.raises(ConfigError):
        estimate_bounds(quartic_minus(), BOX1, 50, seed=0)


def test_analytic_bounds_match_grid_for_quartic():
    l_a, n_a = analytic_bounds(quartic_minus(), BOX1)
    assert l_a == pytest.approx(20.0, rel=1e-9)
    assert n_a == pytest.approx(42.0, rel=1e-9)


# ---------------------------------------------------------------------------
# convexity of the sum


def test_sum_convexity_quartic_pair_passes():
    prob = Problem(1, (quartic_minus(), quad_plus()), BOX1)
    assert verify_sum_convexity(prob, 300, seed=0).passed


def test_sum_convexity_concave_sum_fails():
    comps = (
        polynomial("a", [[0.0, 0.0, -1.0]], grad_bound=4.0, lipschitz=2.0),
        polynomial("b", [[0.0]], grad_bound=0.0, lipschitz=1e-12),
    )
    prob = Problem(1, comps, BOX1)
    assert not verify_sum_convexity(prob, 300, seed=0).passed


def test_sum_convexity_single_quadratic_passes():
    prob = Problem(1, (quadratic("f", [[2.0]], [1.0], bounds_for=BOX1),), BOX1)
    assert verify_sum_convexity(prob, 300, seed=0).passed


# ---------------------------------------------------------------------------
# serialization


def test_problem_json_roundtrip_exact():
    fs = Ball(np.array([0.1, -0.2]), 1.7)
    comps = (
        quadratic("q", [[1.0, 0.25], [0.25, -0.5]], [1 / 3, 0.7], 0.123, bounds_for=fs),
        sine_quadratic("s", [[0.4, 0.0], [0.0, 0.9]], [0.0, -1 / 7], 0.0,
                       [0.3, 0.1], [2.0, 5.0], bounds_for=fs),
    )
    prob = Problem(2, comps, fs)
    doc = json.loads(json.dumps(problem_to_dict(prob)))
    back = problem_from_dict(doc)
    assert back.dimension == 2
    for a, b in zip(prob.components, back.components):
        assert a.grad_bound == b.grad_bound and a.lipschitz == b.lipschitz
        for key in a.params:
            np.testing.assert_array_equal(np.asarray(a.params[key]), np.asarray(b.params[key]))
    pts = fs.sample(50, np.random.default_rng(0))
    np.testing.assert_array_equal(sum_value(prob, pts), sum_value(back, pts))


def test_polynomial_component_roundtrip():
    c = quartic_minus()
    back = component_from_dict(json.loads(json.dumps(component_to_dict(c))))
    xs = np.linspace(-2, 2, 17)[:, None]
    np.testing.assert_array_equal(value_many(c, xs), value_many(back, xs))
    np.testing.assert_array_equal(grad_many(c, xs), grad_many(back, xs))


def test_missing_field_named_in_error():
    with pytest.raises(ConfigError, match="dimension"):
        problem_from_dict({"set": {"variant": "box", "lo": [0], "hi": [1]}, "components": []})
    with pytest.raises(ConfigError, match="grad_bound"):
        component_from_dict({"id": "x", "family": "quadratic",
                             "params": {"a": [[1.0]], "b": [0.0]}, "lipschitz": 1.0})
