import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consopt import problem
from consopt.problem import (
    Ball, Box, ConfigError, ConstructionError, Problem, as_point,
    component_from_dict, component_to_dict, estimate_bounds, grad_many, polynomial,
    problem_from_dict, problem_to_dict, quadratic, reading, rebuild, sine_quadratic, sum_grad,
    sum_value, value_many, verify_sum_convexity,
)

BOX1 = Box(np.array([-2.0]), np.array([2.0]))
BOX2 = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


# ---------------------------------------------------------------------------
# one-point helpers and the finite-difference gradient check


def project(fs, p) -> np.ndarray:
    """Exact Euclidean projection of a single point onto the set."""
    p = as_point(p, fs.dimension)
    return fs.project_many(p[None, :])[0]


def eval_component(c, p) -> float:
    """Exact closed-form value of the component at one point."""
    return float(value_many(c, as_point(p, c.dimension))[0])


def grad_component(c, p) -> np.ndarray:
    """Exact closed-form gradient of the component at one point."""
    return grad_many(c, as_point(p, c.dimension))[0]


def interior_margin(fs, p) -> float:
    """How far p can move along any single axis and stay inside a box or ball."""
    p = as_point(p, fs.dimension)
    if isinstance(fs, Box):
        return float(min(np.min(p - fs.lo), np.min(fs.hi - p)))
    return float(fs.radius - np.linalg.norm(p - fs.center))


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    n_checked: int
    n_skipped: int


def check_gradient(c, fs, pts, h: float = 1e-5) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Points closer than ``h`` to the boundary of the set are skipped with a
    warning since the difference stencil would leave the set.  Relative
    error is ||fd - g|| / max(1, ||g||).
    """
    if not (0.0 < h <= 1e-2):
        raise ConfigError("finite-difference step h must lie in (0, 1e-2]")
    worst = 0.0
    checked = skipped = 0
    for p in np.atleast_2d(np.asarray(pts, dtype=float)):
        if interior_margin(fs, p) < h:
            skipped += 1
            continue
        fd = np.empty(c.dimension)
        for d in range(c.dimension):
            e = np.zeros(c.dimension)
            e[d] = h
            fd[d] = (eval_component(c, p + e) - eval_component(c, p - e)) / (2.0 * h)
        g = grad_component(c, p)
        rel = float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g)))
        worst = max(worst, rel)
        checked += 1
    if skipped:
        warnings.warn(
            f"check_gradient: skipped {skipped} point(s) within {h} of the boundary",
            RuntimeWarning,
        )
    return GradientCheckReport(worst, checked, skipped)


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


def mixed_stack_problem(fs, seed):
    """Two components of each family, interleaved, so no family is one slice."""
    stacks = [stack_problem(f, fs, 2, seed + i).components for i, f in
              enumerate(["quadratic", "polynomial-separable", "sine-perturbed-quadratic"])]
    return Problem(fs.dimension, tuple(c for pair in zip(*stacks) for c in pair), fs)


@pytest.mark.parametrize("family", ["quadratic", "polynomial-separable",
                                    "sine-perturbed-quadratic", "mixed"])
@pytest.mark.parametrize("in_ball", [False, True], ids=["box", "ball"])
def test_out_forms_equal_the_allocating_forms_bitwise(family, in_ball):
    # the engine's round writes gradients and projections into its block buffers
    dim = 2
    fs = Ball(np.full(dim, 0.25), 1.5) if in_ball else Box(np.array([0.0, -1.0]),
                                                           np.array([1.0, 0.0]))
    prob = (mixed_stack_problem(fs, 5) if family == "mixed"
            else stack_problem(family, fs, 6, 5))
    rng = np.random.default_rng(41)
    v = rng.normal(0.0, 2.0, size=(4, 6, dim))
    v[0] *= 0.1  # points inside the ball as well as outside it
    v[1, :, 0], v[2, :, 1] = -0.0, -0.0  # on the box's bounds at exactly 0
    grads = prob.evaluator.grads(v)
    out = np.full_like(v, np.nan)
    assert prob.evaluator.grads(v, out) is out and out.tobytes() == grads.tobytes()
    shared = v[:, :1]  # one point for every component
    out = np.full_like(v, np.nan)
    assert prob.evaluator.grads(shared, out).tobytes() == prob.evaluator.grads(shared).tobytes()
    projected = fs.project_many(v)
    if not in_ball:  # the signed zero np.clip leaves at a bound of 0
        assert projected.tobytes() == np.clip(v, fs.lo, fs.hi).tobytes()
    out = np.full_like(v, np.nan)
    assert fs.project_many(v, out) is out and out.tobytes() == projected.tobytes()
    in_place = v.copy()
    assert fs.project_many(in_place, in_place).tobytes() == projected.tobytes()


@pytest.mark.parametrize("family", ["quadratic", "polynomial-separable",
                                    "sine-perturbed-quadratic", "mixed"])
@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_a_batch_has_each_runs_gradients_also_after_a_run_left_it(family, dim):
    # the quadratic kernels read their matrices as a copy laid out at the batch's
    # shape, and a batch of another length lays a copy of its own
    fs = Box(np.full(dim, -1.0), np.full(dim, 1.5))

    def stack():
        if family == "mixed":
            return mixed_stack_problem(fs, dim)
        return stack_problem(family, fs, 6, dim)

    for batch in (1, 3, 20):
        prob, solo = stack(), stack()  # solo's kernels never see a batch of more than one
        v = np.random.default_rng(batch).normal(0.0, 2.0, size=(batch, 6, dim))
        alone = [solo.evaluator.grads(v[b:b + 1]) for b in range(batch)]
        grads = prob.evaluator.grads(v)
        assert [grads[b:b + 1].tobytes() for b in range(batch)] == [g.tobytes() for g in alone]
        kept = np.arange(batch) != batch // 2  # a batch without the middle run
        out = np.full((int(kept.sum()), 6, dim), np.nan)
        survivors = prob.evaluator.grads(v[kept], out)
        assert survivors.tobytes() == b"".join(g.tobytes() for g, k in zip(alone, kept) if k)


def test_the_quadratic_matrices_are_laid_out_at_the_batch_shape_within_the_budget():
    fs = Box(np.full(2, -1.0), np.full(2, 1.5))
    prob = stack_problem("quadratic", fs, 6, 3)
    (_, (laid, offset, _), _), = prob.evaluator.groups
    v = np.random.default_rng(3).normal(size=(20, 6, 2))
    # the offsets and the box bounds are a round's other operands, laid the same way
    lo, hi = fs._bounds
    for n in (1, 20, 7):
        x = v[:n]
        for op, stack in ((offset, offset.stack), (lo, fs.lo), (hi, fs.hi)):
            operand = op.at(x)
            assert operand.shape == x.shape and operand.flags.c_contiguous
            assert 0 not in operand.strides and op.at(x) is operand  # one copy per length
            np.testing.assert_array_equal(operand, np.broadcast_to(stack, x.shape))
        # the round's gradients and projections are bitwise those of the broadcast stacks
        grads = np.add(np.einsum("...ij,...j->...i", laid.stack, x), offset.stack)
        assert prob.evaluator.grads(x).tobytes() == grads.tobytes()
        assert fs.project_many(x).tobytes() == x.clip(fs.lo, fs.hi).tobytes()
    assert not np.shares_memory(offset.at(v[:7]), offset.at(v))  # laid again for a new length
    for op in (offset, lo, hi):
        assert op.at(v[0]) is op.stack  # one run's (S, D) states, as descend steps them
    # a batch whose copy would pass the budget gets the stacks, and the same bits
    wide = np.random.default_rng(5).normal(size=(400, 6, 2))
    assert wide[0].size * 400 > problem._BATCH_FLOATS
    assert all(op.at(wide) is op.stack for op in (laid, offset, lo, hi))
    grads = np.add(np.einsum("...ij,...j->...i", laid.stack, wide), offset.stack)
    assert prob.evaluator.grads(wide).tobytes() == grads.tobytes()
    assert fs.project_many(wide).tobytes() == wide.clip(fs.lo, fs.hi).tobytes()
    operand = laid.at(v)
    assert operand.shape == (20, 6, 2, 2) and operand.flags.c_contiguous
    assert 0 not in operand.strides and operand.size <= problem._BATCH_FLOATS
    assert laid.at(v) is operand  # one copy per batch length
    shorter = laid.at(v[:7])  # another length lays a copy of its own
    assert shorter.shape == (7, 6, 2, 2) and shorter.flags.c_contiguous
    assert not np.shares_memory(shorter, operand) and laid.at(v[:7]) is shorter
    assert laid.at(v[0]) is laid.stack  # one run's (S, D) states: no batch axis
    # shared points beyond the budget broadcast the stack and copy nothing
    shared = np.random.default_rng(4).uniform(-1.0, 1.5, (500_000, 2))
    sum_grad(prob, shared)
    assert laid.at(shared[:, None]) is laid.stack
    assert laid.at(v[:7]) is shorter  # the last length's copy is still the one laid


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


BOX3 = Box(np.array([-3.0]), np.array([3.0]))


def overflowing_gradient():
    # x + 0.1 x^999 overflows to inf for |x| > 2.04
    coeffs = np.zeros(1001)
    coeffs[2], coeffs[1000] = 0.5, 1e-4
    return polynomial("inf", [coeffs.tolist()], grad_bound=1e300, lipschitz=1e300)


def nan_gradient():
    # 1e308 x overflows for |x| > 1.8, so sin and cos of it are NaN there
    return sine_quadratic("nan", [[1.0]], [0.0], 0.0, [1e-300], [1e308],
                          grad_bound=1e300, lipschitz=1e300)


@pytest.mark.parametrize("make", [overflowing_gradient, nan_gradient])
def test_estimate_bounds_fails_on_nonfinite_gradients(make):
    # evaluated without a RuntimeWarning (the suite turns those into errors)
    est = estimate_bounds(make(), BOX3, 200, seed=0)
    assert 0 < est.n_nonfinite < 200
    assert est.l_hat == est.n_hat == np.inf
    assert est.l_violated and est.n_violated


def test_estimate_bounds_counts_no_nonfinite_gradient_on_a_finite_one():
    est = estimate_bounds(quartic_minus(), BOX1, 200, seed=0)
    assert est.n_nonfinite == 0 and np.isfinite(est.l_hat) and np.isfinite(est.n_hat)


def test_estimate_bounds_needs_samples():
    with pytest.raises(ConfigError):
        estimate_bounds(quartic_minus(), BOX1, 50, seed=0)


def test_analytic_bounds_match_grid_for_quartic():
    c = quartic_minus()  # its bounds certified analytically over BOX1
    l_a, n_a = c.grad_bound, c.lipschitz
    assert l_a == pytest.approx(20.0, rel=1e-9)
    assert n_a == pytest.approx(42.0, rel=1e-9)


def test_analytic_gradient_bound_above_twelve_dimensions_covers_every_corner():
    # past 12 dimensions no corner is enumerated: the bound is ||A|| max||x|| + ||b||
    dim = 13
    rng = np.random.default_rng(13)
    fs = Box(-rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim))
    m = rng.standard_normal((dim, dim))
    a, b = m + m.T, rng.standard_normal(dim)
    c = quadratic("f0", a, b, bounds_for=fs)
    corners = np.array(list(itertools.product(*zip(fs.lo, fs.hi))))
    assert len(corners) == 8192
    exact = float(np.max(np.linalg.norm(corners @ a + b, axis=1)))
    radius = np.linalg.norm(np.maximum(-fs.lo, fs.hi))
    assert c.grad_bound == pytest.approx(
        np.max(np.abs(np.linalg.eigvalsh(a))) * radius + np.linalg.norm(b), rel=1e-12)
    assert c.grad_bound >= exact
    est = estimate_bounds(c, fs, 500, seed=13)
    assert not est.l_violated and not est.n_violated


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
    rep = verify_sum_convexity(prob, 300, seed=0)
    assert rep.passed and rep.n_nonfinite == 0


@pytest.mark.parametrize("make", [overflowing_gradient, nan_gradient])
def test_sum_convexity_fails_on_nonfinite_sums(make):
    # both sums are convex wherever they are finite: only the non-finite
    # samples can fail the test
    prob = Problem(1, (make(),), BOX3)
    rep = verify_sum_convexity(prob, 200, seed=0)
    assert not rep.passed
    assert 0 < rep.n_nonfinite < 200 and rep.worst_violation == np.inf


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


@pytest.mark.parametrize("family, params, missing", [
    ("quadratic", {"b": [0.0]}, "a"),
    ("quadratic", {"a": [[1.0]]}, "b"),
    ("polynomial-separable", {}, "coeffs"),
    ("sine-perturbed-quadratic", {"a": [[1.0]], "b": [0.0], "amplitude": [1.0]}, "frequency"),
])
def test_missing_component_parameter_named_in_error(family, params, missing):
    d = {"id": "x", "family": family, "params": params, "grad_bound": 1.0, "lipschitz": 1.0}
    with pytest.raises(ConfigError, match=f"missing field '{missing}'"):
        component_from_dict(d)


@pytest.mark.parametrize("field,value", [
    ("grad_bound", "9"), ("grad_bound", True), ("lipschitz", "1"), ("lipschitz", None),
    ("c", "0"), ("c", False),
])
def test_component_number_fields_take_only_json_numbers(field, value):
    d = {"id": "q", "family": "quadratic", "grad_bound": 9, "lipschitz": 1,
         "params": {"a": [[1.0]], "b": [0.0], "c": 0}}
    assert component_from_dict(d).grad_bound == 9.0  # an integer is a number
    if field == "c":
        d["params"]["c"] = value
    else:
        d[field] = value
    name = "params.c" if field == "c" else field
    with pytest.raises(ConfigError, match=rf"^component 'q' {name}: expected a number, got "):
        component_from_dict(d)


@pytest.mark.parametrize("radius", ["1", True, None, [1.0]])
def test_ball_radius_takes_only_a_json_number(radius):
    doc = {"dimension": 1, "set": {"variant": "ball", "center": [0.0], "radius": 1},
           "components": [{"id": "q", "family": "quadratic", "grad_bound": 1.0,
                           "lipschitz": 1.0, "params": {"a": [[1.0]], "b": [0.0]}}]}
    assert problem_from_dict(doc).feasible_set.radius == 1.0
    doc["set"]["radius"] = radius
    with pytest.raises(ConfigError, match=r"^set.radius: expected a number, got "):
        problem_from_dict(doc)


def test_component_constant_term_is_optional_and_family_is_checked():
    d = {"id": "x", "family": "sine-perturbed-quadratic", "grad_bound": 1.0, "lipschitz": 1.0,
         "params": {"a": [[1.0]], "b": [0.0], "amplitude": [0.5], "frequency": [2.0]}}
    c = component_from_dict(d)
    assert c.params["c"] == 0.0
    assert list(component_to_dict(c)["params"]) == ["a", "b", "c", "amplitude", "frequency"]
    with pytest.raises(ConfigError, match="unknown component family 'cubic'"):
        component_from_dict({**d, "family": "cubic"})


@pytest.mark.parametrize("make", [
    lambda: quadratic("q", [[1.0, 0.25], [0.25, -0.5]], [1 / 3, 0.7], 0.123, bounds_for=BOX2),
    lambda: polynomial("p", [[0.0, 1.0, -3.0, 0.5], [2.0]], bounds_for=BOX2),
    lambda: sine_quadratic("s", [[0.4, 0.0], [0.0, 0.9]], [0.0, -1 / 7], 0.5,
                           [0.3, 0.1], [2.0, 5.0], bounds_for=BOX2),
])
def test_rebuild_keeps_the_family_and_replaces_only_named_parameters(make):
    c = make()
    same = rebuild(c, "copy", BOX2)
    assert (same.id, same.family, same.dimension) == ("copy", c.family, c.dimension)
    assert component_to_dict(same)["params"] == component_to_dict(c)["params"]
    assert (same.grad_bound, same.lipschitz) == (c.grad_bound, c.lipschitz)
    key = "coeffs" if c.family == "polynomial-separable" else "b"
    new = [[1.0, 2.0], [0.0, 0.0, 3.0]] if key == "coeffs" else [1.0, -1.0]
    changed = component_to_dict(rebuild(c, "x", BOX2, **{key: new}))["params"]
    assert changed == {**component_to_dict(c)["params"], key: new}


def test_reading_names_what_and_passes_typed_errors_through():
    from consopt import network
    assert network.ConstructionError is ConstructionError
    with pytest.raises(ConfigError, match=r"^doc: missing field 'k'$"):
        with reading("doc"):
            {}["k"]
    for bad, name in ((lambda: int("x"), "ValueError"), (lambda: [][0], "IndexError"),
                      (lambda: len(3), "TypeError"), (lambda: (3).get, "AttributeError")):
        with pytest.raises(ConfigError, match=rf"^doc: malformed \({name}: "):
            with reading("doc"):
                bad()
    for err in (ConfigError("as raised"), ConstructionError("as raised")):
        with pytest.raises(type(err), match="^as raised$"):
            with reading("doc"):
                raise err


def test_missing_field_named_in_error():
    with pytest.raises(ConfigError, match="dimension"):
        problem_from_dict({"set": {"variant": "box", "lo": [0], "hi": [1]}, "components": []})
    with pytest.raises(ConfigError, match="grad_bound"):
        component_from_dict({"id": "x", "family": "quadratic",
                             "params": {"a": [[1.0]], "b": [0.0]}, "lipschitz": 1.0})
