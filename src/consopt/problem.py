"""Objective components, feasible sets, exact projections, and validators.

An optimization problem is a sum of per-agent component functions minimized
over a closed convex compact set.  Components come from three closed-form
families (general quadratics, separable polynomials, sine-perturbed
quadratics) so that values, gradients, and certified gradient/Lipschitz
bounds are all available analytically.  Individual components may be
non-convex; only the sum is required to be convex, and that hypothesis is
checked by sampling, not assumed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

QUADRATIC = "quadratic"
POLYNOMIAL = "polynomial-separable"
SINE_QUADRATIC = "sine-perturbed-quadratic"
FAMILIES = (QUADRATIC, POLYNOMIAL, SINE_QUADRATIC)

# Smallest admissible Lipschitz declaration; constant/linear components have
# an exact modulus of 0 but the declared constant must stay positive.
LIPSCHITZ_FLOOR = 1e-12

# Relative slack in the ball membership test.  Radial rescaling can land a
# hair outside the sphere in floating point; accepting that hair keeps the
# projection exactly idempotent.
_BALL_SLACK = 1e-13


class ConfigError(ValueError):
    """Malformed input: dimension mismatch, invalid parameter, bad config."""


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float vector."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ConfigError(f"point must be a 1-D vector, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ConfigError(f"point has dimension {p.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(p)):
        raise ConfigError("point has non-finite coordinates")
    return p


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# feasible sets


class FeasibleSet:
    """Non-empty, closed, convex, compact set with an exact projection."""

    dimension: int

    def project_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def interval_hull(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate [lo, hi] intervals covering the set."""
        raise NotImplementedError

    def interior_margin(self, p: np.ndarray) -> float:
        """How far p can move along any single axis and stay inside."""
        raise NotImplementedError

    def center_point(self) -> np.ndarray:
        raise NotImplementedError

    def max_norm(self) -> float:
        """sup of the Euclidean norm over the set."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Box(FeasibleSet):
    """Axis-aligned box { x : lo <= x <= hi }."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_point(self.lo)
        hi = as_point(self.hi, lo.shape[0])
        if np.any(lo > hi):
            raise ConfigError("box is empty: lo > hi in some coordinate")
        object.__setattr__(self, "lo", _freeze(lo))
        object.__setattr__(self, "hi", _freeze(hi))
        object.__setattr__(self, "dimension", lo.shape[0])

    def project_many(self, pts):
        return np.clip(pts, self.lo, self.hi)

    def distance_many(self, pts):
        return np.linalg.norm(pts - np.clip(pts, self.lo, self.hi), axis=-1)

    def sample(self, n, rng):
        return rng.uniform(self.lo, self.hi, size=(n, self.dimension))

    def interval_hull(self):
        return self.lo.copy(), self.hi.copy()

    def interior_margin(self, p):
        p = as_point(p, self.dimension)
        return float(min(np.min(p - self.lo), np.min(self.hi - p)))

    def center_point(self):
        return 0.5 * (self.lo + self.hi)

    def max_norm(self):
        return float(np.linalg.norm(np.maximum(np.abs(self.lo), np.abs(self.hi))))

    def to_dict(self):
        return {"variant": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True, eq=False)
class Ball(FeasibleSet):
    """Euclidean ball { x : ||x - center|| <= radius }."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_point(self.center)
        r = float(self.radius)
        if not (np.isfinite(r) and r > 0):
            raise ConfigError("ball radius must be a positive finite scalar")
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "dimension", c.shape[0])

    def project_many(self, pts):
        diff = pts - self.center
        dist = np.linalg.norm(diff, axis=-1)
        out = np.array(pts, dtype=float, copy=True)
        outside = dist > self.radius * (1.0 + _BALL_SLACK)
        if np.any(outside):
            scale = self.radius / dist[outside]
            out[outside] = self.center + diff[outside] * scale[:, None]
        return out

    def distance_many(self, pts):
        dist = np.linalg.norm(pts - self.center, axis=-1)
        return np.maximum(dist - self.radius, 0.0)

    def sample(self, n, rng):
        u = rng.standard_normal((n, self.dimension))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = self.radius * rng.random(n) ** (1.0 / self.dimension)
        return self.center + u * r[:, None]

    def interval_hull(self):
        return self.center - self.radius, self.center + self.radius

    def interior_margin(self, p):
        p = as_point(p, self.dimension)
        return float(self.radius - np.linalg.norm(p - self.center))

    def center_point(self):
        return self.center.copy()

    def max_norm(self):
        return float(np.linalg.norm(self.center) + self.radius)

    def to_dict(self):
        return {"variant": "ball", "center": self.center.tolist(), "radius": self.radius}


def set_from_dict(d: dict) -> FeasibleSet:
    try:
        variant = d["variant"]
        if variant == "box":
            return Box(np.asarray(d["lo"], float), np.asarray(d["hi"], float))
        if variant == "ball":
            return Ball(np.asarray(d["center"], float), float(d["radius"]))
    except KeyError as e:
        raise ConfigError(f"feasible set definition missing field {e.args[0]!r}") from e
    raise ConfigError(f"unknown feasible set variant {variant!r}")


def project(fs: FeasibleSet, p) -> np.ndarray:
    """Exact Euclidean projection of a single point onto the set."""
    p = as_point(p, fs.dimension)
    return fs.project_many(p[None, :])[0]


# ---------------------------------------------------------------------------
# component functions


@dataclass(frozen=True, eq=False)
class ComponentFunction:
    """One agent's private objective with certified gradient constants.

    ``grad_bound`` bounds ||grad f(x)|| over the feasible set and
    ``lipschitz`` is a Lipschitz modulus of the gradient there.  Both are
    declared by the constructor (analytically when a set is supplied) and
    can be re-checked by sampling with :func:`estimate_bounds`.
    """

    id: str
    family: str
    params: dict
    grad_bound: float
    lipschitz: float
    dimension: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown component family {self.family!r}")
        if not (np.isfinite(self.grad_bound) and self.grad_bound >= 0):
            raise ConfigError(f"component {self.id!r}: grad_bound must be >= 0")
        if not (np.isfinite(self.lipschitz) and self.lipschitz > 0):
            raise ConfigError(f"component {self.id!r}: lipschitz must be > 0")


def _symmetrize(a: np.ndarray, cid: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"component {cid!r}: quadratic matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"component {cid!r}: non-finite matrix entries")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise ConfigError(f"component {cid!r}: quadratic matrix must be symmetric")
    return _freeze(0.5 * (a + a.T))


def _resolve_bounds(cid, family, params, dim, bounds_for, grad_bound, lipschitz):
    if bounds_for is not None:
        l_auto, n_auto = _analytic_bounds(family, params, bounds_for)
        grad_bound = l_auto if grad_bound is None else grad_bound
        lipschitz = max(n_auto, LIPSCHITZ_FLOOR) if lipschitz is None else lipschitz
    if grad_bound is None or lipschitz is None:
        raise ConfigError(
            f"component {cid!r}: pass grad_bound and lipschitz, or bounds_for=<set>"
        )
    return float(grad_bound), float(lipschitz)


def quadratic(cid: str, a, b, c: float = 0.0, *, bounds_for: FeasibleSet | None = None,
              grad_bound: float | None = None, lipschitz: float | None = None) -> ComponentFunction:
    """f(x) = 0.5 x'Ax + b'x + c with A symmetric (possibly indefinite)."""
    a = _symmetrize(a, cid)
    b = _freeze(as_point(b, a.shape[0]))
    params = {"a": a, "b": b, "c": float(c)}
    gb, nl = _resolve_bounds(cid, QUADRATIC, params, a.shape[0], bounds_for, grad_bound, lipschitz)
    return ComponentFunction(cid, QUADRATIC, params, gb, nl, a.shape[0])


def polynomial(cid: str, coeffs: Sequence[Sequence[float]], *, bounds_for=None,
               grad_bound=None, lipschitz=None) -> ComponentFunction:
    """Separable polynomial f(x) = sum_d p_d(x_d); coeffs[d] ascending."""
    cfs = []
    for d, cf in enumerate(coeffs):
        cf = np.asarray(cf, dtype=float)
        if cf.ndim != 1 or cf.size < 1 or not np.all(np.isfinite(cf)):
            raise ConfigError(f"component {cid!r}: bad coefficient list at coordinate {d}")
        cfs.append(_freeze(cf))
    if not cfs:
        raise ConfigError(f"component {cid!r}: needs at least one coordinate")
    params = {"coeffs": tuple(cfs)}
    gb, nl = _resolve_bounds(cid, POLYNOMIAL, params, len(cfs), bounds_for, grad_bound, lipschitz)
    return ComponentFunction(cid, POLYNOMIAL, params, gb, nl, len(cfs))


def sine_quadratic(cid: str, a, b, c, amplitude, frequency, *, bounds_for=None,
                   grad_bound=None, lipschitz=None) -> ComponentFunction:
    """Quadratic plus per-coordinate sinusoids amp_d * sin(freq_d * x_d)."""
    a = _symmetrize(a, cid)
    dim = a.shape[0]
    b = _freeze(as_point(b, dim))
    amp = _freeze(as_point(amplitude, dim))
    freq = _freeze(as_point(frequency, dim))
    params = {"a": a, "b": b, "c": float(c), "amplitude": amp, "frequency": freq}
    gb, nl = _resolve_bounds(cid, SINE_QUADRATIC, params, dim, bounds_for, grad_bound, lipschitz)
    return ComponentFunction(cid, SINE_QUADRATIC, params, gb, nl, dim)


def _check_pts(pts, dim) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigError(f"points have shape {pts.shape}, expected (*, {dim})")
    return pts


# ---------------------------------------------------------------------------
# evaluation kernels
#
# One kernel pair per family, written over the last axis with ``...``
# broadcasting, so that a stack of component parameters lines up with the
# component axis of the points.


def _quadratic_values(a, b, c, x):
    v = 0.5 * np.einsum("...d,...d->...", x, np.einsum("...ij,...j->...i", a, x))
    v += np.einsum("...d,...d->...", x, b) + c
    return v


def _quadratic_grads(a, b, c, x):
    return np.einsum("...ij,...j->...i", a, x) + b


def _sine_quadratic_values(a, b, c, amp, freq, x):
    v = _quadratic_values(a, b, c, x)
    v += np.einsum("...d,...d->...", np.sin(freq * x), amp)
    return v


def _sine_quadratic_grads(a, b, c, amp, freq, x):
    g = _quadratic_grads(a, b, c, x)
    g += amp * freq * np.cos(freq * x)
    return g


def _horner(coefs, x):
    acc = np.empty(np.broadcast_shapes(coefs.shape[:-1], x.shape))
    acc[...] = coefs[..., -1]
    for t in range(coefs.shape[-1] - 2, -1, -1):
        acc = acc * x + coefs[..., t]
    return acc


def _polynomial_values(coefs, dcoefs, x):
    return _horner(coefs, x).sum(axis=-1)


def _polynomial_grads(coefs, dcoefs, x):
    return _horner(dcoefs, x)


_KERNELS = {
    QUADRATIC: (_quadratic_values, _quadratic_grads),
    SINE_QUADRATIC: (_sine_quadratic_values, _sine_quadratic_grads),
    POLYNOMIAL: (_polynomial_values, _polynomial_grads),
}


def _kernel_params(family: str, comps: Sequence[ComponentFunction]) -> tuple:
    """Stacked kernel parameters of components from one family."""
    if family == POLYNOMIAL:
        dim = comps[0].dimension
        kmax = max(max(cf.size for cf in c.params["coeffs"]) for c in comps)
        coefs = np.zeros((len(comps), dim, kmax))
        for m, c in enumerate(comps):
            for d, cf in enumerate(c.params["coeffs"]):
                coefs[m, d, : cf.size] = cf
        # derivative coefficients, padded one shorter
        if kmax == 1:
            return coefs, np.zeros((len(comps), dim, 1))
        # one that overflows is inf, so the gradients it enters are non-finite,
        # which the engine checks every round
        with np.errstate(over="ignore"):
            return coefs, coefs[..., 1:] * np.arange(1, kmax)
    names = ("a", "b", "c") + (("amplitude", "frequency") if family == SINE_QUADRATIC else ())
    return tuple(np.array([c.params[k] for c in comps]) for k in names)


class _Evaluator:
    """Family-grouped evaluation of a stack of components.

    Points carry a component axis second to last: ``x[..., j, :]`` is
    evaluated with component j, and a component axis of length 1 is shared
    by every component.  A round costs a handful of numpy calls whatever the
    number of agents.
    """

    def __init__(self, comps: Sequence[ComponentFunction]):
        self.n = len(comps)
        self.groups = []
        for family in FAMILIES:
            idx = [j for j, c in enumerate(comps) if c.family == family]
            if idx:
                params = _kernel_params(family, [comps[j] for j in idx])
                # a single family indexes by a view rather than a copy
                sel = slice(None) if len(idx) == self.n else np.array(idx)
                self.groups.append((sel, params, _KERNELS[family]))

    @staticmethod
    def _select(x: np.ndarray, sel) -> np.ndarray:
        return x if x.shape[-2] == 1 else x[..., sel, :]

    def values(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[:-2] + (self.n,))
        for sel, params, (value_fn, _) in self.groups:
            out[..., sel] = value_fn(*params, self._select(x, sel))
        return out

    def grads(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[:-2] + (self.n, x.shape[-1]))
        for sel, params, (_, grad_fn) in self.groups:
            out[..., sel, :] = grad_fn(*params, self._select(x, sel))
        return out


def value_many(c: ComponentFunction, pts) -> np.ndarray:
    """Component values at a batch of points, shape (n,)."""
    pts = _check_pts(pts, c.dimension)
    return _Evaluator((c,)).values(pts[:, None, :])[:, 0]


def grad_many(c: ComponentFunction, pts) -> np.ndarray:
    """Component gradients at a batch of points, shape (n, D)."""
    pts = _check_pts(pts, c.dimension)
    return _Evaluator((c,)).grads(pts[:, None, :])[:, 0]


def eval_component(c: ComponentFunction, p) -> float:
    """Exact closed-form value of the component at one point."""
    return float(value_many(c, as_point(p, c.dimension))[0])


def grad_component(c: ComponentFunction, p) -> np.ndarray:
    """Exact closed-form gradient of the component at one point."""
    return grad_many(c, as_point(p, c.dimension))[0]


# ---------------------------------------------------------------------------
# analytic bound certification


def _sup_abs_poly(cf: np.ndarray, lo: float, hi: float) -> float:
    """sup of |p(x)| on [lo, hi] via endpoints and interior critical points."""
    cf = np.asarray(cf, dtype=float)
    cand = [lo, hi]
    if cf.size > 2:
        dcf = npoly.polyder(cf)
        roots = npoly.polyroots(dcf)
        for r in np.atleast_1d(roots):
            if abs(r.imag) < 1e-9 and lo <= r.real <= hi:
                cand.append(float(r.real))
    return float(np.max(np.abs(npoly.polyval(np.asarray(cand), cf))))


def _spec_norm(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(a)))) if a.size else 0.0


def _corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    dim = lo.shape[0]
    grid = np.array(np.meshgrid(*[(lo[d], hi[d]) for d in range(dim)], indexing="ij"))
    return grid.reshape(dim, -1).T


def _max_affine_norm(a, b, fs: FeasibleSet) -> float:
    # ||Ax + b|| is convex, so over a box its max sits at a corner.
    if isinstance(fs, Box) and fs.dimension <= 12:
        pts = _corners(fs.lo, fs.hi)
        return float(np.max(np.linalg.norm(pts @ a + b, axis=1)))
    if isinstance(fs, Ball):
        return float(np.linalg.norm(a @ fs.center + b) + _spec_norm(a) * fs.radius)
    return _spec_norm(a) * fs.max_norm() + float(np.linalg.norm(b))


def _analytic_bounds(family: str, params: dict, fs: FeasibleSet) -> tuple[float, float]:
    if family == POLYNOMIAL:
        lo, hi = fs.interval_hull()
        sup_g = np.zeros(len(params["coeffs"]))
        sup_h = np.zeros(len(params["coeffs"]))
        for d, cf in enumerate(params["coeffs"]):
            dcf = npoly.polyder(cf) if cf.size > 1 else np.zeros(1)
            ddcf = npoly.polyder(dcf) if dcf.size > 1 else np.zeros(1)
            sup_g[d] = _sup_abs_poly(dcf, lo[d], hi[d])
            sup_h[d] = _sup_abs_poly(ddcf, lo[d], hi[d])
        return float(np.linalg.norm(sup_g)), float(np.max(sup_h))
    a, b = params["a"], params["b"]
    l_bound = _max_affine_norm(a, b, fs)
    n_bound = _spec_norm(a)
    if family == SINE_QUADRATIC:
        af = params["amplitude"] * params["frequency"]
        l_bound += float(np.linalg.norm(af))
        n_bound += float(np.max(np.abs(af * params["frequency"]))) if af.size else 0.0
    return l_bound, n_bound


def analytic_bounds(c: ComponentFunction, fs: FeasibleSet) -> tuple[float, float]:
    """Certified (gradient sup, Lipschitz modulus) of the component over fs."""
    return _analytic_bounds(c.family, c.params, fs)


# ---------------------------------------------------------------------------
# sampled validators


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    n_checked: int
    n_skipped: int


def check_gradient(c: ComponentFunction, fs: FeasibleSet, pts, h: float = 1e-5) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Points closer than ``h`` to the boundary of the set are skipped with a
    warning since the difference stencil would leave the set.  Relative
    error is ||fd - g|| / max(1, ||g||).
    """
    if not (0.0 < h <= 1e-2):
        raise ConfigError("finite-difference step h must lie in (0, 1e-2]")
    pts = _check_pts(pts, c.dimension)
    worst = 0.0
    checked = skipped = 0
    for p in pts:
        if fs.interior_margin(p) < h:
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


@dataclass(frozen=True)
class BoundEstimate:
    l_hat: float
    n_hat: float
    grad_bound: float
    lipschitz: float
    l_violated: bool
    n_violated: bool


def estimate_bounds(c: ComponentFunction, fs: FeasibleSet, n_samples: int, seed: int) -> BoundEstimate:
    """Sampled lower estimates of the gradient sup and Lipschitz modulus.

    Flags a violation when a sampled value exceeds the declared constant;
    samples never overshoot the true suprema, so a flag is a disproof.
    """
    if n_samples < 100:
        raise ConfigError("estimate_bounds needs n_samples >= 100")
    rng = np.random.default_rng(seed)
    xs = fs.sample(n_samples, rng)
    ys = fs.sample(n_samples, rng)
    gx = grad_many(c, xs)
    gy = grad_many(c, ys)
    l_hat = float(np.max(np.linalg.norm(gx, axis=1)))
    dist = np.linalg.norm(xs - ys, axis=1)
    ok = dist > 1e-12
    n_hat = 0.0
    if np.any(ok):
        n_hat = float(np.max(np.linalg.norm(gx[ok] - gy[ok], axis=1) / dist[ok]))
    # the estimates themselves carry rounding error, so a violation must
    # clear a small relative margin to count as a disproof
    slack = 1e-9
    return BoundEstimate(
        l_hat, n_hat, c.grad_bound, c.lipschitz,
        l_violated=l_hat > c.grad_bound * (1 + slack) + 1e-12,
        n_violated=n_hat > c.lipschitz * (1 + slack) + 1e-12,
    )


# ---------------------------------------------------------------------------
# the problem


@dataclass(frozen=True, eq=False)
class Problem:
    """Sum-of-components objective over a feasible set."""

    dimension: int
    components: tuple[ComponentFunction, ...]
    feasible_set: FeasibleSet

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if self.dimension < 1 or len(comps) < 1:
            raise ConfigError("problem needs dimension >= 1 and at least one component")
        if self.feasible_set.dimension != self.dimension:
            raise ConfigError("feasible set dimension does not match problem dimension")
        for c in comps:
            if c.dimension != self.dimension:
                raise ConfigError(f"component {c.id!r} has dimension {c.dimension}, expected {self.dimension}")

    @property
    def n_agents(self) -> int:
        return len(self.components)

    @property
    def l_bar(self) -> float:
        return float(sum(c.grad_bound for c in self.components))

    @property
    def n_bar(self) -> float:
        return float(sum(c.lipschitz for c in self.components))

    @cached_property
    def evaluator(self) -> _Evaluator:
        """Stacked evaluator of the components, built once per problem."""
        return _Evaluator(self.components)


def sum_value(prob: Problem, pts) -> np.ndarray:
    """Summed objective at a batch of points, shape (n,)."""
    pts = _check_pts(pts, prob.dimension)
    return prob.evaluator.values(pts[:, None, :]).sum(axis=-1)


def sum_grad(prob: Problem, pts) -> np.ndarray:
    """Summed gradient at a batch of points, shape (n, D)."""
    pts = _check_pts(pts, prob.dimension)
    return prob.evaluator.grads(pts[:, None, :]).sum(axis=-2)


@dataclass(frozen=True)
class ConvexityReport:
    passed: bool
    n_pairs: int
    worst_violation: float


def verify_sum_convexity(prob: Problem, n_pairs: int, seed: int) -> ConvexityReport:
    """Sampled midpoint test of convexity of the component sum.

    For sampled pairs x, y in the set and lam in {0.25, 0.5, 0.75} checks
    f(lam x + (1-lam) y) <= lam f(x) + (1-lam) f(y) + 1e-9 (1 + |f|).
    A failure is a disproof; passing is evidence, not a certificate.
    """
    if n_pairs < 100:
        raise ConfigError("verify_sum_convexity needs n_pairs >= 100")
    rng = np.random.default_rng(seed)
    xs = prob.feasible_set.sample(n_pairs, rng)
    ys = prob.feasible_set.sample(n_pairs, rng)
    fx = sum_value(prob, xs)
    fy = sum_value(prob, ys)
    worst = -np.inf
    for lam in (0.25, 0.5, 0.75):
        z = lam * xs + (1.0 - lam) * ys
        fz = sum_value(prob, z)
        chord = lam * fx + (1.0 - lam) * fy
        tol = 1e-9 * (1.0 + np.maximum(np.abs(fx), np.maximum(np.abs(fy), np.abs(fz))))
        worst = max(worst, float(np.max(fz - chord - tol)))
    return ConvexityReport(passed=worst <= 0.0, n_pairs=n_pairs, worst_violation=worst)


# ---------------------------------------------------------------------------
# serialization


def component_to_dict(c: ComponentFunction) -> dict:
    if c.family == POLYNOMIAL:
        params = {"coeffs": [cf.tolist() for cf in c.params["coeffs"]]}
    elif c.family == QUADRATIC:
        params = {"a": c.params["a"].tolist(), "b": c.params["b"].tolist(), "c": c.params["c"]}
    else:
        params = {
            "a": c.params["a"].tolist(), "b": c.params["b"].tolist(), "c": c.params["c"],
            "amplitude": c.params["amplitude"].tolist(), "frequency": c.params["frequency"].tolist(),
        }
    return {
        "id": c.id, "family": c.family, "params": params,
        "grad_bound": c.grad_bound, "lipschitz": c.lipschitz,
    }


def component_from_dict(d: dict) -> ComponentFunction:
    try:
        cid, family, params = d["id"], d["family"], d["params"]
        gb, nl = float(d["grad_bound"]), float(d["lipschitz"])
        if family == QUADRATIC:
            return quadratic(cid, params["a"], params["b"], float(params.get("c", 0.0)),
                             grad_bound=gb, lipschitz=nl)
        if family == POLYNOMIAL:
            return polynomial(cid, params["coeffs"], grad_bound=gb, lipschitz=nl)
        if family == SINE_QUADRATIC:
            return sine_quadratic(cid, params["a"], params["b"], float(params.get("c", 0.0)),
                                  params["amplitude"], params["frequency"],
                                  grad_bound=gb, lipschitz=nl)
    except KeyError as e:
        raise ConfigError(f"component definition missing field {e.args[0]!r}") from e
    raise ConfigError(f"unknown component family {family!r}")


def problem_to_dict(prob: Problem) -> dict:
    return {
        "dimension": prob.dimension,
        "set": prob.feasible_set.to_dict(),
        "components": [component_to_dict(c) for c in prob.components],
    }


def problem_from_dict(d: dict) -> Problem:
    try:
        dim = int(d["dimension"])
        fs = set_from_dict(d["set"])
        comps = tuple(component_from_dict(cd) for cd in d["components"])
    except KeyError as e:
        raise ConfigError(f"problem definition missing field {e.args[0]!r}") from e
    return Problem(dim, comps, fs)
