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

import contextlib
import numbers
from dataclasses import dataclass
from functools import cached_property, partial
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


class ConstructionError(ValueError):
    """A builder could not produce a matrix satisfying its contract."""


@contextlib.contextmanager
def reading(what: str):
    """Read a parsed JSON document as ``what``: a missing key or a value of the
    wrong type or shape becomes a ``ConfigError`` that names ``what``."""
    try:
        yield
    except (ConfigError, ConstructionError):
        raise
    except KeyError as e:
        raise ConfigError(f"{what}: missing field {e.args[0]!r}") from e
    except (IndexError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ConfigError(f"{what}: malformed ({type(e).__name__}: {e})") from e


def as_int(value, field: str) -> int:
    """An integer ``field``, as an int: a Python or numpy integer that is not a
    bool, so a JSON fraction, bool or string is a ``ConfigError`` naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return int(value)


def as_float(value, field: str) -> float:
    """A number ``field``, as a float: a Python or numpy real number that is not a
    bool and that a float can hold, so a JSON bool or string, or an integer past
    the float range, is a ``ConfigError`` naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{field}: expected a number, got one too large for a float") from None


def as_numbers(value, field: str):
    """A config's array ``field``, as given, once every entry of its nested lists
    is a JSON number: a bool or a string entry is a ``ConfigError`` naming the
    field, as :func:`as_float` makes of a scalar one.  The array's shape, and a
    value that is not a list, are judged where the array is used."""
    for v in value if type(value) is list else ():
        if type(v) is list:
            as_numbers(v, field)
        else:
            as_float(v, field)
    return value


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

    def project_many(self, pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The projections of points (..., D), into ``out`` if given (it may be ``pts``)."""
        raise NotImplementedError

    def distance_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def interval_hull(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate [lo, hi] intervals covering the set."""
        raise NotImplementedError

    def center_point(self) -> np.ndarray:
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
        object.__setattr__(self, "_bounds", (_BatchLaid(self.lo), _BatchLaid(self.hi)))

    def project_many(self, pts, out=None):
        lo, hi = self._bounds
        return pts.clip(lo.at(pts), hi.at(pts), out=out)

    def distance_many(self, pts):
        return np.linalg.norm(pts - np.clip(pts, self.lo, self.hi), axis=-1)

    def sample(self, n, rng):
        return rng.uniform(self.lo, self.hi, size=(n, self.dimension))

    def interval_hull(self):
        return self.lo.copy(), self.hi.copy()

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
        r = as_float(self.radius, "set.radius")
        if not (np.isfinite(r) and r > 0):
            raise ConfigError("ball radius must be a positive finite scalar")
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "dimension", c.shape[0])

    def project_many(self, pts, out=None):
        diff = pts - self.center
        dist = np.linalg.norm(diff, axis=-1)
        out = np.empty(diff.shape) if out is None else out
        out[...] = pts
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

    def center_point(self):
        return self.center.copy()

    def to_dict(self):
        return {"variant": "ball", "center": self.center.tolist(), "radius": self.radius}


def set_from_dict(d: dict) -> FeasibleSet:
    with reading("feasible set"):
        variant = d["variant"]
        if variant == "box":
            return Box(np.asarray(as_numbers(d["lo"], "set.lo"), float),
                       np.asarray(as_numbers(d["hi"], "set.hi"), float))
        if variant == "ball":
            return Ball(np.asarray(as_numbers(d["center"], "set.center"), float), d["radius"])
    raise ConfigError(f"unknown feasible set variant {variant!r}")


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


def _resolve_bounds(cid, family, params, bounds_for, grad_bound, lipschitz):
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
    gb, nl = _resolve_bounds(cid, QUADRATIC, params, bounds_for, grad_bound, lipschitz)
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
    gb, nl = _resolve_bounds(cid, POLYNOMIAL, params, bounds_for, grad_bound, lipschitz)
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
    gb, nl = _resolve_bounds(cid, SINE_QUADRATIC, params, bounds_for, grad_bound, lipschitz)
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

# floats a batch lays out at once (32 KB): here the largest batch-laid copy of a
# kernel operand or a box bound, and in the engine one state per round of a block
# awaiting one check, whose temporaries, two states per round, are at most 64 KB
_BATCH_FLOATS = 2**12


class _BatchLaid:
    """An operand of a round's ufuncs, ``stack`` (a quadratic family's matrices
    (S, D, D) or offsets (S, D), or a box bound (D,)), with one copy laid out
    contiguous at the shape it takes against the last batch of states x (B, S, D),
    laid again when that shape changes.  ``at(x)`` is the operand to pair with x:
    read with unit strides rather than broadcast with stride 0, an einsum, add or
    clip costs about half as much and gives the same bits.  ``extra`` counts the
    operand's axes past a point's, 1 for the matrices.  Points that are not one
    batch of states, such as one run's (S, D), or a copy that would pass
    ``_BATCH_FLOATS`` get the stack itself."""

    def __init__(self, stack: np.ndarray, extra: int = 0):
        self.stack, self._pad = stack, (1,) * extra
        self._shape, self._copy = None, stack

    def at(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self._shape:
            # the copy's size, a stack for each state or a bound for each agent
            if x.ndim != 3 or max(len(x) * self.stack.size, x.size) > _BATCH_FLOATS:
                return self.stack
            shape = np.broadcast_shapes(x.shape + self._pad, self.stack.shape)
            self._shape, self._copy = x.shape, _freeze(np.broadcast_to(self.stack, shape).copy())
        return self._copy


def _quadratic_values(a, b, c, x):
    v = 0.5 * np.einsum("...d,...d->...", x, np.einsum("...ij,...j->...i", a.at(x), x))
    v += np.einsum("...d,...d->...", x, b.stack) + c
    return v


def _quadratic_grads(a, b, c, x, out=None):
    return np.add(np.einsum("...ij,...j->...i", a.at(x), x, out=out), b.at(x), out=out)


def _sine_quadratic_values(a, b, c, amp, freq, x):
    v = _quadratic_values(a, b, c, x)
    v += np.einsum("...d,...d->...", np.sin(freq * x), amp)
    return v


def _sine_quadratic_grads(a, b, c, amp, freq, x, out=None):
    g = _quadratic_grads(a, b, c, x, out)
    g += amp * freq * np.cos(freq * x)
    return g


def _horner(coefs, x, out=None):
    acc = np.empty(np.broadcast_shapes(coefs.shape[:-1], x.shape)) if out is None else out
    acc[...] = coefs[..., -1]
    for t in range(coefs.shape[-1] - 2, -1, -1):
        acc = np.add(np.multiply(acc, x, out=out), coefs[..., t], out=out)
    return acc


def _polynomial_values(coefs, dcoefs, x):
    return _horner(coefs, x).sum(axis=-1)


def _polynomial_grads(coefs, dcoefs, x, out=None):
    return _horner(dcoefs, x, out)


# family -> (builder, parameter names in the order the builder takes them and
# ``ComponentFunction.params`` stores them, (value kernel, grad kernel))
_FAMILY_TABLE = {
    QUADRATIC: (quadratic, ("a", "b", "c"), (_quadratic_values, _quadratic_grads)),
    POLYNOMIAL: (polynomial, ("coeffs",), (_polynomial_values, _polynomial_grads)),
    SINE_QUADRATIC: (sine_quadratic, ("a", "b", "c", "amplitude", "frequency"),
                     (_sine_quadratic_values, _sine_quadratic_grads)),
}


def rebuild(comp: ComponentFunction, cid: str, fs: FeasibleSet, /, **params) -> ComponentFunction:
    """A component of ``comp``'s family named ``cid``, with ``params`` in place
    of its parameters of those names; bounds are recomputed analytically over fs."""
    builder, names, _ = _FAMILY_TABLE[comp.family]
    params = {**comp.params, **params}
    return builder(cid, *(params[k] for k in names), bounds_for=fs)


def _kernel_params(family: str, comps: Sequence[ComponentFunction]) -> tuple:
    """Stacked kernel parameters of components from one family; the matrices and
    offsets of the quadratic families are each a :class:`_BatchLaid`."""
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
    a, b, *rest = (np.array([c.params[k] for c in comps]) for k in _FAMILY_TABLE[family][1])
    return _BatchLaid(a, 1), _BatchLaid(b), *rest


class _Evaluator:
    """Family-grouped evaluation of a stack of components.

    Points carry a component axis second to last: ``x[..., j, :]`` is
    evaluated with component j, and a component axis of length 1 is shared
    by every component.  A round costs a handful of numpy calls whatever the
    number of agents.  ``grads(x, out=None)`` gives the gradients at x, into
    ``out`` if given: for one family it is the family's kernel with the
    stacked parameters bound, one direct call that writes in place; a mixed
    stack loops over its families.
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
                self.groups.append((sel, params, _FAMILY_TABLE[family][2]))
        if len(self.groups) == 1:
            _, params, (_, grad_fn) = self.groups[0]
            self.grads = partial(grad_fn, *params)
        else:
            self.grads = self._grouped_grads

    @staticmethod
    def _select(x: np.ndarray, sel) -> np.ndarray:
        return x if x.shape[-2] == 1 else x[..., sel, :]

    def values(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[:-2] + (self.n,))
        for sel, params, (value_fn, _) in self.groups:
            out[..., sel] = value_fn(*params, self._select(x, sel))
        return out

    def _grouped_grads(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A mixed stack's gradients: each family's kernel on its components."""
        out = np.empty(x.shape[:-2] + (self.n, x.shape[-1])) if out is None else out
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
    if isinstance(fs, Ball):
        return float(np.linalg.norm(a @ fs.center + b) + _spec_norm(a) * fs.radius)
    # ||Ax + b|| is convex, so over a box its max sits at a corner.
    if fs.dimension <= 12:
        pts = _corners(fs.lo, fs.hi)
        return float(np.max(np.linalg.norm(pts @ a + b, axis=1)))
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


# ---------------------------------------------------------------------------
# sampled validators


@dataclass(frozen=True)
class BoundEstimate:
    l_hat: float
    n_hat: float
    grad_bound: float
    lipschitz: float
    l_violated: bool
    n_violated: bool
    n_nonfinite: int = 0  # sampled pairs with a non-finite gradient at either point


def estimate_bounds(c: ComponentFunction, fs: FeasibleSet, n_samples: int, seed: int) -> BoundEstimate:
    """Sampled lower estimates of the gradient sup and Lipschitz modulus.

    Flags a violation when a sampled value exceeds the declared constant;
    samples never overshoot the true suprema, so a flag is a disproof.  A
    gradient that is not finite at a sampled point has no finite bound: both
    estimates are then inf and both flags set.
    """
    if n_samples < 100:
        raise ConfigError("estimate_bounds needs n_samples >= 100")
    rng = np.random.default_rng(seed)
    xs = fs.sample(n_samples, rng)
    ys = fs.sample(n_samples, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples are counted
        gx, gy = grad_many(c, xs), grad_many(c, ys)
        l_hat = float(np.max(np.linalg.norm(gx, axis=1)))
        dist = np.linalg.norm(xs - ys, axis=1)
        ok = dist > 1e-12
        n_hat = float(np.max(np.linalg.norm(gx[ok] - gy[ok], axis=1) / dist[ok], initial=0.0))
    n_nonfinite = int(np.count_nonzero(~np.isfinite(np.hstack([gx, gy])).all(axis=1)))
    if n_nonfinite:
        l_hat = n_hat = np.inf
    # the estimates themselves carry rounding error, so a violation must
    # clear a small relative margin to count as a disproof
    slack = 1e-9
    return BoundEstimate(
        l_hat, n_hat, c.grad_bound, c.lipschitz,
        l_violated=l_hat > c.grad_bound * (1 + slack) + 1e-12,
        n_violated=n_hat > c.lipschitz * (1 + slack) + 1e-12,
        n_nonfinite=n_nonfinite,
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
    n_nonfinite: int = 0  # sampled pairs with a non-finite sum at a tested point


def verify_sum_convexity(prob: Problem, n_pairs: int, seed: int) -> ConvexityReport:
    """Sampled midpoint test of convexity of the component sum.

    For sampled pairs x, y in the set and lam in {0.25, 0.5, 0.75} checks
    f(lam x + (1-lam) y) <= lam f(x) + (1-lam) f(y) + 1e-9 (1 + |f|).
    A failure is a disproof; passing is evidence, not a certificate.  A sum
    that is not finite at a tested point fails the test: the worst
    violation is then inf.
    """
    if n_pairs < 100:
        raise ConfigError("verify_sum_convexity needs n_pairs >= 100")
    rng = np.random.default_rng(seed)
    xs = prob.feasible_set.sample(n_pairs, rng)
    ys = prob.feasible_set.sample(n_pairs, rng)
    worst = -np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums are counted
        fx = sum_value(prob, xs)
        fy = sum_value(prob, ys)
        finite = np.isfinite(fx) & np.isfinite(fy)
        for lam in (0.25, 0.5, 0.75):
            z = lam * xs + (1.0 - lam) * ys
            fz = sum_value(prob, z)
            finite &= np.isfinite(fz)
            chord = lam * fx + (1.0 - lam) * fy
            tol = 1e-9 * (1.0 + np.maximum(np.abs(fx), np.maximum(np.abs(fy), np.abs(fz))))
            worst = max(worst, float(np.max(fz - chord - tol)))
    n_nonfinite = int(np.count_nonzero(~finite))
    if n_nonfinite:
        worst = np.inf
    return ConvexityReport(passed=worst <= 0.0, n_pairs=n_pairs, worst_violation=worst,
                           n_nonfinite=n_nonfinite)


# ---------------------------------------------------------------------------
# serialization


def _plain(v):
    """A parameter as JSON values: arrays, and tuples of them, become lists."""
    return [_plain(e) for e in v] if isinstance(v, tuple) else np.asarray(v).tolist()


def component_to_dict(c: ComponentFunction) -> dict:
    params = {k: _plain(c.params[k]) for k in _FAMILY_TABLE[c.family][1]}
    return {
        "id": c.id, "family": c.family, "params": params,
        "grad_bound": c.grad_bound, "lipschitz": c.lipschitz,
    }


def component_from_dict(d: dict) -> ComponentFunction:
    with reading("component definition"):
        cid = d["id"]
    with reading(f"component {cid!r}"):
        family, params = d["family"], d["params"]
        gb = as_float(d["grad_bound"], f"component {cid!r} grad_bound")
        nl = as_float(d["lipschitz"], f"component {cid!r} lipschitz")
        if family not in FAMILIES:
            raise ConfigError(f"unknown component family {family!r}")
        builder, names, _ = _FAMILY_TABLE[family]
        args = [as_float(params.get(k, 0.0), f"component {cid!r} params.c") if k == "c"
                else as_numbers(params[k], f"component {cid!r} params.{k}") for k in names]
        return builder(cid, *args, grad_bound=gb, lipschitz=nl)


def problem_to_dict(prob: Problem) -> dict:
    return {
        "dimension": prob.dimension,
        "set": prob.feasible_set.to_dict(),
        "components": [component_to_dict(c) for c in prob.components],
    }


def problem_from_dict(d: dict) -> Problem:
    with reading("problem"):
        dim = as_int(d["dimension"], "problem.dimension")
        fs = set_from_dict(d["set"])
        comps = tuple(component_from_dict(cd) for cd in d["components"])
    return Problem(dim, comps, fs)
