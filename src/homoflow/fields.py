"""Analytic field algebra: scalar/vector fields with exact derivatives and the
generator families for rectified drift systems.

Conventions used throughout the package:

* points are float arrays of shape ``(..., N)`` and every field callable is
  vectorized over the leading axes;
* a scalar field maps ``(..., N) -> (...)``, its gradient to ``(..., N)``;
* a vector field maps ``(..., N) -> (..., N)`` and its Jacobian to
  ``(..., N, N)`` with ``jac[..., i, j] = d(component i)/d(x_j)``, so row ``i``
  is the gradient of component ``i``;
* under this layout the rectification identity reads
  ``jac(W) @ b = theta * e1``: the drift is orthogonal to the gradients of all
  components of the straightening map except the first.

Every evaluator is a pure function and systems carry no mutable state, so
evaluation is safe from concurrent threads; construction is single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

TWO_PI = 2.0 * math.pi

# Finite-difference step scale for derivatives no formula supplies (fields
# built from maps); the step at x is FD_STEP * max(1, |x|).
FD_STEP = 1e-5


class FieldError(ValueError):
    """Contract violation in field construction or evaluation."""


class InvalidMeasureError(FieldError):
    """A candidate invariant density touches zero or goes negative."""


class InvalidFamilyError(FieldError):
    """Generator family parameters violate the family's hypotheses."""


class InvalidCellError(FieldError):
    """Periodic cell map fails orientation/positivity or lacks Hessians."""


def as_points(x, dim: int) -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise FieldError(f"expected points of shape (..., {dim}), got {x.shape}")
    return x


def tensor_grid(axes: Sequence[Array]) -> Array:
    """Nodes of the tensor product of 1-D axes, shape (prod len, N), with the
    last axis varying fastest (row-major, ``meshgrid(..., indexing="ij")``)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


# ---------------------------------------------------------------------------
# core field containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """Scalar field with a gradient and an optional ``hess`` (the symmetric
    second-derivative matrix, shape ``(..., N, N)``), which the streams of
    :func:`drift_from_streamfields` and the ``w1`` of :func:`theta_of` must
    carry."""

    dim: int
    eval: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    hess: Callable[[Array], Array] | None = None


@dataclass(frozen=True)
class VectorField:
    """Vector field with its Jacobian and divergence.

    ``sup_bound``/``div_bound`` are optional uniform bounds on ``|field|`` and
    ``|div field|``.  Periodic families estimate ``sup_bound`` by dense
    sampling and inflate the estimate; no family computes ``div_bound``, which
    stays for fields built by hand (the divergence-free ones set 0.0).  They
    size boxes and warnings, never decide which points are computed.

    ``proven_box`` is stronger: a pair ``(lo, hi)`` of length-N arrays with
    ``lo <= eval(x) <= hi`` componentwise as computed in floating point, for
    every finite x, derived rather than sampled.  The identity and sine cells
    carry one (see :func:`sine_cell`); with it,
    :func:`~homoflow.transport.solve_transport` integrates only the points a
    compactly supported datum can reach by each requested time.  Leave it
    absent unless it is proven: a wrong value silently zeroes parts of
    solutions.

    ``exact_flow(t, x)``, like ``proven_box``, is set only where derived: it
    returns the field's flow X(t, x) in closed form, shape of x.  The twist
    drift with a unit-slope alpha carries one (see
    :func:`hyperbolic_twist_family`); with it,
    :func:`~homoflow.transport.solve_transport` integrates only the samples
    whose exact position lies within twice the datum's support radius of its
    center.  That margin is measured, not proven, to cover RK4's position
    error there.
    """

    dim: int
    eval: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    divergence: Callable[[Array], Array]
    sup_bound: float | None = None
    div_bound: float | None = None
    proven_box: tuple[Array, Array] | None = None
    exact_flow: Callable[[float, Array], Array] | None = None


@dataclass(frozen=True)
class Diffeo:
    """Orientation-preserving C1 map with Jacobian.

    ``det`` is an optional dedicated determinant; flow maps pin it to
    ``exp(integrated divergence)`` so the Jacobian determinant and the
    Liouville value stay independently computed.
    """

    dim: int
    eval: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    det: Callable[[Array], Array] | None = None


@dataclass(frozen=True)
class RectifiedSystem:
    """One member of an eps-indexed family (W, sigma, b, theta) plus its limit data.

    Contracts (checked by the diagnostics suite, not at construction):
    ``sigma_bounds[0] <= sigma <= sigma_bounds[1]``, ``theta > 0``,
    ``jac(W) @ b = theta * e1`` and ``det(jac(W)) = sigma * theta``.
    ``analytic`` is declared: the invariant suite holds the identities to
    1e-10 when it is set, 1e-6 otherwise, so a system built by hand from
    finite-difference members (``fd_*`` fields, flow maps) sets it False.
    """

    dim: int
    eps: float
    W: Diffeo
    sigma: ScalarField
    b: VectorField
    theta: ScalarField
    sigma_bounds: tuple[float, float]
    limit_W: Diffeo
    limit_theta: ScalarField
    label: str = ""
    analytic: bool = True


# ---------------------------------------------------------------------------
# simple constructors
# ---------------------------------------------------------------------------

def constant(dim: int, value) -> Callable[[Array], Array]:
    """A member that does not depend on the point: points (..., dim) map to
    fresh copies of ``value``, shape (...,) + value's shape."""
    v = np.asarray(value, dtype=float)

    def member(x):
        return np.broadcast_to(v, as_points(x, dim).shape[:-1] + v.shape).copy()

    return member


def constant_scalar(dim: int, value: float) -> ScalarField:
    return ScalarField(dim, constant(dim, value), zeros(dim, dim), zeros(dim, dim, dim))


def coordinate_scalar(dim: int, axis: int) -> ScalarField:
    """The coordinate function x -> x[axis]."""
    def ev(x):
        return as_points(x, dim)[..., axis]

    return ScalarField(dim, ev, constant(dim, np.eye(dim)[axis]), zeros(dim, dim, dim))


def constant_vector(dim: int, value) -> VectorField:
    v = np.asarray(value, dtype=float)
    if v.shape != (dim,):
        raise FieldError(f"constant vector must have shape ({dim},)")
    return VectorField(dim, constant(dim, v), zeros(dim, dim, dim), zeros(dim),
                       sup_bound=float(np.linalg.norm(v)), div_bound=0.0)


def affine_diffeo(matrix) -> Diffeo:
    """x -> M x with det(M) > 0."""
    M = np.asarray(matrix, dtype=float)
    dim = M.shape[0]
    if M.shape != (dim, dim):
        raise FieldError("affine map needs a square matrix")
    if jacobian_det(M) <= 0.0:
        raise FieldError("affine map must be orientation preserving")

    def ev(x):
        x = as_points(x, dim)
        return x @ M.T

    return Diffeo(dim, ev, constant(dim, M))


# ---------------------------------------------------------------------------
# finite-difference fields (built from maps) and vanishing derivatives
# ---------------------------------------------------------------------------

def fd_jacobian(f: Callable[[Array], Array], x: Array, scale: float = FD_STEP) -> Array:
    """Central-difference Jacobian of a vector function of points, one
    batched call, with the per-point step ``scale * max(1, |x|)``:
    out[..., i, j] = d f_i / d x_j."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = scale * np.maximum(1.0, np.linalg.norm(x, axis=-1))
    e = np.eye(n)
    vals = f(np.stack([x + s * h[..., None] * e[j] for j in range(n) for s in (1.0, -1.0)]))
    step = 2.0 * h[..., None]
    return np.stack([(vals[2 * j] - vals[2 * j + 1]) / step for j in range(n)], axis=-1)


def fd_vector_field(dim: int, ev: Callable[[Array], Array],
                    divergence: Callable[[Array], Array] | None = None,
                    scale: float = FD_STEP, **bounds) -> VectorField:
    """Approximate vector field: its Jacobian is central differences of
    ``ev``, and a missing ``divergence`` is that Jacobian's trace.
    ``bounds`` go to :class:`VectorField` as they are."""
    def jac(x):
        return fd_jacobian(ev, as_points(x, dim), scale)

    def trace(x):
        return np.trace(jac(x), axis1=-2, axis2=-1)

    return VectorField(dim, ev, jac, divergence or trace, **bounds)


def fd_scalar_field(dim: int, ev: Callable[[Array], Array],
                    scale: float = FD_STEP) -> ScalarField:
    """Approximate scalar field whose gradient is central differences of ``ev``."""
    def grad(x):
        return fd_jacobian(lambda y: ev(y)[..., None], as_points(x, dim), scale)[..., 0, :]

    return ScalarField(dim, ev, grad)


def zeros(dim: int, *trailing: int) -> Callable[[Array], Array]:
    """A derivative that vanishes identically: points (..., dim) map to
    zeros of shape (...,) + trailing."""
    return constant(dim, np.zeros(trailing))


# ---------------------------------------------------------------------------
# cross product / rotation
# ---------------------------------------------------------------------------

def rot_perp(v: Array) -> Array:
    """Clockwise quarter turn in the plane: (v1, v2) -> (v2, -v1).

    For any C2 scalar w the rotated gradient rot_perp(grad w) is divergence
    free, which is what makes it the planar stand-in for the cross product.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 2:
        raise FieldError("rot_perp is only defined in dimension 2")
    return np.stack([v[..., 1], -v[..., 0]], axis=-1)


def cross_product(vectors: Sequence[Array]) -> Array:
    """Vector w with v . w = det(v, v2, ..., vN) for every v, N >= 2.

    In the plane the one argument v2 gives w = rot_perp(v2), bit for bit.
    For N >= 3 it is computed by cofactor expansion down the first column of
    the matrix whose columns are (., v2, ..., vN): component i is (-1)^i
    times the minor obtained by deleting row i from the column stack of the
    arguments.
    """
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise FieldError("cross_product needs at least one vector")
    n = vs[0].shape[-1]
    if n < 2:
        raise FieldError("cross_product requires dimension >= 2")
    if len(vs) != n - 1:
        raise FieldError(f"need {n - 1} vectors in dimension {n}, got {len(vs)}")
    for v in vs:
        if v.shape[-1] != n:
            raise FieldError("cross_product arguments must share one dimension")
    if n == 2:
        return rot_perp(vs[0])
    cols = np.stack(np.broadcast_arrays(*vs), axis=-1)  # (..., N, N-1)
    comps = []
    for i in range(n):
        minor = np.delete(cols, i, axis=-2)
        comps.append(((-1.0) ** i) * np.linalg.det(minor))
    return np.stack(comps, axis=-1)


def jacobian_flux(J: Array) -> Array:
    """The cross product of rows 2..N of J (batched over leading axes).

    This is the first row of the cofactor matrix of J, so
    ``J @ jacobian_flux(J) = det(J) e1``; with J the Jacobian of a
    straightening map it is the divergence-free flux sigma * b.  In 2D it is
    rot_perp of the second row.
    """
    J = np.asarray(J, dtype=float)
    return cross_product([J[..., k, :] for k in range(1, J.shape[-1])])


def jacobian_det(J: Array) -> Array:
    """det over the last two axes: the inline formula J00 J11 - J01 J10 in
    the plane (np.linalg.det's last bits differ), np.linalg.det for N >= 3."""
    if J.shape[-1] == 2:
        return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    return np.linalg.det(J)


def _cross_jacobian(grads: Sequence[Array], hessians: Sequence[Array]) -> Array:
    """Jacobian of x -> cross_product(grads(x)).

    ``hessians[k][..., i, j]`` is d(grads[k]_i)/dx_j.  The cross product is
    multilinear, so column j is the sum over k of the cross product with
    grads[k] replaced by column j of hessians[k].
    """
    n = len(grads)
    cols = []
    for j in range(n + 1):
        terms = [cross_product([hessians[i][..., :, j] if i == k else grads[i]
                                for i in range(n)]) for k in range(n)]
        # sum() starts from 0, which makes every exact zero of an N-D column
        # +0.0; the one planar term is taken as it is
        cols.append(terms[0] if n == 1 else sum(terms))
    return np.stack(cols, axis=-1)


def _quotient_jacobian(u: Array, du: Array, s: Array, gs: Array) -> Array:
    """Jacobian of u/s from du = jac u, the scalar s and gs = grad s."""
    s = s[..., None, None]
    return du / s - np.einsum("...i,...j->...ij", u, gs) / s ** 2


# ---------------------------------------------------------------------------
# drift construction from stream fields
# ---------------------------------------------------------------------------

def drift_from_streamfields(streams: Sequence[ScalarField], sigma: ScalarField) -> VectorField:
    """Drift b with sigma * b equal to the cross of the stream gradients.

    In 2D the single stream w gives sigma*b = rot_perp(grad w); in higher
    dimension the N-1 streams give sigma*b = grad w2 x ... x grad wN.  The
    product sigma*b is divergence free by construction, so
    div b = -(grad sigma . b)/sigma exactly.  The drift Jacobian follows from
    multilinearity of the cross product and the quotient rule, so a stream
    without ``hess`` is refused, before anything is evaluated.
    """
    dim = sigma.dim
    n_streams = 1 if dim == 2 else dim - 1
    if len(streams) != n_streams:
        raise FieldError(f"dimension {dim} needs {n_streams} stream field(s)")
    for s in streams:
        if s.dim != dim:
            raise FieldError("stream fields must match sigma's dimension")
        if s.hess is None:
            raise FieldError("every stream field needs its hess (the drift Jacobian)")

    probe = tensor_grid([np.linspace(-2.0, 2.0, 9)] * dim)
    svals = sigma.eval(probe)
    if np.any(svals <= 0.0):
        bad = probe[np.argmin(svals)]
        raise InvalidMeasureError(f"sigma is not strictly positive, e.g. at {bad}")

    def ev(x):
        x = as_points(x, dim)
        return cross_product([s.grad(x) for s in streams]) / sigma.eval(x)[..., None]

    def div(x):
        x = as_points(x, dim)
        b = ev(x)
        return -np.einsum("...i,...i->...", sigma.grad(x), b) / sigma.eval(x)

    def jac(x):
        x = as_points(x, dim)
        grads = [s.grad(x) for s in streams]
        du = _cross_jacobian(grads, [s.hess(x) for s in streams])
        return _quotient_jacobian(cross_product(grads), du, sigma.eval(x),
                                  sigma.grad(x))

    return VectorField(dim, ev, jac, div)


def theta_of(b: VectorField, w1: ScalarField) -> ScalarField:
    """Pointwise speed b . grad(w1) along the straightened first coordinate;
    its gradient is jac(b)^T grad w1 + hess(w1) b, so w1 must carry its
    ``hess``."""
    if b.dim != w1.dim:
        raise FieldError("dimension mismatch between drift and scalar field")
    if w1.hess is None:
        raise FieldError("theta_of needs w1's hess (the gradient of theta)")
    dim = b.dim

    def ev(x):
        x = as_points(x, dim)
        return np.einsum("...i,...i->...", b.eval(x), w1.grad(x))

    def gr(x):
        x = as_points(x, dim)
        jb = b.jacobian(x)
        return (np.einsum("...ij,...i->...j", jb, w1.grad(x))
                + np.einsum("...ij,...j->...i", w1.hess(x), b.eval(x)))

    return ScalarField(dim, ev, gr)


def rectification_residual(system: RectifiedSystem, x: Array) -> Array:
    """jac(W) @ b - theta * e1; zero (to tolerance) for every valid system."""
    x = as_points(x, system.dim)
    jw = system.W.jacobian(x)
    bv = system.b.eval(x)
    res = np.einsum("...ij,...j->...i", jw, bv)
    res[..., 0] -= system.theta.eval(x)
    return res


# ---------------------------------------------------------------------------
# 1D profiles for the twist family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """Scalar function of one variable with exact first/second derivatives.

    ``deriv2`` has no default: the twist family's drift Jacobian and theta
    gradient read it.  ``unit_slope`` says that ``deriv`` is exactly 1.0
    everywhere, so a product with it may be left out, which is exact.  For
    the twist family's alpha it also declares theta = alpha'(x1) alpha'(x2)
    = 1, which gives the drift its closed-form flow
    (``VectorField.exact_flow``).  The twist drift reads it (and never writes
    into the arrays a curve returns); :func:`hyperbolic_twist_family` checks
    it on its probe.
    """

    eval: Callable[[Array], Array]
    deriv: Callable[[Array], Array]
    deriv2: Callable[[Array], Array]
    unit_slope: bool = False


def identity_curve() -> Curve:
    return Curve(lambda t: np.asarray(t, dtype=float) + 0.0,
                 lambda t: np.ones_like(np.asarray(t, dtype=float)),
                 lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                 unit_slope=True)


def zero_curve() -> Curve:
    return Curve(lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                 lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                 lambda t: np.zeros_like(np.asarray(t, dtype=float)))


def sine_curve(amplitude: float, frequency: float) -> Curve:
    """t -> amplitude * sin(frequency * t)."""
    a, w = float(amplitude), float(frequency)
    aw = a * w
    return Curve(lambda t: a * np.sin(w * np.asarray(t, dtype=float)),
                 lambda t: aw * np.cos(w * np.asarray(t, dtype=float)),
                 lambda t: -a * w * w * np.sin(w * np.asarray(t, dtype=float)))


def perturbed_identity_curve(amplitude: float) -> Curve:
    """t -> t + amplitude * sin(t), strictly increasing for |amplitude| < 1."""
    a = float(amplitude)
    if abs(a) >= 1.0:
        raise InvalidFamilyError("perturbed identity needs |amplitude| < 1")
    return Curve(lambda t: np.asarray(t, dtype=float) + a * np.sin(np.asarray(t, dtype=float)),
                 lambda t: 1.0 + a * np.cos(np.asarray(t, dtype=float)),
                 lambda t: -a * np.sin(np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# twist family (2D): W = (a(x1) e^{B}, a(x2) e^{-B}), B = beta(a(x1) a(x2))
# ---------------------------------------------------------------------------

def hyperbolic_twist_family(alpha: Curve, beta: Curve, eps: float,
                            label: str = "example31") -> RectifiedSystem:
    """2D family twisting along the hyperbolas a(x1)*a(x2) = const.

    The map W(x) = (a(x1) e^{B}, a(x2) e^{-B}) with B = beta(a(x1) a(x2)) has
    Jacobian determinant a'(x1) a'(x2) regardless of beta: the exponential
    factors cancel, so all the oscillation of beta lands in the drift while
    theta stays beta-free.  Here sigma = 1 and b = rot_perp(grad w2).

    The eps -> 0 limits of the profiles are the identity (alpha) and zero
    (beta), as for the canonical instances, so the limit map is the identity.

    The drift is evaluated in one closed-form pass over the profiles'
    ``eval`` and ``deriv`` that returns, bit for bit, what the formula
    b = ((e^{-B} a'(x2))(1 - p beta'(p)), ((e^{-B} a'(x1)) a(x2)^2) beta'(p)),
    p = a(x1) a(x2), gives term by term: every floating-point operation stays
    the same and in the same order.  A profile whose ``unit_slope`` claim
    disagrees with its ``deriv`` on the probe t in [-10, 10] is refused.

    When ``alpha.unit_slope``, theta = 1 and jac(W) b = e1, so the drift's
    flow is X(t, x) = W^{-1}(W(x) + t e1) with the closed-form inverse
    W^{-1}(z) = (z1 e^{-beta(q)}, z2 e^{beta(q)}), q = z1 z2 (W keeps the
    product: W1 W2 = x1 x2); ``b.exact_flow`` holds it.
    """
    probe = np.linspace(-10.0, 10.0, 2001)
    ap = alpha.deriv(probe)
    if np.any(ap <= 0.0):
        raise InvalidFamilyError(
            f"alpha' must stay positive; found {ap.min():.3g} at t={probe[np.argmin(ap)]:.3g}")
    for name, curve in (("alpha", alpha), ("beta", beta)):
        if curve.unit_slope and not np.all(curve.deriv(probe) == 1.0):
            raise InvalidFamilyError(f"{name} claims a unit slope its deriv does not have")
    return RectifiedSystem(
        dim=2, eps=float(eps), W=_twist_map(alpha, beta),
        sigma=constant_scalar(2, 1.0), b=_twist_drift(alpha, beta),
        theta=_product_of_derivatives(alpha), sigma_bounds=(1.0, 1.0),
        limit_W=_twist_map(identity_curve(), zero_curve()),
        limit_theta=_product_of_derivatives(identity_curve()), label=label)


def _twist_pieces(alpha: Curve, beta: Curve, x: Array):
    x1, x2 = x[..., 0], x[..., 1]
    a1, a2 = alpha.eval(x1), alpha.eval(x2)
    p = a1 * a2
    return a1, a2, alpha.deriv(x1), alpha.deriv(x2), p, beta.eval(p), beta.deriv(p)


def _twist_map(alpha: Curve, beta: Curve) -> Diffeo:
    def ev(x):
        x = as_points(x, 2)
        a1, a2 = alpha.eval(x[..., 0]), alpha.eval(x[..., 1])
        e = np.exp(beta.eval(a1 * a2))
        return np.stack([a1 * e, a2 / e], axis=-1)

    def jac(x):
        x = as_points(x, 2)
        a1, a2, d1, d2, p, bb, bp = _twist_pieces(alpha, beta, x)
        e = np.exp(bb)
        row1 = np.stack([d1 * (1.0 + p * bp), d2 * a1 ** 2 * bp], axis=-1) * e[..., None]
        row2 = np.stack([-d1 * a2 ** 2 * bp, d2 * (1.0 - p * bp)], axis=-1) / e[..., None]
        return np.stack([row1, row2], axis=-2)

    return Diffeo(2, ev, jac)


def _twist_drift(alpha: Curve, beta: Curve) -> VectorField:
    def ev(x):
        # b = ((em d2)(1 - p bp), ((em d1) a2^2) bp) with p = a1 a2 and
        # em = exp(-beta(p)), each factor formed once and the two components
        # written straight into one array.  The only rewrites are exact
        # (a2 * a2 for a2**2, a unit slope left out), so the bits are the
        # formula's.
        x = as_points(x, 2)
        x1, x2 = x[..., 0], x[..., 1]
        a1, a2 = alpha.eval(x1), alpha.eval(x2)
        p = a1 * a2
        bb, bp = beta.eval(p), beta.deriv(p)
        em = np.exp(-bb)
        em_d1, em_d2 = ((em, em) if alpha.unit_slope
                        else (em * alpha.deriv(x1), em * alpha.deriv(x2)))
        out = np.empty(x.shape)
        np.multiply(em_d2, 1.0 - p * bp, out=out[..., 0])
        np.multiply(em_d1 * (a2 * a2), bp, out=out[..., 1])
        return out

    def jac(x):
        x = as_points(x, 2)
        x1, x2 = x[..., 0], x[..., 1]
        a1, a2, d1, d2, p, bb, bp = _twist_pieces(alpha, beta, x)
        dd1, dd2 = alpha.deriv2(x1), alpha.deriv2(x2)
        bpp = beta.deriv2(p)
        em = np.exp(-bb)
        j11 = em * d1 * d2 * a2 * (-2.0 * bp + p * bp ** 2 - p * bpp)
        j12 = em * (dd2 * (1.0 - p * bp) - d2 ** 2 * a1 * (2.0 * bp - p * bp ** 2 + p * bpp))
        j21 = em * a2 ** 2 * (dd1 * bp + d1 ** 2 * a2 * (bpp - bp ** 2))
        j22 = em * d1 * d2 * a2 * (2.0 * bp + p * (bpp - bp ** 2))
        return np.stack([np.stack([j11, j12], axis=-1),
                         np.stack([j21, j22], axis=-1)], axis=-2)

    def flow(t, x):
        # X(t, x) = W^{-1}(W(x) + t e1) for the identity alpha; points whose
        # product overflows come out non-finite, without a warning
        x = as_points(x, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(beta.eval(x[..., 0] * x[..., 1]))
            z1, z2 = x[..., 0] * e + t, x[..., 1] / e
            f = np.exp(beta.eval(z1 * z2))
            return np.stack([z1 / f, z2 * f], axis=-1)

    # sigma = 1 and sigma*b is a rotated gradient, hence divergence free
    return VectorField(2, ev, jac, zeros(2), div_bound=0.0,
                       exact_flow=flow if alpha.unit_slope else None)


def _product_of_derivatives(alpha: Curve) -> ScalarField:
    def ev(x):
        x = as_points(x, 2)
        return alpha.deriv(x[..., 0]) * alpha.deriv(x[..., 1])

    def gr(x):
        x = as_points(x, 2)
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([alpha.deriv2(x1) * alpha.deriv(x2),
                         alpha.deriv(x1) * alpha.deriv2(x2)], axis=-1)

    return ScalarField(2, ev, gr)


# ---------------------------------------------------------------------------
# periodic cell maps and the rescaled family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicCellMap:
    """Unit-cell map y -> M y + periodic_part(y) with det of its Jacobian > 0.

    ``hessians`` holds the exact second derivatives of the periodic part,
    shape ``(..., N, N, N)``, entry [i, j, k] = d^2(part_i)/(dy_j dy_k);
    ``periodic_family`` requires them, while ``effective_from_cell`` reads
    only ``jacobian``.

    ``drift`` optionally evaluates the cell drift in closed form; it must
    return the bits of the generic formula built from ``jacobian``.
    ``proven_drift_box`` is a proven componentwise box ``(lo, hi)`` around
    every computed drift value over all of R^N (see
    ``VectorField.proven_box``).  Both belong to the constructor that built
    them from ``M`` and the periodic part: a copy with another ``M``
    (``dataclasses.replace(cell, M=...)``) must be rebuilt by that
    constructor, or have both set to None.  ``periodic_family`` refuses a
    ``drift`` that disagrees with the generic formula, or a box that misses
    a drift value sampled on its cell grid.
    """

    dim: int
    M: Array
    periodic_part: VectorField | None = None
    hessians: Callable[[Array], Array] | None = None
    drift: Callable[[Array], Array] | None = None
    proven_drift_box: tuple[Array, Array] | None = None

    def eval(self, y: Array) -> Array:
        y = as_points(y, self.dim)
        out = y @ np.asarray(self.M, dtype=float).T
        if self.periodic_part is not None:
            out = out + self.periodic_part.eval(y)
        return out

    def jacobian(self, y: Array) -> Array:
        y = as_points(y, self.dim)
        M = np.asarray(self.M, dtype=float)
        if self.periodic_part is None:
            return np.broadcast_to(M, y.shape + (self.dim,)).copy()
        return self.periodic_part.jacobian(y) + M


def identity_cell(dim: int = 2) -> PeriodicCellMap:
    # the drift is e1 computed exactly (unit pivots and zeros only)
    e1 = np.eye(dim)[0]
    return PeriodicCellMap(dim, np.eye(dim), None, zeros(dim, dim, dim, dim),
                           proven_drift_box=(e1, e1.copy()))


def _sine_drift_box(m11: float, j10: Array, det: Array,
                    scale: float) -> tuple[Array, Array] | None:
    """Proven componentwise box around the computed sine-cell drift over R^2,
    from j10 = m10 + g c1 and det at the four cosine corners, which
    :func:`sine_cell` has checked to be positive.

    With c1 = cos(2pi y1), c2 = cos(2pi y2) the drift is
    (m11, -(m10 + g c1)) / det and det = m00 m11 - (m01 + d c2)(m10 + g c1)
    is bilinear in (c1, c2), so det > 0 on the square [-1, 1]^2 because
    it is positive at the four corners.  Each component is then monotone in
    each cosine: m11 / det because det is affine in either cosine, and
    -(m10 + g c1) / det because it is monotone in c2 for fixed c1 and, as a
    function of s = m10 + g c1, has derivative -m00 m11 / det^2 of one sign.
    So each component's extremes over the square sit at corners.  So does
    the maximum of |b|: for fixed c1, |b| = const / det is monotone in c2;
    for fixed c2, |b| is a convex norm over a positive affine function, which
    is quasiconvex in c1.

    The corner extremes are padded outward by 32 u kappa times the largest
    corner norm, u = 2^-53 and kappa = scale / (smallest corner det) with
    scale = |m00 m11| + A B, A = |d| + |m01|, B = |g| + |m10|: the products,
    the determinant's difference and the two divisions perturb each computed
    drift component (at any computed cosine in [-1, 1]) and each computed
    corner value by less than 12 u kappa times that norm.  None (no box)
    when kappa > 1e12 makes that first-order rounding estimate unsafe.
    """
    kappa = scale / float(det.min())
    if kappa > 1e12:
        return None
    corners = np.stack([m11 / det, -j10 / det], axis=-1).reshape(-1, 2)
    pad = float(np.max(np.linalg.norm(corners, axis=-1))) * 32.0 * 2.0 ** -53 * kappa
    return corners.min(axis=0) - pad, corners.max(axis=0) + pad


def sine_cell(M, delta: float, gamma: float) -> PeriodicCellMap:
    """2D cell M y + ((delta/2pi) sin(2pi y2), (gamma/2pi) sin(2pi y1)).

    Its determinant is bilinear in the two cosines (see :func:`_sine_drift_box`),
    so a cell is refused, with an :class:`InvalidCellError` naming the least
    one, unless its four corner determinants are positive.  Its drift is
    evaluated straight from the two cosines, and it carries the proven drift
    box of :func:`_sine_drift_box`, built from the same corners.
    """
    M = np.asarray(M, dtype=float)
    d, g = float(delta), float(gamma)
    m00, m01, m10, m11 = (float(v) for v in M.ravel())
    c = np.array([-1.0, 1.0])
    corner_j10 = g * c[:, None] + m10
    corner_det = m00 * m11 - (d * c[None, :] + m01) * corner_j10
    if not np.all(corner_det > 0.0):
        raise InvalidCellError("the cell determinant must stay positive, but its least"
                               f" corner value is {float(corner_det.min()):g}")

    def ev(y):
        y = as_points(y, 2)
        return np.stack([d / TWO_PI * np.sin(TWO_PI * y[..., 1]),
                         g / TWO_PI * np.sin(TWO_PI * y[..., 0])], axis=-1)

    def jac(y):
        y = as_points(y, 2)
        out = np.zeros(y.shape + (2,))
        out[..., 0, 1] = d * np.cos(TWO_PI * y[..., 1])
        out[..., 1, 0] = g * np.cos(TWO_PI * y[..., 0])
        return out

    part = VectorField(2, ev, jac, zeros(2), sup_bound=(abs(d) + abs(g)) / TWO_PI,
                       div_bound=0.0)

    def hess(y):
        y = as_points(y, 2)
        out = np.zeros(y.shape + (2, 2))
        out[..., 0, 1, 1] = -TWO_PI * d * np.sin(TWO_PI * y[..., 1])
        out[..., 1, 0, 0] = -TWO_PI * g * np.sin(TWO_PI * y[..., 0])
        return out

    # the generic path's diagonal is 0.0 + M, which turns -0.0 into +0.0
    j11 = m11 + 0.0
    det_diag = (m00 + 0.0) * j11

    def drift(y):
        # rot_perp(row 2 of jacobian) / det: the same float operations in the
        # same order, without the (..., 2, 2) Jacobian
        y = as_points(y, 2)
        j01 = d * np.cos(TWO_PI * y[..., 1]) + m01
        j10 = g * np.cos(TWO_PI * y[..., 0]) + m10
        det = det_diag - j01 * j10
        out = np.empty(y.shape)
        np.divide(j11, det, out=out[..., 0])
        np.divide(-j10, det, out=out[..., 1])
        return out

    scale = abs(m00 * m11) + (abs(d) + abs(m01)) * (abs(g) + abs(m10))
    return PeriodicCellMap(2, M, part, hess, drift=drift,
                           proven_drift_box=_sine_drift_box(m11, corner_j10, corner_det, scale))


def deltagamma_cell(delta: float, gamma: float) -> PeriodicCellMap:
    """Sine cell at M = I, streams x1 + (delta/2pi) sin(2pi x2) and
    x2 + (gamma/2pi) sin(2pi x1); its corner rule reads |delta gamma| < 1."""
    return sine_cell(np.eye(2), delta, gamma)


def shear_cell(gamma: float) -> PeriodicCellMap:
    """Volume-preserving cell with streams x1 and x2 + (gamma/2pi) sin(2pi x1)."""
    return sine_cell(np.eye(2), 0.0, gamma)


def periodic_family(cell: PeriodicCellMap, eps: float,
                    label: str = "periodic") -> RectifiedSystem:
    """Rescaled system W(x) = eps * cell(x/eps), drift b(x) = b_cell(x/eps).

    sigma is the cell Jacobian determinant evaluated at x/eps, theta is
    identically one, and the limit map is the affine part x -> M x.  The
    sigma bounds and the drift's ``sup_bound`` come from a 64^N cell scan
    inflated by 5%; the drift's ``proven_box`` is the cell's
    ``proven_drift_box``, since b takes exactly the cell drift's values.
    The system is analytic: its derivatives read the cell's ``hessians``.
    """
    dim = cell.dim
    eps = float(eps)
    if eps <= 0.0:
        raise FieldError("eps must be positive")
    if cell.hessians is None:
        raise InvalidCellError("periodic_family needs the cell's hessians; this cell has none")

    inflation = 1.05
    grid = tensor_grid([np.arange(64) / 64] * dim)
    det_grid = jacobian_det(cell.jacobian(grid))
    if np.any(det_grid <= 0.0):
        bad = grid[int(np.argmin(det_grid))]
        raise InvalidCellError(f"cell determinant is not positive, e.g. at y={bad}")
    lo = float(det_grid.min()) / inflation
    hi = float(det_grid.max()) * inflation

    def generic_drift(y):
        J = cell.jacobian(y)
        return jacobian_flux(J) / jacobian_det(J)[..., None]

    cell_drift = cell.drift or generic_drift

    def w_jac(x):
        return cell.jacobian(as_points(x, dim) / eps)

    def jets(x):
        # one cell jet per batch: y = x/eps, the cell Jacobian J, its
        # Hessians H, s = det(J) and grad s by Jacobi's formula,
        # d_k det(J) = det(J) * tr(J^{-1} dJ/dy_k)
        y = as_points(x, dim) / eps
        J = cell.jacobian(y)
        H = cell.hessians(y)
        s = jacobian_det(J)
        grad_s = s[..., None] * np.einsum("...ji,...ijk->...k", np.linalg.inv(J), H)
        return y, J, H, s, grad_s

    # -- sigma ------------------------------------------------------------
    def sig_ev(x):
        return jacobian_det(w_jac(x))

    def sig_gr(x):
        return jets(x)[4] / eps

    sigma = ScalarField(dim, sig_ev, sig_gr)

    # -- drift ------------------------------------------------------------
    def b_ev(x):
        return cell_drift(as_points(x, dim) / eps)

    def b_jac(x):
        _, J, H, s, grad_s = jets(x)
        du = _cross_jacobian([J[..., k, :] for k in range(1, dim)],
                             [H[..., k, :, :] for k in range(1, dim)])
        return _quotient_jacobian(jacobian_flux(J), du, s, grad_s) / eps

    def b_div(x):
        y, _, _, s, grad_s = jets(x)
        return -np.einsum("...i,...i->...", grad_s, cell_drift(y)) / (s * eps)

    b_grid = cell_drift(grid)
    if cell.drift is not None and b_grid.tobytes() != generic_drift(grid).tobytes():
        raise InvalidCellError("the cell's closed-form drift disagrees with its Jacobian;"
                               " rebuild the cell after changing M")
    box = cell.proven_drift_box
    if box is not None and (np.any(b_grid < box[0]) or np.any(b_grid > box[1])):
        raise InvalidCellError("a sampled drift value lies outside the cell's proven"
                               " drift box; rebuild the cell after changing M")
    b = VectorField(dim, b_ev, b_jac, b_div,
                    sup_bound=float(np.linalg.norm(b_grid, axis=-1).max()) * inflation,
                    proven_box=box)

    # -- the rescaled map ---------------------------------------------------
    def w_ev(x):
        return eps * cell.eval(as_points(x, dim) / eps)

    W = Diffeo(dim, w_ev, w_jac)

    return RectifiedSystem(
        dim=dim, eps=eps, W=W, sigma=sigma, b=b,
        theta=constant_scalar(dim, 1.0), sigma_bounds=(lo, hi),
        limit_W=affine_diffeo(cell.M), limit_theta=constant_scalar(dim, 1.0),
        label=label)
