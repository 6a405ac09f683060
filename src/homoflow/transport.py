"""Exact transport solves along characteristics, and Lp norms on boxes.

The oscillating problem  du/dt - b . grad u = 0,  u(0) = u0  is solved by
composing the initial datum with the forward flow of the drift:
u(t, x) = u0(X(t, x)).  With a compactly supported datum every norm and
pairing lives on a finite box (support radius plus travel distance), so the
truncation to a box is exact rather than an approximation.

Every solver builds its sampler on the one core :func:`_sampler`, which owns
the ``eval_times`` contract and is given only the positions X(t, x) of the
samples to fill: :func:`solve_transport` fills the read samples inside the
drift's finite reach and, for a drift with a closed-form flow, near the
datum's support (see there), and :func:`~homoflow.flow.advect_times` decides
how far each point is integrated.  Sampled bounds only size boxes.

The limit equation comes in two equivalent shapes for positive density:
the plain advective form  du/dt - (xi0/sigma0) . grad u = 0  and the density
form  dv/dt - xi0 . grad(v/sigma0) = 0  for the weighted unknown v = sigma0 u.
The density solver substitutes r = v/sigma0, runs the advective solver and
scales back, keeping every solution exact along characteristics.

Samplers evaluate purely, and quadrature sums reduce in fixed row-major
order, so norms and pairings are bit-reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import Array, VectorField, as_points, constant, tensor_grid
# advect is imported though unused: perfbench and the tests patch
# transport.advect by name
from .flow import IntegratorConfig, advect, advect_times  # noqa: F401
from .homogenize import EffectiveCoefficients, InvalidCoefficientsError


# Relative and absolute slack of the reach radius of pruned samplers; see
# solve_transport for what it covers.
REACH_SLACK = 1e-6
_UNIT_ROUNDOFF = 2.0 ** -53


class TruncationWarning(UserWarning):
    """The requested box may clip the domain of dependence."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, the finite stage for all quadrature."""

    lo: Array
    hi: Array

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        for name, v in (("lo", self.lo), ("hi", self.hi)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"box bound {name} must be finite, got {v!r}")
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ValueError("box needs lo < hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def widths(self) -> Array:
        return self.hi - self.lo

    @classmethod
    def from_radius(cls, center, radius: float) -> "Box":
        c = np.asarray(center, dtype=float)
        return cls(c - radius, c + radius)

    def midpoint_grid(self, m) -> tuple[Array, float]:
        """Tensor midpoint nodes (row-major flattened) and the cell volume."""
        ms = np.broadcast_to(np.asarray(m, dtype=int), (self.dim,))
        axes = [self.lo[k] + (np.arange(ms[k]) + 0.5) * (self.widths[k] / ms[k])
                for k in range(self.dim)]
        return tensor_grid(axes), float(np.prod(self.widths / ms))


def midpoint_times(T: float, n: int) -> Array:
    """Midpoint nodes of [0, T]."""
    return (np.arange(n) + 0.5) * (float(T) / n)


@dataclass(frozen=True)
class InitialDatum:
    """Compactly supported C1 initial profile.

    ``eval`` must return +0.0 (not -0.0) at every point farther than
    ``support_radius`` from ``center``: pruned samplers fill the points that
    cannot reach the support with +0.0 instead of evaluating them.
    """

    dim: int
    eval: Callable[[Array], Array]
    support_radius: float
    center: Array

    def scaled(self, factor: Callable[[Array], Array] | float) -> "InitialDatum":
        """Pointwise rescaling; preserves the support.

        Adding +0.0 turns the -0.0 of a negative factor times +0.0 back into
        +0.0 and leaves every other value's bits alone.
        """
        if not callable(factor):
            factor = constant(self.dim, factor)

        def ev(x):
            return self.eval(x) * factor(x) + 0.0

        return InitialDatum(self.dim, ev, self.support_radius, self.center)


def bump_profile(r2: Array, amplitude: float = 1.0) -> Array:
    """The mollifier amplitude * exp(1 - 1/(1 - r2)) where r2 is below 1,
    and +0.0 elsewhere, whatever the amplitude's sign."""
    z = np.clip(1.0 - r2, 1e-300, None)
    return np.where(r2 < 1.0, amplitude * np.exp(1.0 - 1.0 / z), 0.0)


def bump_datum(dim: int, center, radius: float, amplitude: float = 1.0) -> InitialDatum:
    """Mollifier bump: :func:`bump_profile` of r^2 = |x - center|^2 / radius^2.

    Smooth, compactly supported, peak value ``amplitude`` at the center.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (dim,) or not np.all(np.isfinite(c)):
        raise ValueError(f"center must be a finite vector of shape ({dim},), got {c!r}")
    r0 = float(radius)
    if not 0.0 < r0 < math.inf:
        raise ValueError(f"bump radius must be positive and finite, got {r0!r}")
    a = float(amplitude)

    def ev(x):
        return bump_profile(np.sum(((as_points(x, dim) - c) / r0) ** 2, axis=-1), a)

    return InitialDatum(dim, ev, r0, c)


@dataclass(frozen=True)
class SolutionSampler:
    """Lazy (t, x) evaluator of a transport solution; :func:`_sampler` builds it.

    ``eval_times(ts, x, needed=None)`` evaluates on a fixed point batch at
    a list of times of either sign, in one integration pass per sign, shape
    ``(len(ts),) + x.shape[:-1]``; use it for quadrature grids.  ``needed``,
    a boolean array of that shape, marks the samples the caller reads; the
    others are +0.0.  ``eval`` is ``eval_times`` at one time.  ``drift_sup``
    (when known) bounds the drift's speed; :func:`lp_norm` sizes its
    domain-of-dependence check from it.
    """

    dim: int
    eval_times: Callable[..., Array]
    u0: InitialDatum
    drift_sup: float | None = None

    def eval(self, t: float, x: Array) -> Array:
        return self.eval_times(np.array([float(t)]), x)[0]


def _sampler(u0: InitialDatum, positions: Callable[..., tuple[Array, list]],
             drift_sup: float | None) -> SolutionSampler:
    """The sampler of u(t, x) = u0(X(t, x)), the one place samples are written.

    ``positions(ts, pts, needed)`` gets the (n, N) point batch and the
    (len(ts), n) mask of the samples read, and returns ``(fill, X)``: the
    mask, inside needed, of the samples to fill, and per time k the
    positions X(ts[k], x) of the points fill[k] marks, in batch order (an
    empty X fills nothing).  u0 is evaluated there only; the rest is +0.0.
    """
    def ev_times(ts, x, needed=None):
        ts = np.asarray(ts, dtype=float)
        x = as_points(x, u0.dim)
        pts = x.reshape(-1, u0.dim)
        shape = (len(ts), len(pts))
        needed = (np.ones(shape, dtype=bool) if needed is None
                  else np.asarray(needed, dtype=bool).reshape(shape))
        fill, X = positions(ts, pts, needed)
        out = np.zeros(shape)
        for k, pos in enumerate(X):
            out[k, fill[k]] = u0.eval(pos)
        return out.reshape(ts.shape + x.shape[:-1])

    return SolutionSampler(u0.dim, ev_times, u0, drift_sup)


def _reach(b: VectorField, u0: InitialDatum, cfg: IntegratorConfig,
           times: Array, x: Array) -> Array | None:
    """(len(times), n) mask of the points of the (n, N) batch x that may
    carry a nonzero value at each time, or None when every point has to be
    integrated (see solve_transport)."""
    if b.proven_box is None or len(times) == 0:
        return None
    lo, hi = (np.asarray(v, dtype=float) for v in b.proven_box)
    speed = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    t_max = float(np.max(np.abs(times)))
    slack = REACH_SLACK * (1.0 + t_max * speed)
    steps = t_max / cfg.h + len(times) + 1
    room = (u0.support_radius + slack + float(np.linalg.norm(u0.center))
            + 2.0 * t_max * speed)
    if 8.0 * steps * _UNIT_ROUNDOFF * room > REACH_SLACK:
        return None
    gap = u0.center - x
    live = np.empty((len(times), len(x)), dtype=bool)
    for k, t in enumerate(times):
        near, far = np.minimum(t * lo, t * hi), np.maximum(t * lo, t * hi)
        dist = np.linalg.norm(np.maximum(near - gap, 0.0) + np.maximum(gap - far, 0.0),
                              axis=-1)
        # non-finite points stay live, so their BlowupError is still raised
        live[k] = ~(np.isfinite(dist) & (dist >= u0.support_radius + slack))
    return live


def _near_support(b: VectorField, u0: InitialDatum, times: Array, x: Array,
                  fill: Array) -> Array:
    """fill narrowed to the samples whose exact position b.exact_flow(t, x)
    lies within 2 r0 of u0's center (see solve_transport)."""
    near = np.zeros_like(fill)
    for k, t in enumerate(times):
        rows = np.flatnonzero(fill[k])
        dist = np.linalg.norm(b.exact_flow(t, x[rows]) - u0.center, axis=-1)
        # non-finite positions stay live, so their BlowupError is still raised
        near[k, rows] = ~(np.isfinite(dist) & (dist >= 2.0 * u0.support_radius))
    return near


def solve_transport(b: VectorField, u0: InitialDatum,
                    cfg: IntegratorConfig = IntegratorConfig()) -> SolutionSampler:
    """Characteristics solution u(t, x) = u0(X(t, x)) with X the forward flow of b.

    The minus sign in the equation is what makes the forward flow (not its
    inverse) the right composition: for constant b the profile translates to
    x + t b.  :func:`_sampler` builds the sampler from the positions X(t, x).

    Reach pruning.  When ``b.proven_box`` = B = [lo, hi] is set and the
    Richardson guard is off, a sample at time t integrates a point x only if
    dist(c - x, t B) < r0 + m, with m = REACH_SLACK (1 + T S), T the largest
    requested |t| and S = |max(|lo|, |hi|)| the norm of B's farthest
    corner; every other sample is +0.0, the value u0 has outside its
    support, and the result equals the full integration bit for bit.

    The slack covers rounding.  Each RK4 step adds fl((dt/6)(k1 + 2 k2 +
    2 k3 + k4)), and every computed stage velocity k lies in B, so in exact
    arithmetic the increment is dt times a convex combination of points of
    B; a pass's steps share one sign, so the displacement after the steps
    that sum to t' is in t' B, and by convexity again that holds for every
    intermediate position.  With unit roundoff u = 2^-53: the computed steps
    sum to t' with |t' - t| <= 2 u |t| (one rounding of each span and of
    each span/n), forming an increment adds under 8 u |dt| S, and each
    position update at most u |position| <= u (|x - c| + |c| + |t| S).  Over
    n <= T/h + (number of times) + 1 steps a point starting at x therefore
    ends within 10 u |t| S + 2 n u (|x - c| + |c| + |t| S) of x + t B, for
    negative t too (t B is then the box [t hi, t lo]).  If D = dist(c - x,
    t B) >= r0 + m, then |x - c| <= D + |t| S and the end point is at least
    D (1 - 2 n u) - 10 u |t| S - 2 n u (|c| + 2 |t| S) from c, which grows
    with D; at D = r0 + m it exceeds r0 + REACH_SLACK/2 whenever
    8 n u (r0 + m + |c| + 2 T S) <= REACH_SLACK, which is checked before
    pruning (m's T S part absorbs the 10 u |t| S).  The margin also dwarfs
    the rounding of the distance here and of the datum's own distance test.
    When the check fails or the drift has no proven box, nothing is pruned
    for reach.  With the Richardson guard on, ``advect_times`` integrates
    and compares every point through every time, so no
    :class:`~homoflow.flow.BlowupError` or
    :class:`~homoflow.flow.AccuracyError` is hidden.  Otherwise a point is
    not integrated past the last time it is filled, and a blow-up it would
    meet later is not raised.

    Flow pruning.  When ``b.exact_flow`` is set and the Richardson guard is
    off, a sample is also integrated only if its exact position X(t, x) is
    within 2 r0 of c, or not finite (so its BlowupError is still raised).
    Every other sample is +0.0: the exact solution's value there, and RK4's
    too wherever RK4's position error is below r0.  That margin is measured,
    not proven: on the grids of the pinned example31 sweeps, RK4 and the
    exact flow differ by at most 2.9e-7 where the exact position is within
    2 r0, and the RK4 positions of the pruned samples, where RK4 is
    unresolved (gaps up to 28), come no closer than 1.0 to the support.
    With the guard on, nothing is pruned by the flow.
    """
    if b.dim != u0.dim:
        raise ValueError("drift and initial datum dimensions differ")

    def positions(ts, pts, needed):
        reach = _reach(b, u0, cfg, ts, pts)
        fill = needed if reach is None else reach & needed
        if b.exact_flow is not None and not cfg.richardson_check:
            fill = _near_support(b, u0, ts, pts, fill)
        if not (fill.any() or cfg.richardson_check):
            return fill, []
        return fill, [state.pos for state in advect_times(b, pts, ts, cfg, needed=fill)]

    return _sampler(u0, positions, b.sup_bound)


def lp_norm(sampler: SolutionSampler, t: float, p: float, box: Box,
            resolution: int = 256) -> float:
    """Tensor-midpoint approximation of the Lp(box) norm at time t.

    Exact truncation requires the box to contain the time-t domain of
    dependence.  When the sampler knows ``drift_sup``, a box missing the ball
    of radius r0 + |t| drift_sup around the datum's center (r0 its support
    radius) gets a :class:`TruncationWarning` naming that radius.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie strictly between 1 and infinity")
    if sampler.drift_sup is not None:
        need = sampler.u0.support_radius + abs(float(t)) * sampler.drift_sup
        c = np.asarray(sampler.u0.center, dtype=float)
        if not (np.all(c - need >= box.lo) and np.all(c + need <= box.hi)):
            warnings.warn(
                f"box may clip the solution: need the ball of radius {need:.4g}"
                f" around {sampler.u0.center}", TruncationWarning)
    pts, vol = box.midpoint_grid(resolution)
    vals = sampler.eval(t, pts)
    return float((np.sum(np.abs(vals) ** p) * vol) ** (1.0 / p))


def _constant_drift_sampler(v: Array, datum: InitialDatum) -> SolutionSampler:
    def positions(ts, pts, needed):
        return needed, [pts[row] + t * v for t, row in zip(ts, needed)]

    return _sampler(datum, positions, float(np.linalg.norm(v)))


def solve_homogenized(coeffs: EffectiveCoefficients, datum: InitialDatum,
                      form: str = "advective",
                      cfg: IntegratorConfig = IntegratorConfig()) -> SolutionSampler:
    """Solve the limit equation in either of its two equivalent forms.

    ``form="advective"``: datum is the initial profile, the solution rides the
    forward flow of xi0/sigma0 (closed-form translation when the coefficients
    are constants).  ``form="density"``: datum is the initial weighted density
    v0; internally r = v/sigma0 is advected and the result scaled back, the
    positive-density substitution that makes the two forms equivalent.
    """
    if form not in ("advective", "density"):
        raise ValueError(f"unknown equation form {form!r}")
    if coeffs.dim != datum.dim:
        raise ValueError("coefficient and datum dimensions differ")

    probe = tensor_grid([np.linspace(-2.0, 2.0, 7)] * coeffs.dim)
    if np.any(coeffs.sigma0_at(probe) <= 0.0):
        raise InvalidCoefficientsError("sigma0 must be strictly positive")

    if form == "density":
        r0 = datum.scaled(lambda x: 1.0 / coeffs.sigma0_at(x))
        inner = solve_homogenized(coeffs, r0, "advective", cfg)

        def ev_times(ts, x, needed=None):
            # sigma0 > 0, so +0.0 samples stay +0.0
            return coeffs.sigma0_at(x)[None, ...] * inner.eval_times(ts, x, needed)

        return SolutionSampler(coeffs.dim, ev_times, datum, drift_sup=inner.drift_sup)

    drift = coeffs.drift()
    if not isinstance(drift, VectorField):
        return _constant_drift_sampler(drift, datum)

    return solve_transport(drift, datum, cfg)


def dependence_box(u0: InitialDatum, sup_bound: float, T: float,
                   margin: float = 0.1) -> Box:
    """Box certain to contain the solution's support up to time T."""
    r = u0.support_radius + abs(float(T)) * float(sup_bound) + margin
    return Box.from_radius(u0.center, r)
