"""ODE flow maps with simultaneous Jacobian and log-determinant transport.

The integrator is fixed-step classical RK4 on a state of arrays, position
first: (X,) for plain flows, and for carried ones the augmented system

    dX/dt = f(X),   dJ/dt = Df(X) J,   dL/dt = div f(X),

with J(0) = I and L(0) = 0, whose three rates are three entries of one rate
function.  J solves the variational equation, so its columns are the
sensitivities of the flow map; L integrates the divergence along the
trajectory, so exp(L) reproduces det(J) up to integrator error.  The two are
propagated independently on purpose: their agreement is a cross-check, not
a tautology.  :func:`advect_times` alone decides how far each point is
integrated: from a caller's ``needed`` mask, in the order of its own
snapshots, or through every time under the Richardson guard.

Each integration call is pure; trajectories for distinct starting batches may
run concurrently.  A flow map (:func:`flow_map_diffeo`, which
:func:`dynamic_flow_family` builds on) keeps a single-entry memo of the last
carried integration, keyed by the exact bytes of the point batch, so the
Jacobian, determinant, drift and theta of one batch share one integration.
The arrays of a memoized state are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (Array, Diffeo, FieldError, RectifiedSystem, VectorField,
                     as_points, constant_scalar, fd_scalar_field, fd_vector_field,
                     jacobian_flux, zeros)

# FD step scale for flow-propagated fields (the step at x is
# FLOW_FD_STEP * max(1, |x|)): ten times fields.FD_STEP, because each
# evaluation carries integrator noise that the division by the step amplifies.
FLOW_FD_STEP = 1e-4

# how far step-halving may move a position before the Richardson guard trips
RICHARDSON_TOL = 1e-6


class BlowupError(RuntimeError):
    """A trajectory left the finite range; carries the failure time."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t = {time:.6g}")
        self.time = float(time)


class AccuracyError(RuntimeError):
    """Richardson re-run at h/2 disagreed beyond RICHARDSON_TOL."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration.

    ``richardson_check`` re-runs every integration over its whole batch with
    half the step and raises :class:`AccuracyError` if a position moves by
    more than RICHARDSON_TOL.
    """

    h: float = 1e-3
    richardson_check: bool = False

    def __post_init__(self):
        if not 0.0 < self.h < np.inf:
            raise ValueError(f"step size h must be positive and finite, got {self.h!r}")


@dataclass(frozen=True)
class FlowState:
    """Trajectory state: position, flow-map Jacobian, integrated divergence."""

    t: float
    pos: Array
    jac: Array | None = None
    logdet: Array | None = None


def _rk4_segment(rate, state: tuple, t0: float, dt: float, n_steps: int) -> tuple:
    """Advance the state (a tuple of arrays, position first) by n_steps RK4
    steps of size dt of d state/dt = rate(state)."""
    t = t0
    for _ in range(n_steps):
        k1 = rate(state)
        k2 = rate(tuple(s + 0.5 * dt * k for s, k in zip(state, k1)))
        k3 = rate(tuple(s + 0.5 * dt * k for s, k in zip(state, k2)))
        k4 = rate(tuple(s + dt * k for s, k in zip(state, k3)))
        state = tuple(s + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                      for s, a, b, c, d in zip(state, k1, k2, k3, k4))
        t += dt
        if not np.all(np.isfinite(state[0])):
            raise BlowupError(t)
    return state


def advect(field: VectorField, x0, t_final: float,
           cfg: IntegratorConfig = IntegratorConfig(),
           carry_jacobian: bool = False) -> FlowState:
    """Flow x0 along the field for time t_final (negative time flows backward).

    With ``carry_jacobian`` the returned state also holds the variational
    Jacobian and the Liouville log-determinant.  Uniform steps of size
    t_final/ceil(|t_final|/h) land exactly on t_final.  The one-snapshot
    case of :func:`advect_times`.
    """
    return advect_times(field, x0, [t_final], cfg, carry_jacobian)[0]


def _snapshots(rate, state: tuple, times: list[float], h: float,
               needed: Array | None) -> list[FlowState]:
    """Two RK4 passes from t = 0, one through the negative ``times`` and one
    through the rest, each in order of |t| (ties in input order), with a
    snapshot at each time; every span between snapshots takes uniform steps
    of at most h that land exactly on its end.  Each point leaves a pass
    after its last ``needed`` snapshot in it, and a pass with no point
    left takes no step: its later snapshots are empty."""
    states: list[FlowState | None] = [None] * len(times)
    for back in (True, False):
        order = sorted((i for i, t in enumerate(times) if (t < 0.0) == back),
                       key=lambda i: abs(times[i]))
        cur, t_cur = state, 0.0
        if needed is not None:
            rows = np.arange(needed.shape[1])
            # per point, the rank in ``order`` of its last needed snapshot (-1: none)
            last = np.where(needed[order], np.arange(len(order))[:, None], -1).max(
                axis=0, initial=-1)
        for rank, idx in enumerate(order):
            take = ...
            if needed is not None:
                keep = last >= rank
                if not keep.all():
                    cur, last, rows = tuple(s[keep] for s in cur), last[keep], rows[keep]
                take = needed[idx, rows]
            t_next = times[idx]
            span = t_next - t_cur
            if span != 0.0 and cur[0].size:
                n = max(1, int(np.ceil(abs(span) / h - 1e-12)))
                cur = _rk4_segment(rate, cur, t_cur, span / n, n)
            # np.array copies, and keeps a single point's logdet a 0-d array:
            # the RK4 update turns it into a numpy scalar
            states[idx] = FlowState(t_next, *(np.array(s[take]) for s in cur))
            t_cur = t_next
    return states  # type: ignore[return-value]


def advect_times(field: VectorField, x0, times,
                 cfg: IntegratorConfig = IntegratorConfig(),
                 carry_jacobian: bool = False,
                 needed: Array | None = None) -> list[FlowState]:
    """States at a list of times of either sign from t = 0.

    One continuous integration with snapshots for the negative times and one
    for the rest (see :func:`_snapshots`), so a list of one sign costs a
    single pass; the Richardson guard (when enabled) re-runs the positions
    at h/2 and compares every snapshot.  With ``carry_jacobian`` the state
    carries J and L as further entries of one RK4 system (see the module
    docstring).

    ``needed`` (for an (n, N) batch, a (len(times), n) boolean mask) marks
    the points each time needs.  The state at times[k] then holds, in batch
    order, just the points needed[k] marks, and each point is integrated only
    up to the last time that needs it (in its pass's |t| order); a point no
    time needs is not integrated at all, and times after a pass's last
    needed one cost no step, so a caller may pass its whole time grid.  The
    guard overrides that: it integrates and compares every point through
    every time, then trims the snapshots.  A point's values do not depend on
    which other points share its batch.
    """
    times = [float(t) for t in times]
    if not times:
        return []
    x0 = as_points(x0, field.dim)
    if needed is not None:
        needed = np.asarray(needed, dtype=bool)
        if x0.ndim != 2 or needed.shape != (len(times), len(x0)):
            raise ValueError("needed needs an (n, N) batch and a (len(times), n) mask")

    def rate(s):
        x = s[0]
        if len(s) == 1:
            return (field.eval(x),)
        return field.eval(x), field.jacobian(x) @ s[1], field.divergence(x)

    # the passes never write into a state array, so they may share x0
    state = (x0,)
    if carry_jacobian:
        state += (np.broadcast_to(np.eye(field.dim), x0.shape + (field.dim,)).copy(),
                  np.zeros(x0.shape[:-1]))
    states = _snapshots(rate, state, times, cfg.h, None if cfg.richardson_check else needed)
    if cfg.richardson_check:
        fine = _snapshots(rate, state[:1], times, cfg.h / 2.0, None)
        gap = max(float(np.max(np.abs(f.pos - c.pos), initial=0.0))
                  for f, c in zip(fine, states))
        if gap > RICHARDSON_TOL:
            raise AccuracyError(
                f"step-halving moved positions by {gap:.3e} > {RICHARDSON_TOL:.3e}")
        if needed is not None:
            states = [FlowState(s.t, *(a if a is None else a[k] for a in (s.pos, s.jac, s.logdet)))
                      for s, k in zip(states, needed)]
    return states


def semigroup_defect(field: VectorField, s: float, t: float, x,
                     cfg: IntegratorConfig = IntegratorConfig()) -> Array:
    """|X(s+t, x) - X(s, X(t, x))| under the same integrator."""
    direct = advect(field, x, s + t, cfg).pos
    staged = advect(field, advect(field, x, t, cfg).pos, s, cfg).pos
    return np.linalg.norm(direct - staged, axis=-1)


def flow_map_diffeo(field: VectorField, t: float,
                    cfg: IntegratorConfig = IntegratorConfig()) -> Diffeo:
    """The time-t flow map as a diffeomorphism with propagated Jacobian.

    Its determinant is pinned to exp of the integrated divergence, which for
    fields with bounded |field| + |div field| stays inside fixed positive
    bounds no matter how strongly the field oscillates.

    ``jacobian`` and ``det`` share one carried integration per point batch:
    the map remembers the last batch it integrated, keyed by the exact bytes
    of the batch (shape, dtype, contents), so ``-0.0`` and ``+0.0`` are
    distinct and an input mutated in place misses.  The remembered arrays are
    read-only: a caller's in-place write into the Jacobian raises instead of
    corrupting later hits.  A failed integration (blow-up, or the Richardson
    guard) leaves the previous entry in place.  ``eval`` integrates positions
    only and is not memoized.
    """
    t = float(t)
    memo: tuple | None = None

    def state(x) -> FlowState:
        nonlocal memo
        x = as_points(x, field.dim)
        key = (x.shape, x.dtype.str, x.tobytes())
        # the (key, state) pair is read once and replaced in one assignment,
        # so a concurrent caller never pairs one batch's key with another's state
        entry = memo
        if entry is not None and entry[0] == key:
            return entry[1]
        st = advect(field, x, t, cfg, carry_jacobian=True)
        for arr in (st.pos, st.jac, st.logdet):
            arr.flags.writeable = False
        memo = (key, st)
        return st

    return Diffeo(field.dim, lambda x: advect(field, x, t, cfg).pos,
                  lambda x: state(x).jac, det=lambda x: np.exp(state(x).logdet))


# ---------------------------------------------------------------------------
# dynamic-flow construction
# ---------------------------------------------------------------------------

def dynamic_flow_family(a_eps: VectorField, limit_a: VectorField, t_star: float,
                        eps: float, cfg: IntegratorConfig = IntegratorConfig(),
                        label: str = "dynamic") -> RectifiedSystem:
    """Rectified system whose straightening map is the time-t_star flow of a_eps.

    The drift is rebuilt from the flow map itself: its component gradients are
    rows of the propagated Jacobian and the density is one, so the drift is
    the rotated second-row gradient in 2D (a cross of rows above 2D) and is
    divergence free by construction.  theta is det of the flow Jacobian,
    evaluated through the Liouville exponential.  Limit data comes from the
    flow of ``limit_a``.  These derivatives are differenced: ``analytic=False``.

    ``W = flow_map_diffeo(a_eps, t_star, cfg)``, so ``W.jacobian``, ``W.det``,
    ``b.eval`` and ``theta.eval`` read its one memoized carried integration
    (``limit_W`` and ``limit_theta`` that of ``limit_a``), which keeps only
    the last point batch: calling them on the same points integrates once.
    ``W.jacobian`` returns a read-only array.
    """
    dim = a_eps.dim
    if limit_a.dim != dim:
        raise FieldError(f"dimension mismatch: {dim} vs {limit_a.dim}")
    t_star = float(t_star)
    W = flow_map_diffeo(a_eps, t_star, cfg)
    limit_W = flow_map_diffeo(limit_a, t_star, cfg)

    def b_ev(x):
        return jacobian_flux(W.jacobian(x))

    b = fd_vector_field(dim, b_ev, zeros(dim), FLOW_FD_STEP, div_bound=0.0)

    return RectifiedSystem(
        dim=dim, eps=float(eps), W=W, sigma=constant_scalar(dim, 1.0), b=b,
        theta=fd_scalar_field(dim, W.det, FLOW_FD_STEP), sigma_bounds=(1.0, 1.0),
        limit_W=limit_W, limit_theta=fd_scalar_field(dim, limit_W.det, FLOW_FD_STEP),
        label=label, analytic=False)
