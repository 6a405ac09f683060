"""ODE flow maps with simultaneous Jacobian and log-determinant transport.

The integrator is fixed-step classical RK4 on the augmented system

    dX/dt = f(X),   dJ/dt = Df(X) J,   dL/dt = div f(X),

with J(0) = I and L(0) = 0.  J solves the variational equation, so its
columns are the sensitivities of the flow map; L integrates the divergence
along the trajectory, so exp(L) reproduces det(J) up to integrator error.
The two are propagated independently on purpose: their agreement is a
cross-check, not a tautology.

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


class BlowupError(RuntimeError):
    """A trajectory left the finite range; carries the failure time."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t = {time:.6g}")
        self.time = float(time)


class AccuracyError(RuntimeError):
    """Richardson re-run at h/2 disagreed beyond the configured tolerance."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration.

    ``richardson_check`` re-runs every integration with half the step and
    raises :class:`AccuracyError` if positions move by more than
    ``richardson_tol``.
    """

    h: float = 1e-3
    richardson_check: bool = False
    richardson_tol: float = 1e-6

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("step size h must be positive")


@dataclass(frozen=True)
class FlowState:
    """Trajectory state: position, flow-map Jacobian, integrated divergence."""

    t: float
    pos: Array
    jac: Array | None = None
    logdet: Array | None = None


def _rk4_segment(field: VectorField, pos, jac, logdet, t0: float, dt: float,
                 n_steps: int, carry: bool):
    """Advance (pos, jac, logdet) by n_steps steps of size dt."""
    f = field.eval
    if carry:
        df = field.jacobian
        dv = field.divergence
    t = t0
    for _ in range(n_steps):
        k1p = f(pos)
        p2 = pos + 0.5 * dt * k1p
        k2p = f(p2)
        p3 = pos + 0.5 * dt * k2p
        k3p = f(p3)
        p4 = pos + dt * k3p
        k4p = f(p4)
        if carry:
            k1j = df(pos) @ jac
            k1l = dv(pos)
            j2 = jac + 0.5 * dt * k1j
            k2j = df(p2) @ j2
            k2l = dv(p2)
            j3 = jac + 0.5 * dt * k2j
            k3j = df(p3) @ j3
            k3l = dv(p3)
            j4 = jac + dt * k3j
            k4j = df(p4) @ j4
            k4l = dv(p4)
            jac = jac + (dt / 6.0) * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
            logdet = logdet + (dt / 6.0) * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
        pos = pos + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        t += dt
        if not np.all(np.isfinite(pos)):
            raise BlowupError(t)
    return pos, jac, logdet


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


def snapshot_order(times) -> list[int]:
    """Indices of ``times`` in the order :func:`advect_times` reaches them:
    by |t|, ties in input order."""
    return sorted(range(len(times)), key=lambda i: abs(times[i]))


def _snapshots(field: VectorField, x0, times: list[float], h: float,
               carry: bool, horizon: Array | None = None) -> list[FlowState]:
    """One RK4 pass from t = 0 through ``times`` in order of |t|, with a
    snapshot at each; every span between snapshots takes uniform steps of
    at most h that land exactly on its end.  Before the span to the
    snapshot of rank k, the points whose ``horizon`` is below k leave."""
    x0 = as_points(x0, field.dim)
    pos = x0.copy()
    jac = logdet = None
    if carry:
        jac = np.broadcast_to(np.eye(field.dim), x0.shape + (field.dim,)).copy()
        logdet = np.zeros(x0.shape[:-1])
    states: list[FlowState | None] = [None] * len(times)
    t_cur = 0.0
    for rank, idx in enumerate(snapshot_order(times)):
        if horizon is not None and horizon.min(initial=rank) < rank:
            keep = horizon >= rank
            horizon = horizon[keep]
            pos = pos[keep]
            if carry:
                jac, logdet = jac[keep], logdet[keep]
        t_next = times[idx]
        span = t_next - t_cur
        if span != 0.0:
            n = max(1, int(np.ceil(abs(span) / h - 1e-12)))
            pos, jac, logdet = _rk4_segment(field, pos, jac, logdet, t_cur,
                                            span / n, n, carry)
        # np.array keeps a single point's logdet a 0-d array: the RK4
        # update turns it into a numpy scalar
        states[idx] = FlowState(t_next,
                                pos.copy(),
                                None if jac is None else jac.copy(),
                                None if logdet is None else np.array(logdet))
        t_cur = t_next
    return states  # type: ignore[return-value]


def advect_times(field: VectorField, x0, times,
                 cfg: IntegratorConfig = IntegratorConfig(),
                 carry_jacobian: bool = False,
                 horizon: Array | None = None) -> list[FlowState]:
    """States at an increasing (or decreasing) sequence of times from t = 0.

    One continuous integration with snapshots, so the cost is a single pass;
    the Richardson guard (when enabled) re-runs the pass at h/2 and compares
    every snapshot.

    ``horizon`` (for an (n, N) batch, n integers) is, per point, the rank in
    :func:`snapshot_order` of the last snapshot that needs it.  Each point
    is integrated only up to its horizon, and the state of the snapshot of
    rank k holds, in batch order, just the points whose horizon is k or
    later; a point whose horizon is below 0 is not integrated at all.  A
    point's values do not depend on which other points share its batch.
    """
    times = [float(t) for t in times]
    if not times:
        return []
    signs = {np.sign(t) for t in times if t != 0.0}
    if len(signs) > 1:
        raise ValueError("snapshot times must not straddle t = 0")
    if horizon is not None:
        horizon = np.asarray(horizon)
        if np.ndim(x0) != 2 or horizon.shape != np.shape(x0)[:1]:
            raise ValueError("horizon needs an (n, N) batch and n entries")
    states = _snapshots(field, x0, times, cfg.h, carry_jacobian, horizon)
    if cfg.richardson_check:
        fine = _snapshots(field, x0, times, cfg.h / 2.0, False, horizon)
        gap = max(float(np.max(np.abs(f.pos - c.pos), initial=0.0))
                  for f, c in zip(fine, states))
        if gap > cfg.richardson_tol:
            raise AccuracyError(
                f"step-halving moved positions by {gap:.3e} > {cfg.richardson_tol:.3e}")
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
                  lambda x: state(x).jac, det=lambda x: np.exp(state(x).logdet),
                  exact=False)


# ---------------------------------------------------------------------------
# dynamic-flow construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyValidation:
    """Sampled evidence for the dynamic-flow hypotheses.

    ``sup_speed_gap`` is the sampled sup of |a_eps - a| (closeness of the
    oscillating field to its limit, reported only: amplitude-one oscillations
    keep it O(1) at every fixed eps even for convergent constructions);
    ``max_amplitude`` samples |a_eps| + |div a_eps|; ``div_gap_lq`` is the
    sampled L2 distance between the divergences, the one hypothesis the
    construction genuinely leans on.  Weak-* convergence of the derivatives
    is not sampleable and is recorded as unverified.
    """

    sup_speed_gap: float
    worst_speed_point: Array
    max_amplitude: float
    worst_amplitude_point: Array
    div_gap_lq: float
    worst_div_point: Array
    n_samples: int
    unverified: tuple[str, ...] = ("derivative weak-* convergence",)


def validate_flow_family(a_eps: VectorField, limit_a: VectorField,
                         sample_points: Array) -> FamilyValidation:
    pts = as_points(sample_points, a_eps.dim)
    v_eps = a_eps.eval(pts)
    v_lim = limit_a.eval(pts)
    gap = np.linalg.norm(v_eps - v_lim, axis=-1)
    d_eps = a_eps.divergence(pts)
    d_lim = limit_a.divergence(pts)
    amp = np.linalg.norm(v_eps, axis=-1) + np.abs(d_eps)
    dgap = np.abs(d_eps - d_lim)
    lq = float(np.mean(dgap ** 2.0) ** 0.5)
    return FamilyValidation(
        sup_speed_gap=float(gap.max()), worst_speed_point=pts[np.argmax(gap)],
        max_amplitude=float(amp.max()), worst_amplitude_point=pts[np.argmax(amp)],
        div_gap_lq=lq, worst_div_point=pts[np.argmax(dgap)],
        n_samples=int(pts.shape[0]))


def dynamic_flow_family(a_eps: VectorField, limit_a: VectorField, t_star: float,
                        eps: float, cfg: IntegratorConfig = IntegratorConfig(),
                        label: str = "dynamic") -> RectifiedSystem:
    """Rectified system whose straightening map is the time-t_star flow of a_eps.

    The drift is rebuilt from the flow map itself: its component gradients are
    rows of the propagated Jacobian and the density is one, so the drift is
    the rotated second-row gradient in 2D (a cross of rows above 2D) and is
    divergence free by construction.  theta is det of the flow Jacobian,
    evaluated through the Liouville exponential.  Limit data comes from the
    flow of ``limit_a``.

    ``W = flow_map_diffeo(a_eps, t_star, cfg)``, so ``W.jacobian``, ``W.det``,
    ``b.eval`` and ``theta.eval`` read its one memoized carried integration
    (``limit_W`` and ``limit_theta`` that of ``limit_a``), which keeps only
    the last point batch: calling them on the same points integrates once.
    ``W.jacobian`` returns a read-only array.  The sampled hypotheses are not
    checked here; :func:`validate_flow_family` reports them.
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
        label=label)
