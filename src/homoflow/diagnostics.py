"""Empirical convergence diagnostics and the consolidated invariant suite.

Weak convergence of the oscillating solutions is probed against a finite
dictionary of smooth spacetime bumps: for each test function the pairing of
the weighted density sigma_eps * u_eps is compared with the pairing of the
homogenized density, across a decreasing list of eps.  Strong convergence is
probed by the sigma-weighted L2 distance on a box.  Oscillating integrands
need grids that resolve the eps-scale; the quadrature spec carries an
optional ``resolve_scale`` so sweeps refine deterministically.

Every (eps, test function) cell of a sweep is independent work; the runner
executes them sequentially and assembles reports in a canonical order, so
output never depends on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .fields import Array, RectifiedSystem, as_points, rectification_residual
from .flow import IntegratorConfig
from .homogenize import EffectiveCoefficients
from .transport import (Box, InitialDatum, SolutionSampler, midpoint_times,
                        solve_homogenized)

ANALYTIC_TOL = 1e-10
FLOW_TOL = 1e-6


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Smooth bump supported in a spacetime ball around (t_center, x_center)."""

    dim: int
    t_center: float
    x_center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "x_center", np.asarray(self.x_center, dtype=float))
        if self.x_center.shape != (self.dim,):
            raise ValueError(f"center must have shape ({self.dim},)")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")

    def space_sq(self, x) -> Array:
        """Squared spatial distance to the center, as ``eval`` rounds it."""
        return np.sum((as_points(x, self.dim) - self.x_center) ** 2, axis=-1)

    def time_sq(self, t) -> Array:
        """Squared time distance to the center, as ``eval`` rounds it."""
        return (np.asarray(t, dtype=float) - self.t_center) ** 2

    def eval(self, t, x) -> Array:
        r2 = (self.space_sq(x) + self.time_sq(t)) / self.radius ** 2
        z = np.clip(1.0 - r2, 1e-300, None)
        return np.where(r2 < 1.0, np.exp(1.0 - 1.0 / z), 0.0)

    @property
    def space_box(self) -> Box:
        return Box.from_radius(self.x_center, self.radius)


_DICTIONARY_PATTERN = [
    (0.45, (-0.23, 0.32)),
    (0.50, (-0.20, -0.35)),
    (0.70, (-0.10, -0.30)),
    (0.65, (-0.05, 0.30)),
    (0.60, (-0.20, 0.35)),
    (0.30, (-0.10, -0.15)),
    (0.55, (-0.05, 0.15)),
    (0.75, (0.05, 0.10)),
]


def default_dictionary(dim: int, T: float = 1.0, count: int = 5,
                       radius: float = 0.4) -> list[TestFunction]:
    """Bumps with distinct centers tracking the transported support.

    A profile riding du/dt - b . grad u = 0 with drift roughly e1 moves
    toward -e1 (the solution is the datum composed with the forward flow), so
    the centers sit near (t0, -t0 * e1 + offset), inside the domain of
    dependence of a standard unit bump.  Mid-to-late t0 and off-axis offsets
    keep the homogenization gap well above quadrature noise for the shipped
    families.
    """
    if count > len(_DICTIONARY_PATTERN):
        raise ValueError(f"at most {len(_DICTIONARY_PATTERN)} dictionary bumps available")
    out = []
    for frac, off in _DICTIONARY_PATTERN[:count]:
        x = np.zeros(dim)
        x[0] = -frac * T + off[0]
        if dim >= 2:
            x[1] = off[1]
        out.append(TestFunction(dim, frac * T, x, radius))
    return out


# ---------------------------------------------------------------------------
# quadrature spec and pairings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpacetimeQuad:
    """Midpoint quadrature in time and space.

    ``resolve_scale`` (when set) is the smallest oscillation length the
    spatial grids must resolve; each axis then gets at least
    ``nodes_per_period`` nodes per length ``resolve_scale``.  Sweeps set it to
    their smallest eps so all pairings share one deterministic resolution.
    """

    T: float = 1.0
    n_time: int = 64
    m_space: int = 64
    nodes_per_period: float = 8.0
    resolve_scale: float | None = None

    def space_resolution(self, widths) -> np.ndarray:
        widths = np.asarray(widths, dtype=float)
        ms = np.full(widths.shape, self.m_space, dtype=int)
        if self.resolve_scale is not None:
            need = np.ceil(widths * self.nodes_per_period / self.resolve_scale)
            ms = np.maximum(ms, need.astype(int))
        return ms


def _pairing(sol: SolutionSampler, phi: TestFunction, quad: SpacetimeQuad,
             weight: Callable[[Array], Array] | None) -> float:
    """Midpoint spacetime sum of weight * u * phi over phi's support.

    u is sampled only at the (time, node) pairs where phi can be nonzero:
    those where the r2 = (space_sq + time_sq) / radius^2 that ``phi.eval``
    forms, formed here by the same operations, is below 1, so each node is
    advected up to its own last such time.  Elsewhere phi is exactly 0, and
    rounding is monotone, so nodes or times pruned by fl(space_sq)/radius^2
    >= 1 or fl(time_sq)/radius^2 >= 1 alone have r2 >= 1 too.  Pruned
    samples enter as +0 where the full grid had u * 0 = +-0, which changes
    no nonzero partial sum, and all-zero layers add nothing.  The sampler
    must evaluate each point independently of its batch.
    """
    box = phi.space_box
    pts, vol = box.midpoint_grid(quad.space_resolution(box.widths))
    ts = midpoint_times(quad.T, quad.n_time)
    dt = quad.T / quad.n_time
    r2 = phi.radius ** 2
    space_sq = phi.space_sq(pts)
    inside = space_sq / r2 < 1.0
    live = [k for k, t in enumerate(ts) if phi.time_sq(t) / r2 < 1.0]
    if not live or not inside.any():
        return 0.0
    n_adv = live[-1] + 1
    needed = (space_sq[inside][None, :] + phi.time_sq(ts[:n_adv])[:, None]) / r2 < 1.0
    vals = np.zeros((n_adv, len(pts)))
    vals[:, inside] = sol.eval_times(ts[:n_adv], pts[inside], needed=needed)
    w = weight(pts) if weight is not None else None
    total = 0.0
    for k in live:
        layer = vals[k] * phi.eval(ts[k], pts)
        if w is not None:
            layer = layer * w
        total += float(np.sum(layer))
    return total * vol * dt


def weak_pairing(system: RectifiedSystem, sol: SolutionSampler,
                 phi: TestFunction, quad: SpacetimeQuad) -> float:
    """Spacetime pairing of the weighted density: integral of sigma * u * phi.

    Exact with support pruning: u is advected only where phi can be nonzero
    (rounding is monotone, so a node pruned by either coordinate alone has
    r2 >= 1 in ``phi.eval``), and the sum equals the full-grid one bit for bit.
    """
    return _pairing(sol, phi, quad, system.sigma.eval)


def density_pairing(sol: SolutionSampler, phi: TestFunction,
                    quad: SpacetimeQuad) -> float:
    """Pairing of a solution that already is a density (no extra weight)."""
    return _pairing(sol, phi, quad, None)


def test_function_l2(phi: TestFunction, quad: SpacetimeQuad) -> float:
    """Spacetime L2 norm of a dictionary bump, by the same quadrature."""
    box = phi.space_box
    pts, vol = box.midpoint_grid(quad.space_resolution(box.widths))
    ts = midpoint_times(quad.T, quad.n_time)
    dt = quad.T / quad.n_time
    total = sum(float(np.sum(phi.eval(t, pts) ** 2)) for t in ts)
    return math.sqrt(total * vol * dt)


def strong_l2_error(sol_eps: SolutionSampler, sol_limit: SolutionSampler,
                    system: RectifiedSystem, box: Box, t_list: Sequence[float],
                    quad: SpacetimeQuad, resolution=None) -> float:
    """Max over t_list of the sigma-weighted L2(box) distance of the solutions.

    The squared integrand is nonnegative, so aliasing of the eps-scale
    oscillation only misweights it by a few percent; ``resolution`` (defaults
    to the quad's spatial rule) can therefore stay moderate even when pairings
    need eps-resolving grids.
    """
    ts = np.asarray(sorted(float(t) for t in t_list))
    if resolution is None:
        resolution = quad.space_resolution(box.widths)
    pts, vol = box.midpoint_grid(resolution)
    ue = sol_eps.eval_times(ts, pts)
    ul = sol_limit.eval_times(ts, pts)
    sig = system.sigma.eval(pts)
    errs = [math.sqrt(float(np.sum(sig * (ue[k] - ul[k]) ** 2)) * vol)
            for k in range(len(ts))]
    return max(errs)


# ---------------------------------------------------------------------------
# convergence sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiConvergence:
    phi_id: int
    pairings: tuple[float, ...]
    pairing_limit: float
    errors: tuple[float, ...]
    fitted_rate: float


@dataclass(frozen=True)
class ConvergenceReport:
    label: str
    eps_values: tuple[float, ...]
    entries: tuple[PhiConvergence, ...]

    def __post_init__(self):
        eps = self.eps_values
        if any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
            raise ValueError("eps values must be strictly decreasing")
        for e in self.entries:
            if not all(np.isfinite(e.errors)):
                raise ValueError(f"non-finite errors for phi {e.phi_id}")


def _fit_rate(eps: Sequence[float], errors: Sequence[float]) -> float:
    # a slope needs two points: one eps has no rate
    if len(eps) < 2:
        return float("nan")
    errs = np.clip(np.asarray(errors, dtype=float), 1e-300, None)
    return float(np.polyfit(np.log(np.asarray(eps)), np.log(errs), 1)[0])


def convergence_sweep(family_solver: Callable[[float], tuple[RectifiedSystem, SolutionSampler]],
                      coeffs: EffectiveCoefficients, u0: InitialDatum,
                      eps_list: Sequence[float],
                      dictionary: Sequence[TestFunction],
                      quad: SpacetimeQuad,
                      cfg: IntegratorConfig = IntegratorConfig(),
                      label: str = "") -> ConvergenceReport:
    """Weak-pairing errors against the homogenized solution across an eps sweep.

    The homogenized density is solved from v0 = sigma0 * u0 (the weak limit of
    sigma_eps * u0 for fixed data and cell-periodic or vanishing oscillation of
    sigma).  Pairing grids resolve the smallest eps in the sweep, so the whole
    table shares one quadrature.  Convergence failure is data in the report,
    never an exception.
    """
    eps_list = [float(e) for e in eps_list]
    if any(eps_list[i + 1] >= eps_list[i] for i in range(len(eps_list) - 1)):
        raise ValueError("eps_list must be strictly decreasing")
    if quad.resolve_scale is None:
        quad = replace(quad, resolve_scale=min(eps_list))

    v = solve_homogenized(coeffs, u0.scaled(coeffs.sigma0_at), "density", cfg)
    limits = [density_pairing(v, phi, quad) for phi in dictionary]

    all_pairings: list[list[float]] = [[] for _ in dictionary]
    for eps in eps_list:
        system, sol = family_solver(eps)
        for j, phi in enumerate(dictionary):
            all_pairings[j].append(weak_pairing(system, sol, phi, quad))

    entries = []
    for j, phi in enumerate(dictionary):
        errors = [abs(p - limits[j]) for p in all_pairings[j]]
        entries.append(PhiConvergence(j, tuple(all_pairings[j]), limits[j],
                                      tuple(errors), _fit_rate(eps_list, errors)))
    return ConvergenceReport(label, tuple(eps_list), tuple(entries))


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantCheck:
    invariant_id: str
    max_residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class InvariantReport:
    label: str
    eps: float
    checks: tuple[InvariantCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, invariant_id: str) -> InvariantCheck:
        for c in self.checks:
            if c.invariant_id == invariant_id:
                return c
        raise KeyError(invariant_id)


def _sphere_points(dim: int, radius: float, n: int, seed: int) -> Array:
    if dim == 2:
        ang = np.arange(n) * (2.0 * math.pi / n)
        return radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, dim))
    return radius * v / np.linalg.norm(v, axis=-1, keepdims=True)


def invariant_suite(system: RectifiedSystem, sample_box: Box | None = None,
                    n_samples: int = 1000, seed: int = 0) -> InvariantReport:
    """Evaluate every structural identity of a rectified system on samples.

    Reports (never raises): straightening residual jac(W) b - theta e1;
    determinant identity det(jac W) = sigma theta; sigma within its declared
    bounds; positivity of theta; vanishing divergence of the weighted drift
    sigma*b (2D) or the determinant pairing of the flux with random vectors
    (higher dimension); and the coercivity surrogate for uniform properness
    (the min of |W| over growing spheres must increase roughly linearly).
    The identities are held to ANALYTIC_TOL when ``system.analytic``, to
    FLOW_TOL otherwise.
    """
    dim = system.dim
    if sample_box is None:
        sample_box = Box.from_radius(np.zeros(dim), 2.0)
    tol = ANALYTIC_TOL if system.analytic else FLOW_TOL
    rng = np.random.default_rng(seed)
    pts = sample_box.lo + rng.random((n_samples, dim)) * sample_box.widths

    checks = []

    res = rectification_residual(system, pts)
    checks.append(_mk("rectification", float(np.abs(res).max()), tol))

    jw = system.W.jacobian(pts)
    det = np.linalg.det(jw)
    sig = system.sigma.eval(pts)
    th = system.theta.eval(pts)
    checks.append(_mk("determinant-identity", float(np.abs(det - sig * th).max()), tol))

    lo, hi = system.sigma_bounds
    bound_res = max(float(np.max(lo - sig)), float(np.max(sig - hi)), 0.0)
    checks.append(InvariantCheck("sigma-bounds", bound_res, 1e-12,
                                 bound_res <= 1e-12 and bool(np.all(sig > 0.0))))

    th_res = max(0.0, float(np.max(-th)))
    checks.append(InvariantCheck("theta-positive", th_res, 0.0,
                                 bool(np.all(th > 0.0))))

    if dim == 2:
        bv = system.b.eval(pts)
        div_flux = (np.einsum("...i,...i->...", system.sigma.grad(pts), bv)
                    + sig * np.trace(system.b.jacobian(pts), axis1=-2, axis2=-1))
        checks.append(_mk("weighted-drift-divergence", float(np.abs(div_flux).max()), tol))
    else:
        bv = system.b.eval(pts)
        flux = sig[..., None] * bv
        rows = [jw[..., k, :] for k in range(1, dim)]
        worst = 0.0
        for _ in range(8):
            xi = rng.standard_normal(dim)
            mat = np.stack([np.broadcast_to(xi, bv.shape)] + rows, axis=-1)
            lhs = np.einsum("...i,...i->...", flux, np.broadcast_to(xi, bv.shape))
            worst = max(worst, float(np.abs(lhs - np.linalg.det(mat)).max()))
        checks.append(_mk("flux-determinant-pairing", worst, tol * 10.0))

    radii = [1.0, 2.0, 4.0, 8.0]
    n_sphere = 64 if dim == 2 else 256
    # one batch for all spheres: W evaluates each point independently
    spheres = np.concatenate([_sphere_points(dim, r, n_sphere, seed) for r in radii])
    norms = np.linalg.norm(system.W.eval(spheres), axis=-1)
    mins = [float(m) for m in norms.reshape(len(radii), n_sphere).min(axis=1)]
    drops = max((mins[i] - mins[i + 1]) for i in range(len(mins) - 1))
    slope = float(np.polyfit(radii, mins, 1)[0])
    proper_res = max(0.0, drops) + max(0.0, -slope)
    checks.append(InvariantCheck("properness-coercivity", proper_res, 1e-9,
                                 drops <= 1e-9 and slope > 0.0))

    return InvariantReport(system.label, system.eps, tuple(checks))


def _mk(invariant_id: str, residual: float, tol: float) -> InvariantCheck:
    return InvariantCheck(invariant_id, residual, tol, residual < tol)
