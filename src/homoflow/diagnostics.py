"""Empirical convergence diagnostics and the consolidated invariant suite.

Weak convergence of the oscillating solutions is probed against a finite
dictionary of smooth spacetime bumps: for each test function the pairing of
the weighted density sigma_eps * u_eps is compared with the pairing of the
homogenized density, across a decreasing list of eps.  Strong convergence is
probed by the sigma-weighted L2 distance on a box.  Oscillating integrands
need grids that resolve the eps-scale; the quadrature spec carries an
optional ``resolve_scale`` so sweeps refine deterministically.

A sweep takes its systems already solved, as a list of (eps, system,
sampler), so the caller builds and solves each eps once and can hand the
same samplers to the strong pass.  Every limit pairing and every (eps, test
function) pairing is independent work.  :func:`_fork_map` runs such cells on
every usable CPU, each cell with its own single-process arithmetic, and
returns them in canonical order, so output never depends on scheduling.
The invariant suite maps its samples the same way, one contiguous chunk
per usable CPU.  Samplers and fields handed to a sweep or to the invariant
suite must therefore be pure: what a cell changes outside its result is
lost when it ran in a forked worker.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .fields import Array, RectifiedSystem, as_points, rectification_residual
from .flow import IntegratorConfig
from .homogenize import EffectiveCoefficients
from .transport import (Box, InitialDatum, SolutionSampler, bump_profile,
                        midpoint_times, solve_homogenized)

ANALYTIC_TOL = 1e-10
FLOW_TOL = 1e-6


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Smooth bump in a spacetime ball around (t_center, x_center), nonzero
    exactly where ``r2`` is below 1; the pairings' support masks read r2 too."""

    dim: int
    t_center: float
    x_center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "x_center", np.asarray(self.x_center, dtype=float))
        if self.x_center.shape != (self.dim,) or not np.all(np.isfinite(self.x_center)):
            raise ValueError(f"x_center must be a finite vector of shape ({self.dim},)")
        if not math.isfinite(self.t_center):
            raise ValueError(f"t_center must be finite, got {self.t_center!r}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")

    def r2(self, t, x) -> Array:
        """(|x - x_center|^2 + (t - t_center)^2) / radius^2, broadcast over
        t and the points x, as ``eval`` and the pairings round it."""
        space_sq = np.sum((as_points(x, self.dim) - self.x_center) ** 2, axis=-1)
        time_sq = (np.asarray(t, dtype=float) - self.t_center) ** 2
        return (space_sq + time_sq) / self.radius ** 2

    def eval(self, t, x) -> Array:
        """:func:`~homoflow.transport.bump_profile` of ``r2``: peak 1 at
        the center, +0.0 where r2 is not below 1."""
        return bump_profile(self.r2(t, x))

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

    The sampler gets the whole time and node grid and, as ``needed``, the
    (time, node) pairs where ``phi.r2`` is below 1, the same values
    ``phi.eval`` reads.  Elsewhere phi is exactly 0, and unread samples
    enter as +0 where the full grid had u * 0 = +-0, which changes no
    nonzero partial sum; all-zero layers add nothing.  How far each point
    is integrated is the sampler's business.
    """
    box = phi.space_box
    pts, vol = box.midpoint_grid(quad.space_resolution(box.widths))
    ts = midpoint_times(quad.T, quad.n_time)
    dt = quad.T / quad.n_time
    vals = sol.eval_times(ts, pts, needed=phi.r2(ts[:, None], pts) < 1.0)
    w = weight(pts) if weight is not None else None
    total = 0.0
    for t, u in zip(ts, vals):
        layer = u * phi.eval(t, pts)
        if w is not None:
            layer = layer * w
        total += float(np.sum(layer))
    return total * vol * dt


def weak_pairing(system: RectifiedSystem, sol: SolutionSampler,
                 phi: TestFunction, quad: SpacetimeQuad) -> float:
    """Spacetime pairing of the weighted density: integral of sigma * u * phi.

    Exact with support pruning: u is read only where ``phi.r2`` is below 1,
    and the sum equals the full-grid one bit for bit.
    """
    return _pairing(sol, phi, quad, system.sigma.eval)


def density_pairing(sol: SolutionSampler, phi: TestFunction,
                    quad: SpacetimeQuad) -> float:
    """Pairing of a solution that already is a density (no extra weight)."""
    return _pairing(sol, phi, quad, None)


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
# independent cells on every usable CPU
# ---------------------------------------------------------------------------

# true in a forked worker, whose cells then map sequentially
_in_worker = False


def _usable_cpus() -> int:
    """CPUs this process may run on; ``taskset -c 0`` makes it one."""
    return len(os.sched_getaffinity(0))


def _worker(fn: Callable, share: list, write: int) -> None:
    """A forked worker's life: map ``fn`` over ``share``, send the pickled
    results through the pipe end ``write``, and leave by ``os._exit`` (exit
    status 0 only when no cell raised or warned), never returning into the
    caller's stack."""
    global _in_worker
    _in_worker = True
    code = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            values = [fn(x) for x in share]
        if not caught:
            data = memoryview(pickle.dumps(values))
            while data:
                data = data[os.write(write, data):]
            code = 0
    finally:
        os._exit(code)


def _fork_map(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``, in item order, with the items dealt
    round-robin to min(len(items), usable CPUs) workers: this process and
    one forked child per further worker.

    Each cell runs the same single-process arithmetic wherever it runs, and
    results cross the pipe pickled, so they equal the sequential ones bit
    for bit.  If any cell raises or warns, in a child or here, or the system
    refuses a fork or a pipe, the whole list runs again in this process, so
    the caller sees the sequential exception or warning.  Children leave by
    ``os._exit`` and are reaped before this returns or raises; an interrupt
    kills them first.  What a cell changes besides its result is lost in a
    child: ``fn`` must be pure.

    It maps sequentially on one usable CPU, without ``os.fork``, inside a
    worker, or while another thread lives: a fork copies only the calling
    thread, and a lock another thread holds would stay locked in the child.
    """
    items = list(items)
    workers = min(len(items), _usable_cpus())
    if (workers < 2 or _in_worker or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [fn(x) for x in items]
    shares = [range(w, len(items), workers) for w in range(workers)]
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # a child must not write what was buffered
            stream.flush()
    results: list = [None] * len(items)
    pids: list[int] = []
    reads: list[int] = []
    clean = False
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, [items[i] for i in share], write)
            finally:
                os.close(write)
            pids.append(pid)
        with warnings.catch_warnings(record=True) as caught:
            try:
                for i in shares[0]:
                    results[i] = fn(items[i])
                clean = True
            except Exception:  # raised again by the sequential run below
                pass
        clean = clean and not caught
        for share, read in zip(shares[1:], reads):
            if not clean:
                break
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            # only a child that exits 0 has written its whole share
            clean = os.waitpid(pids.pop(0), 0)[1] == 0
            if clean:
                for i, value in zip(share, pickle.loads(data), strict=True):
                    results[i] = value
    except OSError:  # no process or pipe to be had: map here
        clean = False
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results if clean else [fn(x) for x in items]


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


def _fit_rate(eps: Sequence[float], errors: Sequence[float]) -> float:
    # a slope needs two points: one eps has no rate
    if len(eps) < 2:
        return float("nan")
    errs = np.clip(np.asarray(errors, dtype=float), 1e-300, None)
    return float(np.polyfit(np.log(np.asarray(eps)), np.log(errs), 1)[0])


def convergence_sweep(solved: Sequence[tuple[float, RectifiedSystem, SolutionSampler]],
                      coeffs: EffectiveCoefficients, v0: InitialDatum,
                      dictionary: Sequence[TestFunction],
                      quad: SpacetimeQuad,
                      cfg: IntegratorConfig = IntegratorConfig(),
                      label: str = "") -> ConvergenceReport:
    """Weak-pairing errors against the homogenized solution across an eps sweep.

    ``solved`` holds one (eps, system, sampler) per eps, in strictly
    decreasing eps, each sampler solving the transport equation of that
    system's drift.  The homogenized density is solved from ``v0``, the
    caller's weak limit of the initial densities sigma_eps * u_eps(0).
    Pairing grids resolve the smallest eps in the sweep, so the whole table
    shares one quadrature.  The limit and (eps, test function) pairings run
    through :func:`_fork_map`, on every usable CPU, so the samplers must be
    pure.  Convergence failure is data in the report, never an exception.
    """
    eps_list = [float(eps) for eps, _, _ in solved]
    if any(eps_list[i + 1] >= eps_list[i] for i in range(len(eps_list) - 1)):
        raise ValueError("eps values must be strictly decreasing")
    if quad.resolve_scale is None:
        quad = replace(quad, resolve_scale=min(eps_list))

    v = solve_homogenized(coeffs, v0, "density", cfg)
    n = len(dictionary)

    def cell(k: int) -> float:  # the n limit pairings, then eps-major rows
        if k < n:
            return density_pairing(v, dictionary[k], quad)
        _, system, sol = solved[k // n - 1]
        return weak_pairing(system, sol, dictionary[k % n], quad)

    values = _fork_map(cell, range(n * (1 + len(solved))))
    limits = values[:n]
    by_eps = [values[n * i:n * (i + 1)] for i in range(1, 1 + len(solved))]

    entries = []
    for j, limit in enumerate(limits):
        pairings = tuple(row[j] for row in by_eps)
        errors = tuple(abs(p - limit) for p in pairings)
        entries.append(PhiConvergence(j, pairings, limit, errors,
                                      _fit_rate(eps_list, errors)))
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


def _sample_reductions(system: RectifiedSystem, pts: Array,
                       xis: Sequence[Array]) -> Array:
    """The invariant suite's maxima over one batch of samples, of:
    rectification and determinant-identity residuals, lo - sigma,
    sigma - hi, -sigma, -theta, then the weighted-drift divergence in 2D or
    one flux pairing per ``xis`` vector.  A point's values do not depend on
    which points share its batch, so the maxima over any split of a batch
    are its own maxima."""
    res = rectification_residual(system, pts)
    jw = system.W.jacobian(pts)
    det = np.linalg.det(jw)
    sig = system.sigma.eval(pts)
    th = system.theta.eval(pts)
    lo, hi = system.sigma_bounds
    bv = system.b.eval(pts)
    if system.dim == 2:
        div_flux = (np.einsum("...i,...i->...", system.sigma.grad(pts), bv)
                    + sig * np.trace(system.b.jacobian(pts), axis1=-2, axis2=-1))
        pairing = [np.abs(div_flux)]
    else:
        flux = sig[..., None] * bv
        rows = [jw[..., k, :] for k in range(1, system.dim)]
        pairing = []
        for xi in xis:
            mat = np.stack([np.broadcast_to(xi, bv.shape)] + rows, axis=-1)
            lhs = np.einsum("...i,...i->...", flux, np.broadcast_to(xi, bv.shape))
            pairing.append(np.abs(lhs - np.linalg.det(mat)))
    maxima = [np.abs(res), np.abs(det - sig * th), lo - sig, sig - hi, -sig, -th]
    return np.array([np.max(m) for m in maxima + pairing])


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

    The samples split into one contiguous chunk per usable CPU, mapped with
    the sphere batch through :func:`_fork_map`; only each chunk's maxima
    come back, and their max is the whole batch's (NaN included), so the
    report is the same on any number of CPUs.  The system's fields must
    therefore be pure.
    """
    dim = system.dim
    if sample_box is None:
        sample_box = Box.from_radius(np.zeros(dim), 2.0)
    tol = ANALYTIC_TOL if system.analytic else FLOW_TOL
    rng = np.random.default_rng(seed)
    pts = sample_box.lo + rng.random((n_samples, dim)) * sample_box.widths
    xis = [rng.standard_normal(dim) for _ in range(8)] if dim != 2 else []
    chunks = np.array_split(pts, min(n_samples, _usable_cpus()))
    radii = [1.0, 2.0, 4.0, 8.0]
    n_sphere = 64 if dim == 2 else 256

    def cell(k: int):  # the sample chunks, then the spheres
        if k < len(chunks):
            return _sample_reductions(system, chunks[k], xis)
        # one batch for all spheres: W evaluates each point independently
        spheres = np.concatenate([_sphere_points(dim, r, n_sphere, seed) for r in radii])
        norms = np.linalg.norm(system.W.eval(spheres), axis=-1)
        return [float(m) for m in norms.reshape(len(radii), n_sphere).min(axis=1)]

    *parts, mins = _fork_map(cell, range(len(chunks) + 1))
    # a field is positive at every sample exactly when the max of its
    # negative is below 0, a NaN sample included
    rect, det_res, lo_res, hi_res, sig_neg, th_neg, *pairing = (
        float(m) for m in np.max(parts, axis=0))

    checks = [_mk("rectification", rect, tol),
              _mk("determinant-identity", det_res, tol)]

    bound_res = max(lo_res, hi_res, 0.0)
    checks.append(InvariantCheck("sigma-bounds", bound_res, 1e-12,
                                 bound_res <= 1e-12 and sig_neg < 0.0))

    th_res = max(0.0, th_neg)
    checks.append(InvariantCheck("theta-positive", th_res, 0.0, th_neg < 0.0))

    if dim == 2:
        checks.append(_mk("weighted-drift-divergence", pairing[0], tol))
    else:
        checks.append(_mk("flux-determinant-pairing", max(0.0, *pairing), tol * 10.0))

    drops = max((mins[i] - mins[i + 1]) for i in range(len(mins) - 1))
    slope = float(np.polyfit(radii, mins, 1)[0])
    proper_res = max(0.0, drops) + max(0.0, -slope)
    checks.append(InvariantCheck("properness-coercivity", proper_res, 1e-9,
                                 drops <= 1e-9 and slope > 0.0))

    return InvariantReport(system.label, system.eps, tuple(checks))


def _mk(invariant_id: str, residual: float, tol: float) -> InvariantCheck:
    return InvariantCheck(invariant_id, residual, tol, residual < tol)
