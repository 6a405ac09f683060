"""Diagnostics: pairings, convergence reports, and the invariant suite."""

import io
import math
import os
import signal
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import homoflow as hf
from homoflow import diagnostics
from homoflow.diagnostics import (ConvergenceReport, PhiConvergence,
                                  SpacetimeQuad, TestFunction, density_pairing,
                                  weak_pairing)
from homoflow.flow import IntegratorConfig, dynamic_flow_family

from conftest import (deltagamma_system, identity_system, shear_system,
                      shear_velocity, twist_system)

CFG = IntegratorConfig(h=2e-3)


# ---------------------------------------------------------------------------
# test functions and pairings
# ---------------------------------------------------------------------------

def test_bump_vanishes_outside_ball(rng):
    phi = TestFunction(2, 0.5, np.array([0.2, -0.1]), 0.3)
    t = rng.uniform(0, 1, 200)
    x = rng.uniform(-1, 1, (200, 2))
    vals = phi.eval(t, x)
    r2 = (np.sum((x - phi.x_center) ** 2, axis=-1) + (t - 0.5) ** 2) / 0.3 ** 2
    assert np.all(vals[r2 >= 1.0] == 0.0)
    assert np.all(vals[r2 < 0.99] > 0.0)
    assert vals.max() <= 1.0


def test_default_dictionary_layout():
    dico = hf.default_dictionary(2, T=1.0, count=5, radius=0.4)
    assert len(dico) == 5
    centers = {(phi.t_center, tuple(phi.x_center)) for phi in dico}
    assert len(centers) == 5
    for phi in dico:
        assert 0.0 < phi.t_center < 1.0
        # center rides the support transported toward -e1 at unit speed
        assert np.linalg.norm(phi.x_center - np.array([-phi.t_center, 0.0])) < 1.0
    with pytest.raises(ValueError):
        hf.default_dictionary(2, count=20)


def test_test_function_refuses_non_finite_sizes():
    with pytest.raises(ValueError, match="radius"):
        TestFunction(2, 0.5, np.zeros(2), np.nan)
    with pytest.raises(ValueError, match="x_center"):
        TestFunction(2, 0.5, np.array([np.inf, 0.0]), 0.3)
    with pytest.raises(ValueError, match="t_center"):
        TestFunction(2, np.nan, np.zeros(2), 0.3)


def test_pairing_of_zero_solution_is_zero(unit_bump):
    system = identity_system(0.2)
    zero = unit_bump.scaled(0.0)
    sol = hf.solve_transport(system.b, zero, CFG)
    quad = SpacetimeQuad(T=1.0, n_time=16, m_space=24)
    phi = hf.default_dictionary(2)[0]
    assert weak_pairing(system, sol, phi, quad) == 0.0


def test_pairing_matches_translation_oracle(unit_bump):
    # translate the test function instead of the solution and compare
    system = identity_system(0.2)
    sol = hf.solve_transport(system.b, unit_bump, IntegratorConfig(h=0.05))
    quad = SpacetimeQuad(T=1.0, n_time=48, m_space=96)
    phi = TestFunction(2, 0.5, np.array([-0.45, 0.1]), 0.45)
    value = weak_pairing(system, sol, phi, quad)

    ts = hf.midpoint_times(quad.T, quad.n_time)
    box = hf.Box.from_radius(unit_bump.center, unit_bump.support_radius)
    pts, vol = box.midpoint_grid(160)
    dt = quad.T / quad.n_time
    oracle = 0.0
    for t in ts:
        oracle += float(np.sum(unit_bump.eval(pts)
                               * phi.eval(t, pts - t * np.array([1.0, 0.0])))) * vol * dt
    assert abs(value - oracle) < 1e-5


def test_pairing_self_convergence_under_refinement(unit_bump):
    system = identity_system(0.2)
    sol = hf.solve_transport(system.b, unit_bump, IntegratorConfig(h=0.05))
    phi = hf.default_dictionary(2)[1]
    values = [weak_pairing(system, sol, phi,
                           SpacetimeQuad(T=1.0, n_time=32, m_space=m))
              for m in (16, 32, 64)]
    assert abs(values[2] - values[1]) < abs(values[1] - values[0])
    assert abs(values[2] - values[1]) < 1e-5


def test_density_pairing_drops_the_weight(unit_bump):
    system = deltagamma_system(0.2)
    sol = hf.solve_transport(system.b, unit_bump, CFG)
    quad = SpacetimeQuad(T=1.0, n_time=16, m_space=32)
    phi = hf.default_dictionary(2)[0]
    weighted = weak_pairing(system, sol, phi, quad)
    plain = density_pairing(sol, phi, quad)
    assert weighted != plain


def _full_grid_pairing(sol, phi, quad, weight):
    """Unpruned reference: every node of phi's box at every time node."""
    box = phi.space_box
    pts, vol = box.midpoint_grid(quad.space_resolution(box.widths))
    ts = hf.midpoint_times(quad.T, quad.n_time)
    dt = quad.T / quad.n_time
    vals = sol.eval_times(ts, pts)
    w = weight(pts) if weight is not None else None
    total = 0.0
    for k, t in enumerate(ts):
        layer = vals[k] * phi.eval(t, pts)
        if w is not None:
            layer = layer * w
        total += float(np.sum(layer))
    return total * vol * dt


def _recording(sol, calls):
    def eval_times(ts, x, needed=None):
        calls.append((np.array(ts), np.array(x), needed))
        return sol.eval_times(ts, x, needed)
    return replace(sol, eval_times=eval_times)


@pytest.mark.parametrize("amplitude", [1.0, -2.5])
def test_pruned_pairings_equal_full_grid(amplitude):
    # time support [0.05, 0.55] ends well before T = 1
    system = deltagamma_system(0.2)
    u0 = hf.bump_datum(2, [0.0, 0.0], 1.0, amplitude)
    sol = hf.solve_transport(system.b, u0, IntegratorConfig(h=0.01))
    quad = SpacetimeQuad(T=1.0, n_time=16, m_space=24)
    phi = TestFunction(2, 0.3, np.array([-0.3, 0.1]), 0.25)
    calls = []
    weighted = weak_pairing(system, _recording(sol, calls), phi, quad)
    plain = density_pairing(_recording(sol, calls), phi, quad)
    assert weighted == _full_grid_pairing(sol, phi, quad, system.sigma.eval)
    assert plain == _full_grid_pairing(sol, phi, quad, None)
    assert weighted != 0.0 and np.sign(weighted) == np.sign(amplitude)
    # sampled at every time node, on the whole node grid, with a mask that
    # reads only the ball's nodes, never skips a node where phi is nonzero
    # and needs nothing after the support's last time node (the 9th)
    ts_adv, x_adv, needed = calls[0]
    pts, _ = phi.space_box.midpoint_grid(24)
    ts = hf.midpoint_times(quad.T, quad.n_time)
    assert np.array_equal(ts_adv, ts) and np.array_equal(x_adv, pts)
    assert np.count_nonzero(needed.any(axis=0)) < 24 * 24
    assert np.flatnonzero(needed.any(axis=1))[-1] == 8 and not needed[9:].any()
    nonzero = np.array([phi.eval(t, pts) > 0.0 for t in ts])
    assert {tuple(p) for p in pts[nonzero.any(axis=0)]} <= {tuple(p) for p in x_adv}
    assert np.array_equal(calls[1][0], ts) and np.array_equal(calls[1][1], x_adv)
    # needed is phi's own support test, node by node: it covers every
    # nonzero phi value, and each node's last needed time varies
    assert needed.shape == (len(ts_adv), len(x_adv))
    for k, t in enumerate(ts_adv):
        assert np.all(needed[k] == (phi.eval(t, x_adv) > 0.0))
    last = len(ts_adv) - 1 - np.argmax(needed[::-1], axis=0)
    assert len(set(last.tolist())) > 3
    assert np.array_equal(calls[1][2], needed)


@pytest.mark.parametrize("t_center,x_center,radius", [
    (0.3, (-0.3, 0.1), 0.25),
    (0.0, (0.0, 0.0), 0.4),        # half the time support lies before t = 0
    (0.97, (0.11, -0.37), 0.3),    # and after T
    (0.5, (1.0 / 3.0, 0.1), 0.1 + 1e-12),
])
def test_pairing_needs_every_node_where_phi_is_nonzero(unit_bump, t_center,
                                                       x_center, radius):
    # the mask and phi.eval read one r2, so no nonzero phi value is skipped
    # and no node where phi is 0 is sampled
    sol = hf.solve_transport(identity_system(0.2).b, unit_bump, IntegratorConfig(h=0.05))
    quad = SpacetimeQuad(T=1.0, n_time=20, m_space=28)
    phi = TestFunction(2, t_center, np.array(x_center), radius)
    calls = []
    density_pairing(_recording(sol, calls), phi, quad)
    ts_adv, pts, needed = calls[0]
    ts = hf.midpoint_times(quad.T, quad.n_time)
    assert np.array_equal(ts_adv, ts)
    assert needed.any() and not needed.all()
    for k, t in enumerate(ts):
        assert np.array_equal(needed[k], phi.eval(t, pts) != 0.0)


def test_pairing_outside_time_window_never_advects(unit_bump, monkeypatch):
    # the sampler is asked with a mask that needs nothing, so it integrates
    # nothing, and the pairing is +0.0
    system = deltagamma_system(0.2)
    sol = hf.solve_transport(system.b, unit_bump, IntegratorConfig(h=0.01))
    quad = SpacetimeQuad(T=1.0, n_time=16, m_space=24)
    phi = TestFunction(2, 1.5, np.array([-1.0, 0.0]), 0.4)
    assert _full_grid_pairing(sol, phi, quad, system.sigma.eval) == 0.0

    def refuse(*args, **kwargs):
        raise AssertionError("pairing advected outside phi's time support")

    monkeypatch.setattr(hf.transport, "advect_times", refuse)
    calls = []
    for pairing in (weak_pairing(system, _recording(sol, calls), phi, quad),
                    density_pairing(_recording(sol, calls), phi, quad)):
        assert pairing == 0.0 and math.copysign(1.0, pairing) == 1.0
    assert len(calls) == 2 and not any(needed.any() for _, _, needed in calls)


def test_space_resolution_honors_resolve_scale():
    quad = SpacetimeQuad(T=1.0, n_time=16, m_space=32, nodes_per_period=8.0,
                         resolve_scale=0.1)
    ms = quad.space_resolution(np.array([0.8, 0.4]))
    assert list(ms) == [64, 32]


# ---------------------------------------------------------------------------
# convergence reports
# ---------------------------------------------------------------------------

def test_convergence_failure_is_data_not_exception():
    growing = PhiConvergence(0, (1.0, 2.0), 0.0, (1.0, 2.0), -1.0)
    report = ConvergenceReport("x", (0.2, 0.1), (growing,))
    assert report.entries[0].errors == (1.0, 2.0)
    assert report.entries[0].fitted_rate < 0.0


def _solved(make_system, eps_list, u0, cfg):
    """(eps, system, sampler) per eps, as ``cli.run_sweep`` hands them over."""
    out = []
    for eps in eps_list:
        system = make_system(eps)
        out.append((eps, system, hf.solve_transport(system.b, u0, cfg)))
    return out


def test_sweep_identity_family_sits_at_quadrature_floor(unit_bump):
    cfg = IntegratorConfig(h=0.02)
    quad = SpacetimeQuad(T=1.0, n_time=16, m_space=24)
    dico = hf.default_dictionary(2, count=2)
    coeffs = hf.effective_from_cell(hf.identity_cell(2))
    solved = _solved(identity_system, [0.4, 0.2], unit_bump, cfg)
    report = hf.convergence_sweep(solved, coeffs, unit_bump.scaled(coeffs.sigma0_at),
                                  dico, quad, cfg, label="identity")
    assert report.eps_values == (0.4, 0.2)
    for entry in report.entries:
        assert max(entry.errors) < 1e-10  # same grid, same arithmetic path


def test_sweep_shear_family_decreases(unit_bump):
    quad = SpacetimeQuad(T=1.0, n_time=32, m_space=32, nodes_per_period=6.0)
    dico = hf.default_dictionary(2, count=2)
    coeffs = hf.effective_from_cell(hf.shear_cell(0.3))
    solved = _solved(shear_system, [0.2, 0.1], unit_bump, CFG)
    report = hf.convergence_sweep(solved, coeffs, unit_bump.scaled(coeffs.sigma0_at),
                                  dico, quad, cfg=CFG, label="shear")
    for entry in report.entries:
        assert entry.errors[1] < entry.errors[0]
        assert entry.fitted_rate > 0.0


def test_sweep_rejects_unsorted_eps(unit_bump):
    solved = _solved(identity_system, [0.1, 0.2], unit_bump, CFG)
    coeffs = hf.constant_coefficients(2, 1.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="strictly decreasing"):
        hf.convergence_sweep(solved, coeffs, unit_bump.scaled(coeffs.sigma0_at), [],
                             SpacetimeQuad())


# ---------------------------------------------------------------------------
# strong error and the weak/strong ordering
# ---------------------------------------------------------------------------

def test_strong_error_vanishes_for_identical_solutions(unit_bump):
    system = identity_system(0.2)
    sol = hf.solve_transport(system.b, unit_bump, IntegratorConfig(h=0.05))
    box = hf.Box.from_radius([0.0, 0.0], 2.5)
    quad = SpacetimeQuad(T=1.0, n_time=8, m_space=64)
    assert hf.strong_l2_error(sol, sol, system, box, [0.5, 1.0], quad) == 0.0


def test_strong_error_decreases_for_twist_family(unit_bump):
    coeffs = hf.constant_coefficients(2, 1.0, [1.0, 0.0])
    sol_limit = hf.solve_homogenized(coeffs, unit_bump, "advective", CFG)
    box = hf.Box.from_radius([0.0, 0.0], 2.6)
    quad = SpacetimeQuad(T=1.0, n_time=8, m_space=96)
    errs = []
    for eps in (0.2, 0.1):
        system = twist_system(eps)
        sol = hf.solve_transport(system.b, unit_bump, CFG)
        errs.append(hf.strong_l2_error(sol, sol_limit, system, box,
                                       [0.52, 0.93], quad))
    assert errs[1] < errs[0]


def test_weak_error_bounded_by_strong_error(unit_bump):
    # discrete Cauchy-Schwarz: pairing of sigma (u_eps - u) against phi on the
    # same nodes is at most the sigma-weighted L2 distance times |phi|_2 sqrt(c T)
    system = deltagamma_system(0.2)
    sol_eps = hf.solve_transport(system.b, unit_bump, CFG)
    coeffs = hf.effective_from_cell(hf.deltagamma_cell(0.3, 0.3))
    sol_lim = hf.solve_homogenized(coeffs, unit_bump, "advective", CFG)
    quad = SpacetimeQuad(T=1.0, n_time=24, m_space=48)
    phi = hf.default_dictionary(2)[0]
    lhs = abs(weak_pairing(system, sol_eps, phi, quad)
              - weak_pairing(system, sol_lim, phi, quad))
    nodes = hf.midpoint_times(quad.T, quad.n_time)
    strong = hf.strong_l2_error(sol_eps, sol_lim, system, phi.space_box, nodes,
                                quad, resolution=quad.space_resolution(
                                    phi.space_box.widths))
    lo, hi = system.sigma_bounds
    c = max(hi, 1.0 / lo, 1.0)
    # |phi|_2 by the same spacetime midpoint rule
    pts, vol = phi.space_box.midpoint_grid(quad.space_resolution(phi.space_box.widths))
    phi_sq = sum(float(np.sum(phi.eval(t, pts) ** 2)) for t in nodes)
    bound = strong * math.sqrt(phi_sq * vol * quad.T / quad.n_time) * math.sqrt(c * quad.T)
    assert lhs <= bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# independent cells on every usable CPU
# ---------------------------------------------------------------------------

@pytest.fixture
def three_workers(monkeypatch):
    """Three workers whatever the machine has; no child may outlive a test."""
    monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: 3)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tagged(x):
    return x * x, os.getpid()


def test_fork_map_keeps_item_order_with_more_items_than_cpus(three_workers):
    out = diagnostics._fork_map(_tagged, range(10))
    assert [v for v, _ in out] == [x * x for x in range(10)]
    # dealt round-robin: item i ran in worker i % 3, this process first
    pids = [pid for _, pid in out]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert all(pids[i] == pids[i % 3] for i in range(10))


def test_fork_map_is_sequential_where_forking_is_unsafe_or_idle(three_workers,
                                                                 monkeypatch):
    me = os.getpid()
    assert diagnostics._fork_map(_tagged, [4]) == [(16, me)]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert diagnostics._fork_map(_tagged, range(4)) == [(x * x, me) for x in range(4)]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # a child maps its own cells in itself; this process still forks
    nested = diagnostics._fork_map(lambda x: diagnostics._fork_map(_tagged, range(3)),
                                   range(3))
    assert [len({pid for _, pid in row}) for row in nested] == [3, 1, 1]
    monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: 1)
    assert diagnostics._fork_map(_tagged, range(4)) == [(x * x, me) for x in range(4)]


def test_fork_map_maps_here_when_the_system_refuses_a_fork(three_workers, monkeypatch):
    # the first fork succeeds, the second is refused: the first child is
    # reaped and every cell runs in this process
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert diagnostics._fork_map(_tagged, range(6)) == [(x * x, os.getpid()) for x in range(6)]
    assert len(forks) == 2


def test_fork_map_raises_the_sequential_exception(three_workers):
    def cell(x):
        if x in (4, 5):  # both in children
            raise ValueError(f"cell {x}")
        return x

    with pytest.raises(ValueError, match="cell 4"):
        diagnostics._fork_map(cell, range(9))
    # a cell that fails only in a child is run again here, and its value holds
    parent = os.getpid()

    def child_only(x):
        if os.getpid() != parent:
            raise RuntimeError("lost in a child")
        return x

    assert diagnostics._fork_map(child_only, range(9)) == list(range(9))

    def child_dies(x):
        if os.getpid() != parent and x == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    assert diagnostics._fork_map(child_dies, range(9)) == list(range(9))


@pytest.mark.parametrize("warner", [1, 3])  # in a child, in this process
def test_fork_map_surfaces_a_warning_once(three_workers, warner):
    def cell(x):
        if x == warner:
            warnings.warn(f"cell {x} warns", UserWarning)
        return x

    with pytest.warns(UserWarning, match=f"cell {warner} warns") as caught:
        assert diagnostics._fork_map(cell, range(6)) == list(range(6))
    assert len(caught) == 1


def test_fork_map_lets_an_interrupt_through(three_workers):
    parent = os.getpid()

    def cell(x):
        if os.getpid() == parent and x == 3:
            raise KeyboardInterrupt
        if os.getpid() != parent:
            time.sleep(30)  # killed, not waited for
        return x

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        diagnostics._fork_map(cell, range(6))
    assert time.perf_counter() - start < 20


def test_fork_map_writes_nothing_twice(three_workers, capfd, monkeypatch):
    # a buffered stdout whose buffer holds text at the fork
    stdout = io.TextIOWrapper(io.FileIO(os.dup(1), "w"), write_through=False)
    monkeypatch.setattr(sys, "stdout", stdout)
    print("before", end="")

    def cell(x):
        sys.stdout.flush()
        if x == 2:
            raise ValueError("no traceback from a child")
        return x

    assert diagnostics._fork_map(lambda x: (sys.stdout.flush(), x)[1], range(6)) == \
        list(range(6))
    with pytest.raises(ValueError):
        diagnostics._fork_map(cell, range(6))
    print("after")
    stdout.close()
    out, err = capfd.readouterr()
    assert out == "beforeafter\n" and err == ""


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

def test_invariant_suite_identity_machine_zero():
    report = hf.invariant_suite(identity_system(0.2), n_samples=500)
    assert report.all_passed
    for check in report.checks:
        assert check.max_residual < 1e-14


def test_invariant_suite_analytic_families():
    for system in (deltagamma_system(0.2), twist_system(0.2), shear_system(0.2)):
        report = hf.invariant_suite(system, n_samples=1000)
        assert report.all_passed, report
        for name in ("rectification", "determinant-identity",
                     "weighted-drift-divergence"):
            assert report.check(name).max_residual < 1e-10


def test_invariant_suite_dynamic_flow_system():
    field = shear_velocity()
    system = dynamic_flow_family(field, field, 1.0, 0.2,
                                 IntegratorConfig(h=1e-3), label="dynamic")
    report = hf.invariant_suite(system, n_samples=100)
    assert report.all_passed
    for check in report.checks:
        assert check.max_residual < 1e-6


@pytest.mark.parametrize("n_samples", [0, -3])
def test_invariant_suite_refuses_fewer_than_one_sample(n_samples):
    with pytest.raises(ValueError, match="n_samples"):
        hf.invariant_suite(deltagamma_system(0.2), n_samples=n_samples)


def test_invariant_suite_flags_violated_bounds():
    system = deltagamma_system(0.2)
    broken = hf.RectifiedSystem(
        dim=2, eps=system.eps, W=system.W, sigma=system.sigma, b=system.b,
        theta=system.theta, sigma_bounds=(0.999, 1.001),  # too tight for sigma
        limit_W=system.limit_W, limit_theta=system.limit_theta,
        label="broken")
    report = hf.invariant_suite(broken, n_samples=500)
    assert not report.check("sigma-bounds").passed
    assert not report.all_passed


def test_analytic_is_declared_on_the_system():
    # analytic systems get the 1e-10 tolerance, the others 1e-6; the flag is
    # a field of the system, not derived from its members
    field = shear_velocity()
    twist = twist_system(0.2)
    for system, analytic in (
            (twist, True),
            (deltagamma_system(0.2), True),
            (hf.periodic_family(hf.identity_cell(3), 0.2), True),
            (dynamic_flow_family(field, field, 1.0, 0.2, CFG), False),
            # the same members, declared not analytic
            (replace(twist, analytic=False), False)):
        assert system.analytic is analytic, system.label
        report = hf.invariant_suite(system, n_samples=20)
        for check in ("rectification", "determinant-identity"):
            assert report.check(check).tolerance == (1e-10 if analytic else 1e-6)


def test_coercivity_spheres_share_one_batch(monkeypatch):
    # W(x) = x / (1 + |x|^2) is not coercive: the min over the spheres falls
    calls = []

    def ev(x):
        calls.append(x.shape)
        return x / (1.0 + np.sum(x ** 2, axis=-1, keepdims=True))

    base = identity_system(0.2)
    system = replace(base, W=hf.Diffeo(2, ev, base.W.jacobian))
    # ev records its calls, which a forked worker would not hand back
    monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: 1)
    report = hf.invariant_suite(system, n_samples=50)
    assert calls == [(256, 2)]
    radii = [1.0, 2.0, 4.0, 8.0]
    mins = []
    for r in radii:
        ang = np.arange(64) * (2.0 * math.pi / 64)
        sphere = r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        mins.append(float(np.linalg.norm(ev(sphere), axis=-1).min()))
    drops = max(mins[i] - mins[i + 1] for i in range(3))
    slope = float(np.polyfit(radii, mins, 1)[0])
    check = report.check("properness-coercivity")
    assert check.max_residual == max(0.0, drops) + max(0.0, -slope) > 0.0
    assert not check.passed


def test_invariant_suite_is_deterministic():
    r1 = hf.invariant_suite(deltagamma_system(0.2), n_samples=200, seed=7)
    r2 = hf.invariant_suite(deltagamma_system(0.2), n_samples=200, seed=7)
    assert r1 == r2


def test_invariant_suite_three_dimensional_system(rng):
    # trivial 3D cell exercises the flux-determinant pairing branch
    system = hf.periodic_family(hf.identity_cell(3), 0.2, label="identity3")
    report = hf.invariant_suite(system, hf.Box.from_radius(np.zeros(3), 2.0),
                                n_samples=200)
    assert report.all_passed
    assert report.check("flux-determinant-pairing").max_residual < 1e-12


def _report_bits(report):
    return [(c.invariant_id, c.max_residual.hex(), c.tolerance, c.passed)
            for c in report.checks]


def test_invariant_suite_is_the_same_on_any_number_of_workers(monkeypatch):
    field = shear_velocity()
    cases = [(identity_system(0.2), None, 40), (deltagamma_system(0.2), None, 40),
             (twist_system(0.2), None, 40), (shear_system(0.2), None, 40),
             (hf.periodic_family(hf.identity_cell(3), 0.2),
              hf.Box.from_radius(np.zeros(3), 2.0), 40),
             (dynamic_flow_family(field, field, 1.0, 0.2, CFG), None, 20)]
    cases += [(identity_system(0.2), None, n) for n in (1, 2)]
    real = diagnostics._sample_reductions

    def no_empty_chunk(system, pts, xis):
        if len(pts) == 0:  # raised again by the in-process run
            raise AssertionError("an empty chunk of samples")
        return real(system, pts, xis)

    monkeypatch.setattr(diagnostics, "_sample_reductions", no_empty_chunk)
    for system, box, n in cases:
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: workers)
            reports.append(_report_bits(hf.invariant_suite(system, box, n_samples=n,
                                                           seed=5)))
        assert reports[1] == reports[0] and reports[2] == reports[0], (system.label, n)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _at_one_sample(base, name, value):
    """``base`` with field ``name`` set to ``value`` at sample 15 of the
    suite's 30 (seed 0), which lies in the second of three chunks: the first
    forked worker's."""
    box = hf.Box.from_radius(np.zeros(2), 2.0)
    target = (box.lo + np.random.default_rng(0).random((30, 2)) * box.widths)[15]
    field = getattr(base, name)

    def ev(x):
        return np.where(np.all(x == target, axis=-1), value, field.eval(x))

    return replace(base, **{name: hf.ScalarField(2, ev, field.grad)})


def _one_and_three_workers(monkeypatch, system):
    reports = []
    for workers in (1, 3):
        monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would map it all here
            reports.append(hf.invariant_suite(system, n_samples=30))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    one, forked = reports
    assert _report_bits(forked) == _report_bits(one)
    return forked


def test_invariant_suite_reports_a_nan_from_a_worker(monkeypatch):
    system = _at_one_sample(deltagamma_system(0.2), "theta", np.nan)
    report = _one_and_three_workers(monkeypatch, system)
    for name in ("rectification", "determinant-identity"):
        assert math.isnan(report.check(name).max_residual)
        assert not report.check(name).passed
    assert not report.check("theta-positive").passed
    assert not report.all_passed


def test_invariant_suite_fails_a_field_that_is_zero_in_a_worker(monkeypatch):
    # sigma = theta = 0 at one sample leaves both residuals at 0, within
    # bounds starting at 0: only the positivity of each field can fail
    base = deltagamma_system(0.2)
    system = replace(_at_one_sample(_at_one_sample(base, "sigma", 0.0), "theta", 0.0),
                     sigma_bounds=(0.0, base.sigma_bounds[1]))
    report = _one_and_three_workers(monkeypatch, system)
    for name in ("sigma-bounds", "theta-positive"):
        assert report.check(name).max_residual == 0.0
        assert not report.check(name).passed
