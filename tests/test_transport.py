"""Transport solves along characteristics, Lp norms, and the limit equation."""

import dataclasses
import hashlib

import numpy as np
import pytest

import homoflow as hf
from homoflow import transport
from homoflow.flow import (AccuracyError, BlowupError, IntegratorConfig, advect,
                           advect_times)
from homoflow.transport import TruncationWarning

from conftest import (deltagamma_system, identity_system, shear_velocity,
                      twist_system)

CFG = IntegratorConfig(h=1e-3)


def test_bump_vanishes_outside_support(rng, unit_bump):
    x = rng.uniform(-4, 4, (500, 2))
    vals = unit_bump.eval(x)
    outside = np.linalg.norm(x - unit_bump.center, axis=-1) > unit_bump.support_radius
    assert np.all(vals[outside] == 0.0)
    assert np.all(vals[~outside] >= 0.0)
    assert abs(unit_bump.eval(unit_bump.center.reshape(1, 2))[0] - 1.0) < 1e-15


def test_constant_drift_translates_datum(rng, unit_bump):
    sol = hf.solve_transport(hf.constant_vector(2, [1.0, 0.0]), unit_bump, CFG)
    x = rng.uniform(-2, 2, (100, 2))
    expected = unit_bump.eval(x + 0.7 * np.array([1.0, 0.0]))
    assert np.abs(sol.eval(0.7, x) - expected).max() < 1e-12


def test_zero_drift_freezes_datum(rng, unit_bump):
    sol = hf.solve_transport(hf.constant_vector(2, [0.0, 0.0]), unit_bump, CFG)
    x = rng.uniform(-2, 2, (50, 2))
    for t in (0.3, 1.7):
        assert np.abs(sol.eval(t, x) - unit_bump.eval(x)).max() == 0.0


def test_initial_time_consistency(rng, unit_bump):
    system = deltagamma_system(0.2)
    sol = hf.solve_transport(system.b, unit_bump, CFG)
    x = rng.uniform(-2, 2, (200, 2))
    assert np.abs(sol.eval(0.0, x) - unit_bump.eval(x)).max() < 1e-10


def test_constant_along_characteristics(rng, unit_bump):
    system = deltagamma_system(0.2)
    sol = hf.solve_transport(system.b, unit_bump, CFG)
    y = rng.uniform(-1, 1, (50, 2))
    for t in (0.4, 1.1):
        start = advect(system.b, y, -t, CFG).pos
        assert np.abs(sol.eval(t, start) - unit_bump.eval(y)).max() < 1e-8


def test_eval_times_matches_pointwise(rng, unit_bump):
    system = deltagamma_system(0.2)
    sol = hf.solve_transport(system.b, unit_bump, CFG)
    x = rng.uniform(-1, 1, (30, 2))
    ts = np.array([0.2, 0.5, 0.9])
    grid_vals = sol.eval_times(ts, x)
    for k, t in enumerate(ts):
        assert np.abs(grid_vals[k] - sol.eval(t, x)).max() < 1e-9


# ---------------------------------------------------------------------------
# Lp norms
# ---------------------------------------------------------------------------

def test_lp_norm_translation_invariance(unit_bump):
    # constant velocity: RK4 is exact at any step
    sol = hf.solve_transport(hf.constant_vector(2, [1.0, 0.0]), unit_bump,
                             IntegratorConfig(h=0.05))
    box = hf.Box.from_radius([0.0, 0.0], 3.2)
    n0 = hf.lp_norm(sol, 0.0, 2.0, box, 256)
    n1 = hf.lp_norm(sol, 2.0, 2.0, box, 256)
    assert abs(n1 - n0) < 1e-10
    assert n0 > 0.5


def test_lp_norm_self_refinement(unit_bump):
    sol = hf.solve_transport(hf.constant_vector(2, [1.0, 0.0]), unit_bump,
                             IntegratorConfig(h=0.05))
    box = hf.Box.from_radius([0.0, 0.0], 2.0)
    coarse = hf.lp_norm(sol, 0.5, 2.0, box, 256)
    fine = hf.lp_norm(sol, 0.5, 2.0, box, 1024)
    assert abs(coarse - fine) < 1e-6


def test_lp_norm_preserved_by_volume_preserving_drift(rng, unit_bump):
    system = twist_system(0.1)
    sol = hf.solve_transport(system.b, unit_bump, IntegratorConfig(h=5e-3))
    box = hf.Box.from_radius([0.0, 0.0], 4.5)
    n0 = hf.lp_norm(sol, 0.0, 2.0, box, 256)
    n1 = hf.lp_norm(sol, 1.0, 2.0, box, 256)
    assert abs(n1 - n0) < 1e-4


def test_lp_stability_bound(unit_bump):
    system = deltagamma_system(0.2)
    sol = hf.solve_transport(system.b, unit_bump, IntegratorConfig(h=5e-3))
    box = hf.dependence_box(unit_bump, system.b.sup_bound, 2.0)
    lo, hi = system.sigma_bounds
    c = hi / lo
    for p in (2.0, 4.0):
        n0 = hf.lp_norm(sol, 0.0, p, box, 128)
        for t in (0.5, 1.0, 2.0):
            nt = hf.lp_norm(sol, t, p, box, 128)
            assert nt <= c ** (2.0 / p) * n0 * 1.001


def test_bump_datum_refuses_non_finite_radius_or_center():
    for radius in (np.nan, np.inf):
        with pytest.raises(ValueError, match="radius"):
            hf.bump_datum(2, [0.0, 0.0], radius)
    with pytest.raises(ValueError, match="center"):
        hf.bump_datum(2, [np.nan, 0.0], 0.5)


@pytest.mark.parametrize("amplitude", [1.0, -2.5, 0.0])
def test_bump_profile_is_positive_zero_outside_and_shared(amplitude, rng):
    # one profile serves the datum and the test functions; outside the
    # support it is +0.0 whatever the amplitude's sign
    r2 = np.array([0.0, 0.5, 1.0, 1.5, np.inf, np.nan])
    vals = transport.bump_profile(r2, amplitude)
    assert vals[0] == amplitude and vals[1] == amplitude * np.exp(-1.0)
    assert np.all(vals[2:] == 0.0) and not np.signbit(vals[2:]).any()
    x = rng.uniform(-1.5, 1.5, (300, 2))
    center = np.array([0.3, -0.2])
    datum = hf.bump_datum(2, center, 0.8, amplitude)
    want = transport.bump_profile(np.sum(((x - center) / 0.8) ** 2, axis=-1), amplitude)
    assert datum.eval(x).tobytes() == want.tobytes()
    phi = hf.TestFunction(2, 0.4, center, 0.8)
    assert phi.eval(0.1, x).tobytes() == transport.bump_profile(phi.r2(0.1, x)).tobytes()


def test_box_refuses_non_finite_bounds():
    with pytest.raises(ValueError, match="lo"):
        hf.Box([np.nan, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="hi"):
        hf.Box([0.0, 0.0], [1.0, np.inf])
    with pytest.raises(ValueError, match="lo"):
        hf.Box.from_radius([0.0, 0.0], np.inf)


def test_lp_norm_rejects_endpoint_exponents(unit_bump):
    sol = hf.solve_transport(hf.constant_vector(2, [1.0, 0.0]), unit_bump, CFG)
    box = hf.Box.from_radius([0.0, 0.0], 2.0)
    for p in (1.0, np.inf):
        with pytest.raises(ValueError):
            hf.lp_norm(sol, 0.5, p, box, 32)


def test_lp_norm_warns_when_box_clips_dependence_domain(unit_bump):
    sol = hf.solve_transport(hf.constant_vector(2, [1.0, 0.0]), unit_bump, CFG)
    small = hf.Box.from_radius([0.0, 0.0], 1.2)
    with pytest.warns(TruncationWarning):
        hf.lp_norm(sol, 1.0, 2.0, small, 32)


# ---------------------------------------------------------------------------
# homogenized solves
# ---------------------------------------------------------------------------

def test_constant_coefficients_short_circuit(rng, unit_bump):
    coeffs = hf.constant_coefficients(2, 1.0, [1.0, 0.0])
    sol = hf.solve_homogenized(coeffs, unit_bump, "advective", CFG)
    x = rng.uniform(-2, 2, (100, 2))
    expected = unit_bump.eval(x + 1.3 * np.array([1.0, 0.0]))
    assert np.abs(sol.eval(1.3, x) - expected).max() == 0.0


def test_density_form_with_constant_sigma(rng, unit_bump):
    coeffs = hf.constant_coefficients(2, 2.0, [1.0, 0.0])
    v0 = unit_bump.scaled(2.0)
    v = hf.solve_homogenized(coeffs, v0, "density", CFG)
    x = rng.uniform(-2, 2, (100, 2))
    expected = 2.0 * unit_bump.eval(x + 0.45 * np.array([1.0, 0.0]))
    assert np.abs(v.eval(0.9, x) - expected).max() < 1e-14


def test_density_and_advective_forms_agree(rng, unit_bump):
    coeffs = hf.constant_coefficients(2, 2.0, [1.0, 0.5])
    v0 = unit_bump.scaled(2.0)
    v = hf.solve_homogenized(coeffs, v0, "density", CFG)
    u = hf.solve_homogenized(coeffs, unit_bump, "advective", CFG)
    x = rng.uniform(-2, 2, (200, 2))
    for t in rng.uniform(0.0, 2.0, 5):
        assert np.abs(v.eval(t, x) - 2.0 * u.eval(t, x)).max() < 1e-12


def test_field_coefficients_match_hand_integrated_characteristics(rng, unit_bump):
    # limit drift of the shear flow construction: xi0(x) = (1, -cos x1)
    field = shear_velocity()
    from homoflow.flow import flow_map_diffeo
    # nested integration: keep the outer characteristics step coarse, the
    # limit drift (1, -cos x1) is smooth and non-oscillatory
    coeffs = hf.effective_from_limit_map(flow_map_diffeo(field, 1.0,
                                                         IntegratorConfig(h=2e-3)), 1.0)
    sol = hf.solve_homogenized(coeffs, unit_bump, "advective",
                               IntegratorConfig(h=0.05))
    x = rng.uniform(-1.5, 1.5, (20, 2))
    t = 0.8
    z1 = x[:, 0] + t
    z2 = x[:, 1] - (np.sin(x[:, 0] + t) - np.sin(x[:, 0]))
    expected = unit_bump.eval(np.stack([z1, z2], axis=-1))
    assert np.abs(sol.eval(t, x) - expected).max() < 1e-6


def test_homogenized_rejects_vanishing_density(unit_bump):
    with pytest.raises(hf.InvalidCoefficientsError):
        hf.constant_coefficients(2, -1.0, [1.0, 0.0])
    sig = hf.ScalarField(2, lambda x: x[..., 0],
                         lambda x: np.stack([np.ones(x.shape[:-1]),
                                             np.zeros(x.shape[:-1])], axis=-1))
    coeffs = hf.EffectiveCoefficients(2, sig, np.array([1.0, 0.0]), "cofactor-limit")
    with pytest.raises(hf.InvalidCoefficientsError):
        hf.solve_homogenized(coeffs, unit_bump, "advective", CFG)


def test_homogenized_unknown_form_rejected(unit_bump):
    coeffs = hf.constant_coefficients(2, 1.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        hf.solve_homogenized(coeffs, unit_bump, "weak", CFG)


def test_exact_realignment_of_cell_drift_at_cell_multiples(rng, unit_bump):
    # the deltagamma characteristics cross each cell in time exactly eps, so
    # at integer multiples of eps they coincide with the translated limit flow
    eps = 0.1
    system = deltagamma_system(eps)
    x = rng.uniform(-1.5, 1.5, (100, 2))
    pos = advect(system.b, x, 10 * eps, CFG).pos
    assert np.abs(pos - (x + np.array([1.0, 0.0]))).max() < 1e-7


# ---------------------------------------------------------------------------
# reach pruning: drifts with a proven box integrate each point only while u0
# can reach it; drifts with a closed-form flow only the samples it carries
# near the support
# ---------------------------------------------------------------------------

def _unproven(b):
    return dataclasses.replace(b, proven_box=None, exact_flow=None)


def _counting_advect(monkeypatch):
    """Record the number of points each integration of the samplers gets."""
    seen = []
    real_times, real_one = transport.advect_times, transport.advect

    def advect_times(field, x0, times, cfg, needed=None):
        seen.append(np.asarray(x0).size // 2)
        return real_times(field, x0, times, cfg, needed=needed)

    def advect_one(field, x0, t, cfg):
        seen.append(np.asarray(x0).size // 2)
        return real_one(field, x0, t, cfg)

    monkeypatch.setattr(transport, "advect_times", advect_times)
    monkeypatch.setattr(transport, "advect", advect_one)
    return seen


def _box_dist(b, u0, t, pts):
    """dist(c - x, t [lo, hi]) per point."""
    lo, hi = b.proven_box
    near, far = np.minimum(t * lo, t * hi), np.maximum(t * lo, t * hi)
    gap = u0.center - pts
    return np.linalg.norm(np.maximum(near - gap, 0.0) + np.maximum(gap - far, 0.0),
                          axis=-1)


@pytest.mark.parametrize("system", [identity_system(0.2), deltagamma_system(0.1)],
                         ids=["identity", "deltagamma"])
@pytest.mark.parametrize("times", [[0.93], [0.3, 0.93], [-1.0, -0.4]])
def test_reach_pruning_is_bit_exact(system, times, monkeypatch):
    u0 = hf.bump_datum(2, [0.3, -0.2], 1.0)
    cfg = IntegratorConfig(h=0.01)
    pruned = hf.solve_transport(system.b, u0, cfg)
    full = hf.solve_transport(_unproven(system.b), u0, cfg)
    lo, hi = system.b.proven_box
    speed = np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)))
    t_max = max(abs(t) for t in times)
    disc = 1.0 + t_max * speed
    # a grid straddling the old disc reach, dense near it
    pts, _ = hf.Box.from_radius(u0.center, disc + 0.4).midpoint_grid(96)
    dist = np.linalg.norm(pts - u0.center, axis=-1)
    slack = 1e-6 * (1.0 + t_max * speed)
    live = np.array([_box_dist(system.b, u0, t, pts) < 1.0 + slack for t in times])

    batches = []

    def counting_eval(x, ev=system.b.eval):
        batches.append(len(x))
        return ev(x)

    counted = hf.solve_transport(dataclasses.replace(system.b, eval=counting_eval), u0, cfg)
    seen = _counting_advect(monkeypatch)
    got = counted.eval_times(times, pts)
    # the sampler hands over the whole grid; the flow's first drift batch,
    # after the snapshot at t = 0 when there is one, holds the points it
    # integrates, and the box reach keeps fewer than the disc of radius
    # r0 + |t| S
    assert seen == [len(pts)]
    integrated = int(np.sum(live[np.asarray(times) != 0.0].any(axis=0)))
    assert batches[0] == integrated
    assert integrated < int(np.sum(dist < disc * (1 + 1e-6) + 1e-6))
    assert got.tobytes() == full.eval_times(times, pts).tobytes()
    assert np.all(got[~live] == 0.0)
    for t in times:
        assert pruned.eval(t, pts).tobytes() == full.eval(t, pts).tobytes()
    # single points (inside and outside the reach) and (a, b, 2) batches
    for i in (0, int(np.argmin(np.abs(dist - 0.5 * disc)))):
        assert pruned.eval(times[-1], pts[i]).tobytes() == \
            full.eval(times[-1], pts[i]).tobytes()
    block = pts.reshape(48, 192, 2)
    assert pruned.eval_times(times, block).tobytes() == \
        full.eval_times(times, block).tobytes()
    if system.label == "identity":
        # b = e1 makes the box reach tight: nodes within 3% of its edge carry
        # nonzero values, so a shrunken reach would be caught above
        k = int(np.argmax(np.abs(times)))
        edge = _box_dist(system.b, u0, times[k], pts)
        assert np.any((got[k] != 0.0) & (edge > 0.97))


_TIME_LISTS = [[0.2, 0.5, 0.93], [-0.9, -0.3, -0.05], [0.6, 0.0, 0.25, 0.9, 0.4],
               [0.4, -0.3, 0.0, 0.9, -0.75]]


def _proven_and_unproven(system):
    return lambda u0, cfg: (hf.solve_transport(system.b, u0, cfg),
                            hf.solve_transport(_unproven(system.b), u0, cfg))


def _constant_limit(form):
    # the limit sampler prunes by needed only: it is its own reference
    coeffs = hf.constant_coefficients(2, 1.3, [1.0, 0.4])
    return lambda u0, cfg: (hf.solve_homogenized(coeffs, u0, form, cfg),) * 2


@pytest.mark.parametrize("times", _TIME_LISTS,
                         ids=["increasing", "negative", "unsorted", "mixed"])
@pytest.mark.parametrize("samplers", [
    _proven_and_unproven(identity_system(0.2)),
    _proven_and_unproven(deltagamma_system(0.1)),
    _proven_and_unproven(twist_system(0.1)),
    _constant_limit("advective"), _constant_limit("density")],
    ids=["identity", "deltagamma", "twist", "limit-advective", "limit-density"])
def test_box_reach_and_horizons_equal_unpruned(samplers, times):
    # the sampler with a proven box and a random needed mask against the one
    # with neither: equal bits where needed, +0.0 elsewhere
    u0 = hf.bump_datum(2, [0.3, -0.2], 1.0)
    pruned, full = samplers(u0, IntegratorConfig(h=0.01))
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.5, 2.5, (600, 2))
    ref = full.eval_times(times, pts)
    assert np.count_nonzero(ref) > 100
    assert pruned.eval_times(times, pts).tobytes() == ref.tobytes()
    for density in (0.1, 0.5, 0.9):
        needed = rng.random((len(times), len(pts))) < density
        got = pruned.eval_times(times, pts, needed=needed)
        assert got.tobytes() == np.where(needed, ref, 0.0).tobytes()
    # (a, b, 2) blocks with a block mask, and single points
    block = pts.reshape(20, 30, 2)
    needed = rng.random((len(times), 20, 30)) < 0.5
    got = pruned.eval_times(times, block, needed=needed)
    assert got.tobytes() == np.where(needed, ref.reshape(-1, 20, 30), 0.0).tobytes()
    for i in (0, 17, int(np.argmax(ref.sum(axis=0)))):
        assert pruned.eval_times(times, pts[i]).tobytes() == ref[:, i].tobytes()
        mask = np.arange(len(times)) % 2 == 0
        assert pruned.eval_times(times, pts[i], needed=mask).tobytes() == \
            np.where(mask, ref[:, i], 0.0).tobytes()


def test_needed_mask_drops_points_after_their_last_snapshot():
    # unsorted times: the state at times[k] holds, in batch order, the points
    # needed[k] marks; each point is integrated up to its last needed time in
    # |t| order, and a point no time needs is not integrated at all
    field = deltagamma_system(0.1).b
    x = np.random.default_rng(2).uniform(-1.0, 1.0, (7, 2))
    times = [0.5, 0.1, -0.0, 0.3]
    needed = np.array([[1, 0, 0, 0, 0, 1, 0],
                       [0, 0, 0, 1, 1, 0, 0],
                       [1, 0, 1, 0, 0, 0, 1],
                       [0, 0, 0, 1, 0, 1, 0]], dtype=bool)
    cfg = IntegratorConfig(h=0.01)
    full = advect_times(field, x, times, cfg, carry_jacobian=True)
    evaluated = []
    counted = dataclasses.replace(
        field, eval=lambda p: evaluated.append(len(p)) or field.eval(p))
    for carry in (False, True):
        evaluated.clear()
        states = advect_times(counted, x, times, cfg, carry, needed=needed)
        for k, state in enumerate(states):
            rows = np.flatnonzero(needed[k])
            assert state.t == times[k]
            assert state.pos.tobytes() == full[k].pos[rows].tobytes()
            if carry:
                # the carried entries are trimmed with the position
                assert state.jac.tobytes() == full[k].jac[rows].tobytes()
                assert state.logdet.tobytes() == full[k].logdet[rows].tobytes()
            else:
                assert state.jac is None and state.logdet is None
        # |t| order -0.0, 0.1, 0.3, 0.5 (0, 10, 20, 20 steps of 4 stages):
        # points 0, 3, 4, 5 run to 0.1, then 0, 3, 5 to 0.3, then 0, 5 to 0.5
        assert sum(evaluated) == 4 * (10 * 4 + 20 * 3 + 20 * 2)
    evaluated.clear()
    none = advect_times(counted, x, times, cfg, True, needed=np.zeros((4, 7), bool))
    assert [s.pos.shape for s in none] == [(0, 2)] * 4
    assert [s.jac.shape for s in none] == [(0, 2, 2)] * 4
    assert sum(evaluated) == 0
    for bad_x, bad in ((x[0], needed[:, :1]), (x, needed[:3]), (x, needed.T)):
        with pytest.raises(ValueError, match="needed"):
            advect_times(field, bad_x, times, cfg, needed=bad)


def test_needed_mask_of_the_limit_samplers():
    # the datum is evaluated on the samples needed marks, and only there
    bump = hf.bump_datum(2, [0.3, -0.2], 1.0)
    evaluated = []
    u0 = dataclasses.replace(bump, eval=lambda x: evaluated.append(len(x)) or bump.eval(x))
    pts = np.random.default_rng(4).uniform(-2.0, 2.0, (200, 2))
    times = [0.1, 0.45, 0.8]
    needed = np.random.default_rng(5).random((3, 200)) < 0.5
    for kind in ("constant-limit", "density-float-sigma0", "density-field-sigma0"):
        sol = _SAMPLER_KINDS[kind](u0)
        ref = sol.eval_times(times, pts)
        evaluated.clear()
        assert sol.eval_times(times, pts, needed=needed).tobytes() == \
            np.where(needed, ref, 0.0).tobytes()
        assert sum(evaluated) == np.count_nonzero(needed)


def test_scaled_datum_keeps_positive_zero_outside_support():
    # pruned samplers fill +0.0; a negative factor must not leave -0.0 there
    u0 = hf.bump_datum(2, [0.0, 0.0], 0.5)
    far = np.array([[2.0, 0.0], [0.0, -3.0]])
    for factor in (-2.0, lambda x: -1.0 - x[..., 0] ** 2):
        assert u0.scaled(factor).eval(far).tobytes() == np.zeros(2).tobytes()
    system = deltagamma_system(0.1)
    v0 = u0.scaled(-2.0)
    pts, _ = hf.Box.from_radius(u0.center, 2.0).midpoint_grid(32)
    pruned = hf.solve_transport(system.b, v0, IntegratorConfig(h=0.01))
    full = hf.solve_transport(_unproven(system.b), v0, IntegratorConfig(h=0.01))
    assert pruned.eval_times([0.4, 0.8], pts).tobytes() == \
        full.eval_times([0.4, 0.8], pts).tobytes()


def test_reach_guard_turns_pruning_off_far_from_the_origin():
    # a datum centred 2e6 from the origin: 8 n u (r0 + m + |c| + 2 T S) is
    # about 2e-6 > REACH_SLACK for 1,000 steps, so no point is pruned
    system = deltagamma_system(0.1)
    u0 = hf.bump_datum(2, [2e6, 0.0], 0.5)
    cfg = IntegratorConfig(h=1e-3)
    times = np.array([0.5, 1.0])
    pts = u0.center + np.array([[0.0, 0.0], [-0.7, 0.1], [0.3, -0.2], [-3.0, 0.0]])
    assert transport._reach(system.b, u0, cfg, times, pts) is None
    pruned = hf.solve_transport(system.b, u0, cfg)
    full = hf.solve_transport(_unproven(system.b), u0, cfg)
    got = pruned.eval_times(times, pts)
    assert np.count_nonzero(got) > 0
    assert got.tobytes() == full.eval_times(times, pts).tobytes()


def test_reach_pruning_skips_a_batch_out_of_reach(monkeypatch):
    system = deltagamma_system(0.1)
    u0 = hf.bump_datum(2, [0.0, 0.0], 0.5)
    sol = hf.solve_transport(system.b, u0, IntegratorConfig(h=0.01))
    seen = _counting_advect(monkeypatch)
    far = np.array([[3.0, 0.0], [0.0, -2.5]])
    assert sol.eval_times([0.5, 1.0], far).tobytes() == np.zeros((2, 2)).tobytes()
    assert sol.eval(1.0, far[0]).tobytes() == np.zeros(()).tobytes()
    assert seen == []


def test_richardson_guard_still_compares_points_out_of_reach(monkeypatch):
    # the guard trips on a coarse step; every point is far outside the reach
    # (the box reach of deltagamma; for the twist, exact positions at least
    # 2.5 from the center, beyond the flow reach 2 r0 = 1), so a pruned
    # sampler would have nothing left to compare
    u0 = hf.bump_datum(2, [0.0, 0.0], 0.5)
    cfg = IntegratorConfig(h=0.5, richardson_check=True)
    seen = _counting_advect(monkeypatch)
    for system, far in ((deltagamma_system(0.05), np.array([[6.0, 0.0], [0.0, 7.0]])),
                        (twist_system(0.05), np.array([[2.0, 0.0], [0.0, 2.5]]))):
        sol = hf.solve_transport(system.b, u0, cfg)
        with pytest.raises(AccuracyError):
            sol.eval(1.0, far)
        with pytest.raises(AccuracyError):
            sol.eval_times([0.5, 1.0], far)
        # a needed mask that marks none of them does not exempt them either
        with pytest.raises(AccuracyError):
            sol.eval_times([0.5, 1.0], far, needed=np.zeros((2, 2), dtype=bool))
        # without the guard neither point is integrated
        seen.clear()
        unguarded = hf.solve_transport(system.b, u0, IntegratorConfig(h=0.5))
        assert unguarded.eval_times([0.5, 1.0], far).tobytes() == np.zeros((2, 2)).tobytes()
        assert seen == []


def test_needed_mask_with_the_richardson_guard():
    # with the guard on and a proven box, needed samples are the full
    # integration's bits and the others +0.0; step-halving moves these
    # points by 8e-9 at h = 0.002, below RICHARDSON_TOL
    system = deltagamma_system(0.1)
    u0 = hf.bump_datum(2, [0.3, -0.2], 1.0)
    cfg = IntegratorConfig(h=0.002, richardson_check=True)
    times = [0.6, 0.0, 0.25, 0.9]
    rng = np.random.default_rng(12)
    pts = rng.uniform(-2.5, 2.5, (400, 2))
    full = hf.solve_transport(_unproven(system.b), u0, IntegratorConfig(h=0.002))
    ref = full.eval_times(times, pts)
    assert np.count_nonzero(ref) > 50
    sol = hf.solve_transport(system.b, u0, cfg)
    assert sol.eval_times(times, pts).tobytes() == ref.tobytes()
    for density in (0.0, 0.3, 0.8):
        needed = rng.random((len(times), len(pts))) < density
        assert sol.eval_times(times, pts, needed=needed).tobytes() == \
            np.where(needed, ref, 0.0).tobytes()
    # the guard prunes nothing by a closed-form flow: the twist drift's
    # sampler evaluates the datum at every needed sample, near the support
    # or not, and gives the unguarded unpruned bits
    twist = twist_system(0.1).b
    evaluated = []
    counted = dataclasses.replace(u0, eval=lambda x: evaluated.append(len(x)) or u0.eval(x))
    ref = hf.solve_transport(_unproven(twist), u0, IntegratorConfig(h=0.002)).eval_times(
        times, pts)
    unguarded = hf.solve_transport(twist, counted, IntegratorConfig(h=0.002))
    assert unguarded.eval_times(times, pts).tobytes() == ref.tobytes()
    assert 0 < sum(evaluated) < 0.5 * ref.size
    sol = hf.solve_transport(twist, counted, cfg)
    for needed in (None, rng.random((len(times), len(pts))) < 0.5):
        evaluated.clear()
        got = sol.eval_times(times, pts, needed=needed)
        mask = np.ones(ref.shape, dtype=bool) if needed is None else needed
        assert got.tobytes() == np.where(mask, ref, 0.0).tobytes()
        assert sum(evaluated) == np.count_nonzero(mask)


def test_sampled_bound_never_prunes():
    # sup_bound is a sampled estimate (wrong here); only proven_box prunes
    def ev(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([x[..., 0] ** 2, np.zeros(x.shape[:-1])], axis=-1)

    field = hf.VectorField(2, ev, lambda x: np.zeros(x.shape + (2,)),
                           lambda x: 2 * x[..., 0], sup_bound=1.0)
    sol = hf.solve_transport(field, hf.bump_datum(2, [0.0, 0.0], 0.5), CFG)
    far = np.array([[0.1, 0.0], [400.0, 0.0]])
    with pytest.raises(BlowupError):
        sol.eval(1.0, far)


def test_non_finite_points_are_integrated():
    # neither the box reach (deltagamma) nor the flow reach (twist) prunes a
    # point whose distance is not finite
    for system in (deltagamma_system(0.1), twist_system(0.1)):
        sol = hf.solve_transport(system.b, hf.bump_datum(2, [0.0, 0.0], 0.5), CFG)
        with pytest.raises(BlowupError), np.errstate(invalid="ignore", over="ignore"):
            sol.eval(0.1, np.array([[0.0, 0.0], [np.inf, 0.0]]))


def test_flow_pruning_integrates_the_samples_near_the_support():
    # the first drift batch holds just the points whose exact position at the
    # snapshot time lies within 2 r0 of the center, and the rest are +0.0
    b = twist_system(0.1).b
    u0 = hf.bump_datum(2, [0.3, -0.2], 0.5)
    pts, _ = hf.Box.from_radius(u0.center, 3.0).midpoint_grid(48)
    batches = []
    counted = dataclasses.replace(b, eval=lambda x: batches.append(len(x)) or b.eval(x))
    got = hf.solve_transport(counted, u0, IntegratorConfig(h=0.01)).eval(0.7, pts)
    near = np.linalg.norm(b.exact_flow(0.7, pts) - u0.center, axis=-1) < 1.0
    assert 0 < batches[0] == np.count_nonzero(near) < 0.5 * len(pts)
    assert got.tobytes() == hf.solve_transport(_unproven(b), u0, IntegratorConfig(
        h=0.01)).eval(0.7, pts).tobytes()
    assert np.all(got[~near] == 0.0) and np.count_nonzero(got[near]) > 0


# ---------------------------------------------------------------------------
# one evaluation path: eval is eval_times at a single time
# ---------------------------------------------------------------------------

def _field_density_sampler(u0):
    # cofactor-route coefficients of a non-affine limit map, with the field
    # sigma0(x) = 1.5 + 0.3 sin x1 cos x2
    limit_W = hf.hyperbolic_twist_family(hf.perturbed_identity_curve(0.3),
                                         hf.sine_curve(0.1, 10.0), 0.1).W
    sig = hf.ScalarField(
        2, lambda x: 1.5 + 0.3 * np.sin(x[..., 0]) * np.cos(x[..., 1]),
        lambda x: np.stack([0.3 * np.cos(x[..., 0]) * np.cos(x[..., 1]),
                            -0.3 * np.sin(x[..., 0]) * np.sin(x[..., 1])], axis=-1))
    coeffs = hf.effective_from_limit_map(limit_W, sig)
    return hf.solve_homogenized(coeffs, u0.scaled(sig.eval), "density",
                                IntegratorConfig(h=0.05))


_SAMPLER_KINDS = {
    "pruned-deltagamma": lambda u0: hf.solve_transport(
        deltagamma_system(0.1).b, u0, IntegratorConfig(h=0.01)),
    "unpruned-twist": lambda u0: hf.solve_transport(
        _unproven(twist_system(0.1).b), u0, IntegratorConfig(h=0.01)),
    "flow-pruned-twist": lambda u0: hf.solve_transport(
        twist_system(0.1).b, u0, IntegratorConfig(h=0.01)),
    "richardson-deltagamma": lambda u0: hf.solve_transport(
        deltagamma_system(0.4).b, u0, IntegratorConfig(h=0.005, richardson_check=True)),
    "constant-limit": lambda u0: hf.solve_homogenized(
        hf.constant_coefficients(2, 1.3, [1.0, 0.4]), u0),
    "density-float-sigma0": lambda u0: hf.solve_homogenized(
        hf.constant_coefficients(2, 2.0, [1.0, 0.5]), u0.scaled(2.0), "density"),
    "density-field-sigma0": _field_density_sampler,
}


@pytest.mark.parametrize("kind", sorted(_SAMPLER_KINDS))
def test_eval_is_eval_times_at_one_time(kind):
    u0 = hf.bump_datum(2, [0.3, -0.2], 1.0)
    sol = _SAMPLER_KINDS[kind](u0)
    rng = np.random.default_rng(5)
    for x in (rng.uniform(-2.5, 2.5, (40, 2)), np.array([0.1, -0.3]),
              rng.uniform(-2.5, 2.5, (3, 4, 2))):
        for t in (0.0, 0.4, -0.6):
            got = sol.eval(t, x)
            assert np.shape(got) == x.shape[:-1]
            assert got.tobytes() == sol.eval_times([t], x)[0].tobytes()


@pytest.mark.parametrize("kind", sorted(_SAMPLER_KINDS))
def test_eval_times_takes_times_of_either_sign(kind):
    # one call on a shuffled list with negative times, 0 and positive times
    # equals the per-sign calls bit for bit, with and without a needed mask
    u0 = hf.bump_datum(2, [0.3, -0.2], 1.0)
    sol = _SAMPLER_KINDS[kind](u0)
    times = np.array([0.4, -0.3, 0.0, 0.9, -0.75, 0.15])
    back = times < 0.0
    rng = np.random.default_rng(9)
    pts = rng.uniform(-2.5, 2.5, (300, 2))
    for needed in (None, rng.random((len(times), len(pts))) < 0.5):
        want = np.empty((len(times), len(pts)))
        for part in (back, ~back):
            want[part] = sol.eval_times(times[part], pts,
                                        None if needed is None else needed[part])
        got = sol.eval_times(times, pts, needed)
        assert np.count_nonzero(got[back]) > 20 and np.count_nonzero(got[~back]) > 20
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(_SAMPLER_KINDS))
def test_empty_time_list(kind):
    sol = _SAMPLER_KINDS[kind](hf.bump_datum(2, [0.3, -0.2], 1.0))
    x = np.random.default_rng(6).uniform(-2.5, 2.5, (3, 4, 2))
    assert sol.eval_times([], x).shape == (0, 3, 4)
    assert sol.eval_times([], x, needed=np.zeros((0, 3, 4), dtype=bool)).shape == (0, 3, 4)


def test_field_sigma0_density_bytes_are_pinned():
    # x86-64 Linux, glibc libm, numpy 2.4: the sigma0 field divides the datum
    # before the advective solve and multiplies the result after it
    u0 = hf.bump_datum(2, [0.3, -0.2], 1.0)
    pts, _ = hf.Box.from_radius(u0.center, 1.8).midpoint_grid(16)
    vals = _field_density_sampler(u0).eval_times([0.3, 0.8], pts)
    assert np.count_nonzero(vals) > 100
    assert hashlib.sha256(vals.tobytes()).hexdigest() == \
        "4611542fe1bcf554712ead37c31e0d1eadbc07ba2b51e88d19c224102862fce8"


def test_empty_batch_with_richardson_guard():
    checked = IntegratorConfig(h=0.01, richardson_check=True)
    unchecked = IntegratorConfig(h=0.01)
    field = hf.constant_vector(2, [1.0, 0.0])
    empty = np.zeros((0, 2))
    for cfg in (checked, unchecked):
        states = advect_times(field, empty, [0.5, 1.0], cfg)
        assert [s.pos.shape for s in states] == [(0, 2), (0, 2)]
    b = deltagamma_system(0.1).b
    u0 = hf.bump_datum(2, [0.0, 0.0], 0.5)
    for cfg in (checked, unchecked):
        assert hf.solve_transport(b, u0, cfg).eval_times([0.5, 1.0], empty).shape == (2, 0)
