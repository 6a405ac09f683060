"""Flow maps: closed forms, Liouville consistency, variational Jacobians."""

import numpy as np
import pytest

import homoflow as hf
from homoflow import flow
from homoflow.flow import (AccuracyError, BlowupError, IntegratorConfig,
                           advect, advect_times, dynamic_flow_family,
                           flow_map_diffeo, semigroup_defect,
                           validate_flow_family)

from conftest import (central_jac, deltagamma_system, oscillating_velocity,
                      shear_velocity, tanh_sine_velocity, twist_system)

CFG = IntegratorConfig(h=1e-3)


def test_constant_field_flow_is_affine():
    field = hf.constant_vector(2, [0.7, -0.2])
    x0 = np.array([[1.0, 2.0], [0.0, 0.0]])
    state = advect(field, x0, 1.5, CFG, carry_jacobian=True)
    assert np.abs(state.pos - (x0 + 1.5 * np.array([0.7, -0.2]))).max() < 1e-12
    assert np.abs(state.jac - np.eye(2)).max() == 0.0
    assert np.abs(state.logdet).max() == 0.0


def test_shear_flow_closed_form(rng):
    field = shear_velocity()
    x0 = rng.uniform(-2, 2, (50, 2))
    state = advect(field, x0, 1.0, CFG, carry_jacobian=True)
    exact = np.stack([x0[:, 0], x0[:, 1] + np.sin(x0[:, 0])], axis=-1)
    # the velocity is constant along each trajectory, so RK4 integrates the
    # flow exactly; only roundoff accumulates over the 1000 steps
    assert np.abs(state.pos - exact).max() < 1e-12
    assert np.abs(np.linalg.det(state.jac) - 1.0).max() < 1e-12
    jac_exact = np.tile(np.eye(2), (50, 1, 1))
    jac_exact[:, 1, 0] = np.cos(x0[:, 0])
    assert np.abs(state.jac - jac_exact).max() < 1e-12


def test_zero_time_returns_initial_state():
    field = shear_velocity()
    x0 = np.array([0.3, -0.8])
    state = advect(field, x0, 0.0, CFG, carry_jacobian=True)
    assert state.t == 0.0
    assert np.all(state.pos == x0)
    assert np.all(state.jac == np.eye(2))
    assert np.all(state.logdet == 0.0)


def test_negative_time_flows_backward(rng):
    system = deltagamma_system(0.2)
    x0 = rng.uniform(-1, 1, (30, 2))
    fwd = advect(system.b, x0, 1.3, CFG).pos
    back = advect(system.b, fwd, -1.3, CFG).pos
    assert np.abs(back - x0).max() < 1e-8


def test_liouville_identity_on_generator_drifts(rng):
    x0 = rng.uniform(-2, 2, (30, 2))
    for system in (deltagamma_system(0.2), twist_system(0.2)):
        state = advect(system.b, x0, 2.0, CFG, carry_jacobian=True)
        det = np.linalg.det(state.jac)
        assert np.abs(det - np.exp(state.logdet)).max() < 1e-8


def test_measure_ratio_identity(rng):
    # volume distortion of a measure-preserving drift is the density ratio
    system = deltagamma_system(0.2)
    x0 = rng.uniform(-2, 2, (40, 2))
    state = advect(system.b, x0, 2.0, CFG, carry_jacobian=True)
    ratio = system.sigma.eval(x0) / system.sigma.eval(state.pos)
    assert np.abs(np.linalg.det(state.jac) - ratio).max() < 1e-6
    c = system.stability_constant
    assert np.all(np.linalg.det(state.jac) <= c * c + 1e-9)
    assert np.all(np.linalg.det(state.jac) > 0.0)


def test_variational_jacobian_vs_finite_differences(rng):
    x0 = rng.uniform(-1.5, 1.5, (10, 2))
    for field in (shear_velocity(), deltagamma_system(0.2).b):
        jac = advect(field, x0, 1.0, CFG, carry_jacobian=True).jac
        fd = central_jac(lambda p: advect(field, p, 1.0, CFG).pos, x0)
        rel = np.abs(jac - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4


def test_semigroup_property(rng):
    assert semigroup_defect(shear_velocity(), 0.5, 0.5, np.array([1.0, 0.0]), CFG) < 1e-10
    defect = semigroup_defect(deltagamma_system(0.2).b, 0.3, 0.7,
                              np.array([0.2, 0.4]), CFG)
    assert defect < 1e-8


def test_blowup_raises_with_time():
    def ev(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([x[..., 0] ** 2, np.zeros(x.shape[:-1])], axis=-1)

    def jac(x):
        j = np.zeros(x.shape[:-1] + (2, 2))
        j[..., 0, 0] = 2 * x[..., 0]
        return j

    field = hf.VectorField(2, ev, jac, lambda x: 2 * x[..., 0])
    with pytest.raises(BlowupError) as err:
        advect(field, np.array([2.0, 0.0]), 2.0, IntegratorConfig(h=1e-2))
    assert 0.0 < err.value.time <= 2.0


def test_richardson_check_passes_smooth_and_flags_coarse():
    field = shear_velocity()
    cfg = IntegratorConfig(h=1e-2, richardson_check=True, richardson_tol=1e-8)
    advect(field, np.array([1.0, 0.0]), 1.0, cfg)  # exact flow: no error
    rough = deltagamma_system(0.02).b
    bad = IntegratorConfig(h=5e-2, richardson_check=True, richardson_tol=1e-10)
    with pytest.raises(AccuracyError):
        advect(rough, np.array([0.1, 0.2]), 1.0, bad)
    with pytest.raises(AccuracyError):
        advect_times(rough, np.array([0.1, 0.2]), [0.5, 1.0], bad)


def test_advect_times_matches_separate_runs(rng):
    field = deltagamma_system(0.2).b
    x0 = rng.uniform(-1, 1, (20, 2))
    times = [0.25, 0.5, 1.0]
    states = advect_times(field, x0, times, CFG)
    for t, st in zip(times, states):
        direct = advect(field, x0, t, CFG).pos
        assert np.abs(st.pos - direct).max() < 1e-9


def test_advect_times_rejects_mixed_signs():
    with pytest.raises(ValueError):
        advect_times(shear_velocity(), np.zeros(2), [-0.5, 0.5], CFG)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0)


# ---------------------------------------------------------------------------
# flow-map diffeomorphisms and the dynamic family
# ---------------------------------------------------------------------------

def test_flow_map_at_zero_time_is_identity(rng):
    mapping = flow_map_diffeo(shear_velocity(), 0.0, CFG)
    x = rng.uniform(-2, 2, (20, 2))
    assert np.abs(mapping.eval(x) - x).max() == 0.0
    assert np.abs(mapping.jacobian(x) - np.eye(2)).max() == 0.0


def test_flow_map_determinant_pinned_to_divergence_integral(rng):
    field = tanh_sine_velocity()
    mapping = flow_map_diffeo(field, 1.0, CFG)
    x = rng.uniform(-2, 2, (30, 2))
    det_from_jac = np.linalg.det(mapping.jacobian(x))
    pinned = mapping.det(x)
    assert np.abs(det_from_jac - pinned).max() < 1e-8
    bound = np.exp(field.div_bound * 1.0)
    assert np.all(pinned <= bound + 1e-9)
    assert np.all(pinned >= 1.0 / bound - 1e-9)


def test_flow_map_of_one_unbatched_point():
    # a single point's log-determinant stays a 0-d array through RK4, so the
    # memo can make it read-only; the values are row 0 of a (1, 2) batch
    point = np.array([0.1, 0.2])
    single = flow_map_diffeo(tanh_sine_velocity(), 1.0, CFG)
    batch = flow_map_diffeo(tanh_sine_velocity(), 1.0, CFG)
    jac = single.jacobian(point)
    det = single.det(point)
    assert jac.shape == (2, 2) and np.shape(det) == ()
    assert jac.tobytes() == batch.jacobian(point[None])[0].tobytes()
    assert det.tobytes() == batch.det(point[None])[0].tobytes()
    assert not jac.flags.writeable


def test_dynamic_family_of_zero_field_is_identity(rng):
    zero = hf.constant_vector(2, [0.0, 0.0])
    system = dynamic_flow_family(zero, zero, 1.0, 0.1, CFG)
    x = rng.uniform(-2, 2, (20, 2))
    assert np.abs(system.W.eval(x) - x).max() == 0.0
    assert np.allclose(system.b.eval(x), [1.0, 0.0])
    assert np.allclose(system.theta.eval(x), 1.0)


def test_dynamic_family_shear_closed_forms(rng):
    field = shear_velocity()
    system = dynamic_flow_family(field, field, 1.0, 0.2, CFG, label="dynamic")
    x = rng.uniform(-2, 2, (100, 2))
    assert np.abs(hf.rectification_residual(system, x)).max() < 1e-6
    expected_b = np.stack([np.ones(len(x)), -np.cos(x[:, 0])], axis=-1)
    assert np.abs(system.b.eval(x) - expected_b).max() < 1e-12
    assert np.abs(system.theta.eval(x) - 1.0).max() < 1e-12


def test_dynamic_family_oscillating_instance_converges(rng):
    pts = hf.Box.from_radius([0.0, 0.0], 2.0).midpoint_grid(12)[0]
    theta_errs, map_errs = [], []
    for eps in (0.2, 0.1):
        a_eps = oscillating_velocity(eps)
        assert validate_flow_family(a_eps, tanh_sine_velocity(), pts).div_gap_lq <= 1e-10
        system = dynamic_flow_family(a_eps, tanh_sine_velocity(), 1.0, eps, CFG)
        assert np.abs(hf.rectification_residual(system, pts)).max() < 1e-6
        dt = system.theta.eval(pts) - system.limit_theta.eval(pts)
        theta_errs.append(float(np.sqrt(np.mean(dt ** 2))))
        dw = system.W.eval(pts) - system.limit_W.eval(pts)
        map_errs.append(float(np.sqrt(np.mean(dw ** 2))))
    # sampled L2 convergence: the sup norm is not promised at these eps
    assert theta_errs[1] < theta_errs[0]
    assert map_errs[1] < map_errs[0]


def test_dynamic_family_validation_report(rng):
    pts = rng.uniform(-2, 2, (100, 2))
    report = validate_flow_family(oscillating_velocity(0.2), tanh_sine_velocity(), pts)
    assert report.div_gap_lq < 1e-12  # rotated-gradient perturbation: exact
    assert 0.1 < report.sup_speed_gap < 0.3  # fixed-amplitude oscillation
    assert report.max_amplitude < 2.5
    assert "derivative weak-* convergence" in report.unverified


def test_dynamic_family_validation_report_flags_violated_bounds(rng):
    pts = rng.uniform(-2, 2, (50, 2))
    report = validate_flow_family(oscillating_velocity(0.2), tanh_sine_velocity(), pts)
    assert report.max_amplitude > 0.5
    report = validate_flow_family(shear_velocity(), tanh_sine_velocity(), pts)
    assert report.div_gap_lq > 1e-3


# ---------------------------------------------------------------------------
# one carried integration per point batch
# ---------------------------------------------------------------------------

MEMO_CFG = IntegratorConfig(h=1e-2)


@pytest.fixture
def carried_batches(monkeypatch):
    """Point counts of every carried ``flow.advect`` call, in order."""
    seen = []
    original = flow.advect

    def counting(field, x0, t_final, cfg=IntegratorConfig(), carry_jacobian=False):
        if carry_jacobian:
            seen.append(np.asarray(x0).shape[:-1])
        return original(field, x0, t_final, cfg, carry_jacobian)

    monkeypatch.setattr(flow, "advect", counting)
    return seen


def _oscillating_family():
    return dynamic_flow_family(oscillating_velocity(0.2), tanh_sine_velocity(),
                               1.0, 0.2, MEMO_CFG)


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_memo_outputs_equal_direct_advect(rng, carried_batches):
    system = _oscillating_family()
    accessors = {
        "W.jacobian": (system.W.jacobian, lambda st: st.jac),
        "W.det": (system.W.det, lambda st: np.exp(st.logdet)),
        "b.eval": (system.b.eval, lambda st: hf.rot_perp(st.jac[..., 1, :])),
        "theta.eval": (system.theta.eval, lambda st: np.exp(st.logdet)),
    }
    for first in accessors:
        x = rng.uniform(-2, 2, (40, 2))
        direct = advect(oscillating_velocity(0.2), x, 1.0, MEMO_CFG,
                        carry_jacobian=True)
        before = len(carried_batches)
        call, expect = accessors[first]
        assert _same_bytes(call(x), expect(direct)), f"{first} on a miss"
        for name, (call, expect) in accessors.items():
            assert _same_bytes(call(x), expect(direct)), f"{name} on a hit"
        assert len(carried_batches) == before + 1


def test_memo_keys_on_exact_input_bytes(carried_batches):
    system = _oscillating_family()
    x = np.array([[0.0, 0.5], [1.0, -0.3]])
    first = system.W.jacobian(x).copy()
    x[1, 0] = 1.25  # mutated in place: the same array object must miss
    moved = system.W.jacobian(x)
    direct = advect(oscillating_velocity(0.2), x, 1.0, MEMO_CFG, carry_jacobian=True)
    assert _same_bytes(moved, direct.jac)
    assert not np.array_equal(moved, first)
    assert len(carried_batches) == 2

    system.W.jacobian(np.array([[0.0, 0.5]]))
    system.W.jacobian(np.array([[-0.0, 0.5]]))  # equal values, other bits
    assert len(carried_batches) == 4


def test_memo_returns_read_only_arrays():
    system = _oscillating_family()
    x = np.array([[0.2, 0.4], [-1.0, 0.7]])
    jw = system.W.jacobian(x)
    assert not jw.flags.writeable
    with pytest.raises(ValueError):
        jw[0, 0, 0] = 0.0
    direct = advect(oscillating_velocity(0.2), x, 1.0, MEMO_CFG, carry_jacobian=True)
    assert _same_bytes(system.W.jacobian(x), direct.jac)


def test_memo_keeps_entry_when_integration_blows_up(carried_batches):
    def ev(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([x[..., 0] ** 2, np.zeros(x.shape[:-1])], axis=-1)

    def jac(x):
        j = np.zeros(x.shape[:-1] + (2, 2))
        j[..., 0, 0] = 2 * x[..., 0]
        return j

    field = hf.VectorField(2, ev, jac, lambda x: 2 * x[..., 0])
    mapping = flow_map_diffeo(field, 2.0, MEMO_CFG)
    good = np.array([[0.1, 0.0]])
    kept = mapping.jacobian(good)
    with pytest.raises(BlowupError), np.errstate(over="ignore", invalid="ignore"):
        mapping.jacobian(np.array([[2.0, 0.0]]))
    assert mapping.jacobian(good) is kept
    assert len(carried_batches) == 2


def test_invariant_suite_integrates_each_batch_once(carried_batches):
    system = _oscillating_family()
    report = hf.invariant_suite(system, n_samples=50)
    assert report.checks
    # the sample batch, then the finite-difference stack of b.jacobian
    assert carried_batches == [(50,), (4, 50)]
