"""Field algebra: rotations, cross products, drifts, and generator families."""

import dataclasses
import hashlib

import numpy as np
import pytest

import homoflow as hf
from homoflow.fields import FieldError, fd_jacobian

from conftest import (central_grad, central_jac, deltagamma_system,
                      identity_system, leibniz_det, oscillating_velocity,
                      shear_system, tanh_sine_velocity, twist_system)


# ---------------------------------------------------------------------------
# rot_perp and cross_product
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v,expected", [
    ([0.0, 1.0], [1.0, 0.0]),
    ([1.0, 0.0], [0.0, -1.0]),
    ([3.0, 4.0], [4.0, -3.0]),
])
def test_rot_perp_examples(v, expected):
    assert np.allclose(hf.rot_perp(np.array(v)), expected)


def test_rot_perp_rejects_other_dims():
    with pytest.raises(FieldError):
        hf.rot_perp(np.array([1.0, 2.0, 3.0]))


def test_cross_product_basis():
    e = np.eye(3)
    assert np.allclose(hf.cross_product([e[1], e[2]]), e[0])
    assert np.allclose(hf.cross_product([e[2], e[1]]), -e[0])


def test_cross_product_matches_determinant_pairing(rng):
    for _ in range(100):
        v, v2, v3 = rng.standard_normal((3, 3))
        w = hf.cross_product([v2, v3])
        mat = np.stack([v, v2, v3], axis=-1)
        assert abs(v @ w - leibniz_det(mat)) < 1e-12 * max(1.0, abs(leibniz_det(mat)))


def test_cross_product_antisymmetry_and_linearity(rng):
    for n in (3, 4):
        vs = list(rng.standard_normal((n - 1, n)))
        w = hf.cross_product(vs)
        swapped = list(vs)
        if n >= 4:
            swapped[0], swapped[1] = swapped[1], swapped[0]
            assert np.allclose(hf.cross_product(swapped), -w, rtol=1e-12, atol=1e-12)
        a, b = 0.7, -1.3
        extra = rng.standard_normal(n)
        combined = list(vs)
        combined[0] = a * vs[0] + b * extra
        lhs = hf.cross_product(combined)
        other = list(vs)
        other[0] = extra
        rhs = a * w + b * hf.cross_product(other)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_cross_product_in_dimension_two_is_rot_perp(rng):
    v = rng.standard_normal((50, 2))
    v[:5] = [[0.0, -0.0], [-0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [-0.0, -0.0]]
    assert hf.cross_product([v]).tobytes() == hf.rot_perp(v).tobytes()


def test_cross_product_argument_count():
    with pytest.raises(FieldError):
        hf.cross_product([np.ones(3)])


def test_cross_product_batched(rng):
    v2 = rng.standard_normal((40, 3))
    v3 = rng.standard_normal((40, 3))
    w = hf.cross_product([v2, v3])
    assert w.shape == (40, 3)
    assert np.allclose(w, np.cross(v2, v3))


# ---------------------------------------------------------------------------
# drifts from stream fields
# ---------------------------------------------------------------------------

def test_drift_from_coordinate_stream_is_unit(rng):
    b = hf.drift_from_streamfields([hf.coordinate_scalar(2, 1)],
                                   hf.constant_scalar(2, 1.0))
    x = rng.uniform(-2, 2, (50, 2))
    assert np.allclose(b.eval(x), [1.0, 0.0])
    assert np.allclose(b.divergence(x), 0.0)


def test_drift_from_sine_stream_matches_hand_gradient(rng):
    gamma = 0.7

    def ev(x):
        return x[..., 1] + gamma / (2 * np.pi) * np.sin(2 * np.pi * x[..., 0])

    def gr(x):
        return np.stack([gamma * np.cos(2 * np.pi * x[..., 0]),
                         np.ones(x.shape[:-1])], axis=-1)

    def he(x):
        out = np.zeros(x.shape + (2,))
        out[..., 0, 0] = -2 * np.pi * gamma * np.sin(2 * np.pi * x[..., 0])
        return out

    stream = hf.ScalarField(2, ev, gr, he)
    b = hf.drift_from_streamfields([stream], hf.constant_scalar(2, 1.0))
    x = rng.uniform(-2, 2, (100, 2))
    expected = np.stack([np.ones(100), -gamma * np.cos(2 * np.pi * x[..., 0])], axis=-1)
    assert np.abs(b.eval(x) - expected).max() < 1e-14
    assert np.abs(gr(x) - central_grad(ev, x)).max() < 1e-6


def test_drift_three_dimensional_coordinate_streams(rng):
    streams = [hf.coordinate_scalar(3, 1), hf.coordinate_scalar(3, 2)]
    b = hf.drift_from_streamfields(streams, hf.constant_scalar(3, 1.0))
    x = rng.uniform(-2, 2, (30, 3))
    assert np.allclose(b.eval(x), [1.0, 0.0, 0.0])
    assert np.abs(b.jacobian(x)).max() == 0.0


def test_drift_rejects_nonpositive_measure():
    dying = hf.ScalarField(2, lambda x: x[..., 0], lambda x: np.stack(
        [np.ones(x.shape[:-1]), np.zeros(x.shape[:-1])], axis=-1))
    with pytest.raises(hf.InvalidMeasureError):
        hf.drift_from_streamfields([hf.coordinate_scalar(2, 1)], dying)


def _unevaluated(dim, hess=None):
    """A scalar field whose every evaluation fails the test."""
    def fail(x):
        raise AssertionError("evaluated before the refusal")

    return hf.ScalarField(dim, fail, fail, hess)


def test_drift_refuses_a_stream_without_hessian():
    # refused before sigma or any stream is evaluated, in 2D and in 3D
    fail = _unevaluated(3).eval
    for dim, streams in ((2, [_unevaluated(2)]),
                         (3, [_unevaluated(3, fail), _unevaluated(3)])):
        with pytest.raises(FieldError, match="hess"):
            hf.drift_from_streamfields(streams, _unevaluated(dim))


def test_theta_of_unit_drift():
    theta = hf.theta_of(hf.constant_vector(2, [1.0, 0.0]), hf.coordinate_scalar(2, 0))
    x = np.zeros((5, 2))
    assert np.allclose(theta.eval(x), 1.0)
    assert np.allclose(theta.grad(x), 0.0)


def test_theta_of_twist_family_splits_as_profile_product(rng):
    eps = 0.2
    alpha = hf.perturbed_identity_curve(0.5 * eps)
    system = hf.hyperbolic_twist_family(alpha, hf.sine_curve(eps, 1.0 / eps), eps)
    x = rng.uniform(-2, 2, (80, 2))
    w1 = _twist_first_component(alpha, hf.sine_curve(eps, 1.0 / eps))
    theta = hf.theta_of(system.b, w1)
    expected = alpha.deriv(x[..., 0]) * alpha.deriv(x[..., 1])
    assert np.abs(theta.eval(x) - expected).max() < 1e-12
    assert np.abs(system.theta.eval(x) - expected).max() < 1e-14
    # the exact Hessian of w1 makes theta's gradient the profile product's
    assert np.abs(w1.hess(x) - central_jac(w1.grad, x)).max() < 1e-6
    assert np.abs(theta.grad(x) - system.theta.grad(x)).max() < 1e-12


def test_theta_of_refuses_a_w1_without_hessian(rng):
    b = hf.constant_vector(2, [1.0, 0.0])
    with pytest.raises(FieldError, match="hess"):
        hf.theta_of(b, _unevaluated(2))
    # with Hessians, the drift Jacobian and jac(b)^T grad w1 + hess(w1) b
    # match central differences
    w = hf.ScalarField(
        2, lambda x: x[..., 1] + 0.3 * np.sin(x[..., 0]),
        lambda x: np.stack([0.3 * np.cos(x[..., 0]), np.ones(x.shape[:-1])], axis=-1),
        lambda x: np.stack([np.stack([-0.3 * np.sin(x[..., 0]), np.zeros(x.shape[:-1])], -1),
                            np.zeros(x.shape[:-1] + (2,))], axis=-2))
    w1 = hf.ScalarField(
        2, lambda x: x[..., 0] + 0.2 * np.cos(x[..., 1]),
        lambda x: np.stack([np.ones(x.shape[:-1]), -0.2 * np.sin(x[..., 1])], axis=-1),
        lambda x: np.stack([np.zeros(x.shape[:-1] + (2,)),
                            np.stack([np.zeros(x.shape[:-1]), -0.2 * np.cos(x[..., 1])], -1)],
                           axis=-2))
    b = hf.drift_from_streamfields([w], hf.constant_scalar(2, 1.0))
    theta = hf.theta_of(b, w1)
    x = rng.uniform(-2, 2, (40, 2))
    assert np.abs(b.jacobian(x) - central_jac(b.eval, x)).max() < 1e-9
    assert np.abs(theta.grad(x) - central_grad(theta.eval, x)).max() < 1e-9


def _twist_first_component(alpha, beta):
    def ev(x):
        a1, a2 = alpha.eval(x[..., 0]), alpha.eval(x[..., 1])
        return a1 * np.exp(beta.eval(a1 * a2))

    def gr(x):
        a1, a2 = alpha.eval(x[..., 0]), alpha.eval(x[..., 1])
        d1, d2 = alpha.deriv(x[..., 0]), alpha.deriv(x[..., 1])
        p = a1 * a2
        bp = beta.deriv(p)
        e = np.exp(beta.eval(p))
        return np.stack([d1 * (1 + p * bp), d2 * a1 ** 2 * bp], axis=-1) * e[..., None]

    def he(x):
        x1, x2 = x[..., 0], x[..., 1]
        a1, a2, d1, d2 = alpha.eval(x1), alpha.eval(x2), alpha.deriv(x1), alpha.deriv(x2)
        p = a1 * a2
        bp, bpp = beta.deriv(p), beta.deriv2(p)
        e = np.exp(beta.eval(p))
        mixed = e * d1 * d2 * a1 * (2 * bp + p * bpp + p * bp ** 2)
        h11 = e * (alpha.deriv2(x1) * (1 + p * bp) + d1 ** 2 * a2 * (2 * bp + p * bpp + p * bp ** 2))
        h22 = e * (alpha.deriv2(x2) * a1 ** 2 * bp + d2 ** 2 * a1 ** 3 * (bpp + bp ** 2))
        return np.stack([np.stack([h11, mixed], -1), np.stack([mixed, h22], -1)], axis=-2)

    return hf.ScalarField(2, ev, gr, he)


# ---------------------------------------------------------------------------
# twist family
# ---------------------------------------------------------------------------

def test_twist_degenerate_is_identity(rng):
    system = hf.hyperbolic_twist_family(hf.identity_curve(), hf.zero_curve(), 0.1)
    x = rng.uniform(-3, 3, (40, 2))
    assert np.abs(system.W.eval(x) - x).max() == 0.0
    assert np.allclose(system.b.eval(x), [1.0, 0.0])
    assert np.allclose(system.theta.eval(x), 1.0)


def test_twist_canonical_identities(rng):
    system = twist_system(0.1)
    x = rng.uniform(-2, 2, (1000, 2))
    res = hf.rectification_residual(system, x)
    assert np.abs(res).max() < 1e-10
    det = np.linalg.det(system.W.jacobian(x))
    assert np.abs(det - 1.0).max() < 1e-10  # alpha = id: unit Jacobian everywhere


def test_twist_map_jacobian_vs_finite_differences(rng):
    system = twist_system(0.2)
    x = rng.uniform(-2, 2, (40, 2))
    jac = system.W.jacobian(x)
    fd = central_jac(system.W.eval, x)
    assert np.abs(jac - fd).max() < 1e-5


def test_twist_drift_jacobian_vs_finite_differences(rng):
    system = twist_system(0.2)
    x = rng.uniform(-2, 2, (40, 2))
    jac = system.b.jacobian(x)
    fd = central_jac(system.b.eval, x)
    scale = np.maximum(1.0, np.abs(fd))
    assert (np.abs(jac - fd) / scale).max() < 1e-5


def test_twist_perturbed_alpha_theta_converges(rng):
    x = rng.uniform(-2, 2, (200, 2))
    worst = []
    for eps in (0.2, 0.1, 0.05):
        alpha = hf.perturbed_identity_curve(eps)
        system = hf.hyperbolic_twist_family(alpha, hf.zero_curve(), eps)
        expected = (1 + eps * np.cos(x[..., 0])) * (1 + eps * np.cos(x[..., 1]))
        assert np.abs(system.theta.eval(x) - expected).max() < 1e-14
        worst.append(np.abs(system.theta.eval(x) - 1.0).max())
    assert worst[2] < worst[1] < worst[0]


def test_twist_rejects_nonincreasing_alpha():
    with pytest.raises(hf.InvalidFamilyError):
        hf.hyperbolic_twist_family(hf.sine_curve(2.0, 1.0), hf.zero_curve(), 0.1)


def test_twist_requires_second_derivatives():
    # a curve without deriv2 cannot be built, so no family meets one
    with pytest.raises(TypeError):
        hf.Curve(lambda t: np.asarray(t, float), lambda t: np.ones_like(np.asarray(t, float)))


def test_twist_refuses_profiles_whose_unit_slope_is_wrong():
    # the drift leaves unit slopes out, so the claim must be true
    zero = lambda t: np.zeros_like(np.asarray(t, float))  # noqa: E731
    steep = hf.Curve(lambda t: 2.0 * np.asarray(t, float),
                     lambda t: np.full(np.shape(t), 2.0), zero, unit_slope=True)
    with pytest.raises(hf.InvalidFamilyError, match="unit slope"):
        hf.hyperbolic_twist_family(steep, hf.zero_curve(), 0.1)


# ---------------------------------------------------------------------------
# periodic families
# ---------------------------------------------------------------------------

def test_identity_cell_family(rng):
    system = identity_system(0.3)
    x = rng.uniform(-2, 2, (50, 2))
    assert np.allclose(system.sigma.eval(x), 1.0)
    assert np.allclose(system.b.eval(x), [1.0, 0.0])
    assert np.abs(system.W.eval(x) - x).max() < 1e-15


def test_deltagamma_cell_closed_forms(rng):
    eps, d, g = 0.25, 0.3, 0.3
    system = deltagamma_system(eps, d, g)
    x = rng.uniform(-2, 2, (300, 2))
    y = x / eps
    sigma = 1.0 - d * g * np.cos(2 * np.pi * y[..., 0]) * np.cos(2 * np.pi * y[..., 1])
    assert np.abs(system.sigma.eval(x) - sigma).max() < 1e-14
    flux = np.stack([np.ones(len(x)), -g * np.cos(2 * np.pi * y[..., 0])], axis=-1)
    assert np.abs(system.b.eval(x) - flux / sigma[..., None]).max() < 1e-14
    assert np.allclose(system.theta.eval(x), 1.0)


# -- sine cells: the closed-form drift and its proven bound ------------------

def _generic(cell):
    return dataclasses.replace(cell, drift=None, proven_drift_box=None)


def test_sine_cell_bounds_of_shipped_cells():
    # deltagamma 0.3/0.3: b1 = 1/(1 - 0.09 c1 c2), b2 = -0.3 c1/(1 - 0.09 c1 c2)
    lo, hi = hf.deltagamma_cell(0.3, 0.3).proven_drift_box
    assert np.abs(lo - [1 / 1.09, -0.3 / 0.91]).max() < 1e-12
    assert np.abs(hi - [1 / 0.91, 0.3 / 0.91]).max() < 1e-12
    assert hf.periodic_family(hf.deltagamma_cell(0.3, 0.3), 0.1).b.sup_bound > 1.2
    for dim in (2, 3):
        lo, hi = hf.identity_cell(dim).proven_drift_box
        assert lo.tolist() == hi.tolist() == np.eye(dim)[0].tolist()
    lo, hi = hf.shear_cell(0.4).proven_drift_box
    assert np.abs(lo - [1.0, -0.4]).max() < 1e-12
    assert np.abs(hi - [1.0, 0.4]).max() < 1e-12
    # a corner det so close to 0 that rounding could dominate: no box is
    # claimed (a corner det <= 0 refuses the cell)
    assert hf.sine_cell(np.eye(2), 1.0, 1.0 - 1e-13).proven_drift_box is None
    assert hf.sine_cell(np.eye(2), 1.0, 1.0 - 1e-9).proven_drift_box is not None


def test_periodic_family_refuses_a_stale_closed_form_drift_or_bound():
    # drift and proven box were built for the old M; a copy with a new M
    # must not keep them silently
    M = np.array([[1.0, 0.2], [0.0, 1.0]])
    stale = dataclasses.replace(hf.deltagamma_cell(0.3, 0.3), M=M)
    with pytest.raises(hf.InvalidCellError, match="rebuild"):
        hf.periodic_family(stale, 0.2)
    # without the closed form, the old box misses b1 = 1/det up to 1/0.85
    with pytest.raises(hf.InvalidCellError, match="box"):
        hf.periodic_family(dataclasses.replace(stale, drift=None), 0.2)
    sheared = dataclasses.replace(hf.identity_cell(2), M=M.T)
    with pytest.raises(hf.InvalidCellError, match="box"):
        hf.periodic_family(sheared, 0.2)
    # rebuilt, or stripped of both, the copy is accepted
    assert hf.periodic_family(hf.sine_cell(M, 0.3, 0.3), 0.2).b.proven_box is not None
    assert hf.periodic_family(_generic(stale), 0.2).b.proven_box is None


def test_sampled_only_cells_carry_no_proven_bound(rng):
    cell = hf.deltagamma_cell(0.3, 0.3)
    system = hf.periodic_family(_generic(cell), 0.2)
    assert system.b.proven_box is None and system.b.sup_bound is not None
    assert hf.constant_vector(2, [1.0, 0.0]).proven_box is None


def test_periodic_rectification_identities(rng):
    x = rng.uniform(-2, 2, (1000, 2))
    for system in (deltagamma_system(0.2), shear_system(0.15)):
        assert np.abs(hf.rectification_residual(system, x)).max() < 1e-10
        det = np.linalg.det(system.W.jacobian(x))
        assert np.abs(det - system.sigma.eval(x) * system.theta.eval(x)).max() < 1e-10


def test_periodic_map_stays_near_affine_part(rng):
    eps = 0.17
    cell = hf.deltagamma_cell(0.4, 0.5)
    system = hf.periodic_family(cell, eps)
    x = rng.uniform(-3, 3, (400, 2))
    grid = rng.random((4000, 2))
    part_max = np.linalg.norm(cell.periodic_part.eval(grid), axis=-1).max()
    dev = np.linalg.norm(system.W.eval(x) - x @ np.asarray(cell.M).T, axis=-1)
    assert dev.max() <= eps * part_max + 1e-12


def test_periodic_sigma_gradient_vs_finite_differences(rng):
    system = deltagamma_system(0.2)
    x = rng.uniform(-2, 2, (60, 2))
    fd = central_grad(system.sigma.eval, x)
    rel = np.abs(system.sigma.grad(x) - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-6


def test_periodic_drift_divergence_matches_trace(rng):
    system = deltagamma_system(0.2)
    x = rng.uniform(-2, 2, (60, 2))
    tr = np.trace(system.b.jacobian(x), axis1=-2, axis2=-1)
    assert np.abs(system.b.divergence(x) - tr).max() < 1e-12


def test_periodic_drift_jacobian_vs_finite_differences(rng):
    system = deltagamma_system(0.2)
    x = rng.uniform(-2, 2, (60, 2))
    fd = central_jac(system.b.eval, x)
    rel = np.abs(system.b.jacobian(x) - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-5


def test_periodic_bounds_cover_sigma_range():
    system = deltagamma_system(0.2, 0.3, 0.3)
    lo, hi = system.sigma_bounds
    assert lo <= 1 - 0.09 and hi >= 1 + 0.09
    assert hi / lo >= (1 + 0.09) / (1 - 0.09)


def test_degenerate_cell_rejected():
    # sine_cell refuses a corner det <= 0, naming the least one; deltagamma
    # is the sine cell at M = I, where that rule reads |delta gamma| < 1
    for args, least in (((np.eye(2), 1.5, 1.5), "-1.25"),
                        ((np.eye(2), 1.1, 1.0), "-0.1"),
                        ((0.05 * np.eye(2), 0.3, 0.3), "-0.0875"),
                        ((np.eye(2), 1.0, 1.0), "0")):
        with pytest.raises(hf.InvalidCellError, match=f"least corner value is {least}$"):
            hf.sine_cell(*args)
    with pytest.raises(hf.InvalidCellError):
        hf.deltagamma_cell(1.1, 1.0)
    assert hf.deltagamma_cell(0.99, -1.0).proven_drift_box is not None
    # periodic_family's cell scan still refuses a hand-built cell
    shrinking = dataclasses.replace(_generic(hf.deltagamma_cell(0.3, 0.3)),
                                    M=0.05 * np.eye(2))
    with pytest.raises(hf.InvalidCellError, match="not positive"):
        hf.periodic_family(shrinking, 0.1)


def test_periodic_family_requires_positive_eps():
    with pytest.raises(FieldError):
        hf.periodic_family(hf.identity_cell(2), 0.0)


def test_cell_without_hessians_is_refused():
    # refused before the cell scan: no member of the cell is evaluated
    base = hf.deltagamma_cell(0.3, 0.3)

    def fail(y):
        raise AssertionError("the cell was evaluated")

    part = dataclasses.replace(base.periodic_part, eval=fail, jacobian=fail)
    stripped = dataclasses.replace(base, hessians=None, drift=fail, periodic_part=part)
    with pytest.raises(hf.InvalidCellError, match="hessians"):
        hf.periodic_family(stripped, 0.1)


def test_scalar_field_gradients_match_finite_differences(rng):
    x = rng.uniform(-2, 2, (50, 2))
    for system in (deltagamma_system(0.15), twist_system(0.15)):
        for field in (system.sigma, system.theta):
            fd = central_grad(field.eval, x)
            rel = np.abs(field.grad(x) - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-6


def test_fd_jacobian_helper_on_linear_map(rng):
    M = rng.standard_normal((3, 3))
    x = rng.uniform(-1, 1, (20, 3))
    jac = fd_jacobian(lambda p: p @ M.T, x)
    assert np.abs(jac - M).max() < 1e-9


def _sine_cell_3d(amp=0.1):
    """Nontrivial 3D cell: y + (amp/2pi)(sin 2pi y2, sin 2pi y3, sin 2pi y1)."""
    a = amp
    TWO_PI = 2 * np.pi

    def ev(y):
        return a / TWO_PI * np.stack([np.sin(TWO_PI * y[..., 1]),
                                      np.sin(TWO_PI * y[..., 2]),
                                      np.sin(TWO_PI * y[..., 0])], axis=-1)

    def jac(y):
        out = np.zeros(y.shape + (3,))
        out[..., 0, 1] = a * np.cos(TWO_PI * y[..., 1])
        out[..., 1, 2] = a * np.cos(TWO_PI * y[..., 2])
        out[..., 2, 0] = a * np.cos(TWO_PI * y[..., 0])
        return out

    def div(y):
        return np.zeros(y.shape[:-1])

    part = hf.VectorField(3, ev, jac, div, sup_bound=3 * a / TWO_PI, div_bound=0.0)

    def hess(y):
        out = np.zeros(y.shape + (3, 3))
        out[..., 0, 1, 1] = -TWO_PI * a * np.sin(TWO_PI * y[..., 1])
        out[..., 1, 2, 2] = -TWO_PI * a * np.sin(TWO_PI * y[..., 2])
        out[..., 2, 0, 0] = -TWO_PI * a * np.sin(TWO_PI * y[..., 0])
        return out

    return hf.PeriodicCellMap(3, np.eye(3), part, hess)


def test_three_dimensional_cell_family(rng):
    system = hf.periodic_family(_sine_cell_3d(0.1), 0.2, label="cell3d")
    x = rng.uniform(-2, 2, (200, 3))
    assert np.abs(hf.rectification_residual(system, x)).max() < 1e-10
    det = np.linalg.det(system.W.jacobian(x))
    assert np.abs(det - system.sigma.eval(x) * system.theta.eval(x)).max() < 1e-10
    fd = central_jac(system.b.eval, x[:30])
    rel = np.abs(system.b.jacobian(x[:30]) - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-5
    tr = np.trace(system.b.jacobian(x), axis1=-2, axis2=-1)
    assert np.abs(system.b.divergence(x) - tr).max() < 1e-12


def test_three_dimensional_cell_effective_coefficients():
    coeffs = hf.effective_from_cell(_sine_cell_3d(0.1), m=32)
    assert abs(coeffs.sigma0 - 1.0) < 1e-12
    assert np.abs(np.asarray(coeffs.xi0) - np.array([1.0, 0.0, 0.0])).max() < 1e-12


def test_three_dimensional_stream_drift_is_solenoidal(rng):
    # cross of two nontrivial gradients: exact Jacobian must be traceless
    def w2_ev(x):
        return x[..., 1] + 0.1 * np.sin(x[..., 2])

    def w2_gr(x):
        z = np.zeros(x.shape[:-1])
        return np.stack([z, np.ones_like(z), 0.1 * np.cos(x[..., 2])], axis=-1)

    def w2_he(x):
        out = np.zeros(x.shape + (3,))
        out[..., 2, 2] = -0.1 * np.sin(x[..., 2])
        return out

    def w3_ev(x):
        return x[..., 2] + 0.2 * np.cos(x[..., 0])

    def w3_gr(x):
        z = np.zeros(x.shape[:-1])
        return np.stack([-0.2 * np.sin(x[..., 0]), z, np.ones_like(z)], axis=-1)

    def w3_he(x):
        out = np.zeros(x.shape + (3,))
        out[..., 0, 0] = -0.2 * np.cos(x[..., 0])
        return out

    streams = [hf.ScalarField(3, w2_ev, w2_gr, w2_he),
               hf.ScalarField(3, w3_ev, w3_gr, w3_he)]
    b = hf.drift_from_streamfields(streams, hf.constant_scalar(3, 1.0))
    x = rng.uniform(-2, 2, (100, 3))
    jac = b.jacobian(x)
    fd = central_jac(b.eval, x[:30])
    rel = np.abs(jac[:30] - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-5
    assert np.abs(np.trace(jac, axis1=-2, axis2=-1)).max() < 1e-10
    # determinant pairing against random directions
    for _ in range(5):
        xi = rng.standard_normal(3)
        lhs = b.eval(x) @ xi
        mat = np.stack([np.broadcast_to(xi, x.shape),
                        streams[0].grad(x), streams[1].grad(x)], axis=-1)
        assert np.abs(lhs - np.linalg.det(mat)).max() < 1e-12


# ---------------------------------------------------------------------------
# pinned bytes of approximate and vanishing derivatives
# ---------------------------------------------------------------------------

def _digest(a):
    """sha256 over an array's shape and bits."""
    a = np.asarray(a)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _fallback_outputs():
    """Every derivative a field takes from central differences, or that
    vanishes identically, at fixed points (half of them with |x| > 1, where
    the step grows with |x|); and the exact derivatives of a stream drift and
    its theta, of periodic members, and the twist map's values, which share
    their inputs between formulas."""
    points = np.random.default_rng(2024)
    x2, x3 = points.uniform(-2, 2, (7, 2)), points.uniform(-2, 2, (5, 3))
    out = {}

    # a stream over a varying density, and a theta of its drift
    stream = hf.ScalarField(
        2, lambda x: x[..., 1] + 0.3 * np.sin(x[..., 0]),
        lambda x: np.stack([0.3 * np.cos(x[..., 0]), np.ones(x.shape[:-1])], axis=-1),
        lambda x: np.stack([np.stack([-0.3 * np.sin(x[..., 0]), np.zeros(x.shape[:-1])], -1),
                            np.zeros(x.shape[:-1] + (2,))], axis=-2))
    sigma = hf.ScalarField(
        2, lambda x: 2.0 + np.sin(x[..., 0]) * np.cos(x[..., 1]),
        lambda x: np.stack([np.cos(x[..., 0]) * np.cos(x[..., 1]),
                            -np.sin(x[..., 0]) * np.sin(x[..., 1])], axis=-1))
    b = hf.drift_from_streamfields([stream], sigma)
    out["streams.b.jacobian"] = b.jacobian(x2)
    out["streams.b.divergence"] = b.divergence(x2)
    w1 = hf.ScalarField(
        2, lambda x: x[..., 0] + 0.2 * np.cos(x[..., 1]),
        lambda x: np.stack([np.ones(x.shape[:-1]), -0.2 * np.sin(x[..., 1])], axis=-1),
        lambda x: np.stack([np.zeros(x.shape[:-1] + (2,)),
                            np.stack([np.zeros(x.shape[:-1]), -0.2 * np.cos(x[..., 1])], -1)],
                           axis=-2))
    out["theta_of.grad"] = hf.theta_of(b, w1).grad(x2)

    # the identity cell in 3D, whose derivatives vanish or are constant
    system = hf.periodic_family(hf.identity_cell(3), 0.3)
    out["cell3d.sigma.grad"] = system.sigma.grad(x3)
    out["cell3d.b.jacobian"] = system.b.jacobian(x3)
    out["cell3d.b.divergence"] = system.b.divergence(x3)
    dg = hf.deltagamma_cell(0.3, 0.2)

    # sine cells: exact derivatives from one cell jet
    exact = {"deltagamma": (dg, x2),
             "sine": (hf.sine_cell([[1.2, 0.3], [-0.1, 0.9]], 0.3, 0.3), x2),
             "sine3d": (_sine_cell_3d(0.1), x3)}
    for name, (cell, x) in exact.items():
        system = hf.periodic_family(cell, 0.3)
        for tag, y in (("batch", x), ("point", x[0])):
            out[f"exact.{name}.sigma.grad.{tag}"] = system.sigma.grad(y)
            out[f"exact.{name}.b.jacobian.{tag}"] = system.b.jacobian(y)
            out[f"exact.{name}.b.divergence.{tag}"] = system.b.divergence(y)

    # the twist map for identity and perturbed alpha, and for zero beta
    twists = {"identity": (hf.identity_curve(), hf.sine_curve(0.3, 1.0 / 0.3)),
              "perturbed": (hf.perturbed_identity_curve(0.15),
                            hf.sine_curve(0.3, 1.0 / 0.3)),
              "zero_beta": (hf.identity_curve(), hf.zero_curve())}
    for name, (alpha, beta) in twists.items():
        W = hf.hyperbolic_twist_family(alpha, beta, 0.3).W
        for tag, y in (("batch", x2), ("point", x2[0])):
            out[f"twist.{name}.W.eval.{tag}"] = W.eval(y)

    # cofactor-route coefficients and their field drift
    density = hf.ScalarField(
        2, lambda x: 1.5 + 0.25 * np.sin(x[..., 0] - x[..., 1]),
        lambda x: 0.25 * np.cos(x[..., 0] - x[..., 1])[..., None] * np.array([1.0, -1.0]))
    coeffs = hf.effective_from_limit_map(twist_system(0.3).W, density)
    out["xi0.jacobian"] = coeffs.xi0.jacobian(x2)
    out["xi0.divergence"] = coeffs.xi0.divergence(x2)
    drift = coeffs.drift()
    out["drift.jacobian"] = drift.jacobian(x2)
    out["drift.divergence"] = drift.divergence(x2)

    # the dynamic family, on a batch and on one unbatched point
    system = hf.dynamic_flow_family(oscillating_velocity(0.2), tanh_sine_velocity(),
                                    1.0, 0.2, hf.IntegratorConfig(h=1e-2))
    for tag, x in (("batch", x2), ("point", x2[0])):
        out[f"dynamic.b.jacobian.{tag}"] = system.b.jacobian(x)
        out[f"dynamic.b.divergence.{tag}"] = system.b.divergence(x)
        out[f"dynamic.theta.grad.{tag}"] = system.theta.grad(x)
        out[f"dynamic.limit_theta.grad.{tag}"] = system.limit_theta.grad(x)

    # derivatives that vanish identically
    for tag, x in (("batch", x2), ("point", x2[0])):
        out[f"constant_scalar.grad.{tag}"] = hf.constant_scalar(2, 3.0).grad(x)
        out[f"constant_scalar.hess.{tag}"] = hf.constant_scalar(2, 3.0).hess(x)
        out[f"coordinate_scalar.hess.{tag}"] = hf.coordinate_scalar(2, 1).hess(x)
        out[f"constant_vector.jacobian.{tag}"] = hf.constant_vector(2, [1.0, 2.0]).jacobian(x)
        out[f"constant_vector.divergence.{tag}"] = \
            hf.constant_vector(2, [1.0, 2.0]).divergence(x)
        out[f"identity_cell.hessians.{tag}"] = hf.identity_cell(2).hessians(x)
        out[f"twist.b.divergence.{tag}"] = twist_system(0.3).b.divergence(x)
        out[f"sine_cell.part.divergence.{tag}"] = dg.periodic_part.divergence(x)
    return out


# x86-64 Linux, glibc libm, numpy 2.4
FALLBACK_SHA256 = {
    "streams.b.jacobian":
        "57165cb50077d3e37eb9d1b981bf3f56a30324f9e53f34105bd52b472d876f6b",
    "streams.b.divergence":
        "59c4551f0b4772a23fb57d75fc6845db4e8a1c2f2d40149a600f3defedb198cf",
    "theta_of.grad":
        "728438091982619287344c0e750ad6b1d6858058c66d10b18d2980f98b4f4e5a",
    "cell3d.sigma.grad":
        "73faeb2b14b2c237352868273d678ce0912173e61bddcf4d991ca600061e5db1",
    "cell3d.b.jacobian":
        "20c9a87fab0685d03c530308e553cc09ec7cd45904289bd288208d4213ac8113",
    "cell3d.b.divergence":
        "033714b49b3609782de7a8d1c080ddf498f38bf72397295f0d4418ac2beaca14",
    "exact.deltagamma.sigma.grad.batch":
        "cc9ca4f878eebf5439c2e0e187c33d11d1c9cdc4eb56d052b24a1b45c80490ea",
    "exact.deltagamma.b.jacobian.batch":
        "7b46732a114df6e8b1b2838c795795df22fff74371916a25df84517c7caef8a8",
    "exact.deltagamma.b.divergence.batch":
        "21ac1b6fcd176d4d1fb52efa21b7d9a19216428a6a41aeec38efec910238895b",
    "exact.deltagamma.sigma.grad.point":
        "7595fc016ea58516960a22b75089851bc5e27bb3cc763fe7cfa8c51366271647",
    "exact.deltagamma.b.jacobian.point":
        "d6537a2dc20e3f0c47e4ed5a2c711e0861d7eceff85591ff245fe467b7a7a474",
    "exact.deltagamma.b.divergence.point":
        "8ebcbf9e4dc85a730e420fee3c87de7478d1c76a7c868415dea6afc2e255b64b",
    "exact.sine.sigma.grad.batch":
        "de8ab5d9a49c142aebf2999a4197b4da90bb585209de8fe2caf8cb752ffdd06b",
    "exact.sine.b.jacobian.batch":
        "0592ede71d10cbb4b330d2a734fd7f34312e7ea366413322ac2d53521ccc3864",
    "exact.sine.b.divergence.batch":
        "9de64fe615e45be70ab7322ec379d615c2d7c6233ed07893d89bff89c4b7a549",
    "exact.sine.sigma.grad.point":
        "1d56cb78f81f81c4cb44c6ab98f230091b4e01fe432b5d8f9d47270b67749f64",
    "exact.sine.b.jacobian.point":
        "bbabc18634296ce768490724f48a933db8d73a91f388a40b23ff5ece3ec17266",
    "exact.sine.b.divergence.point":
        "16df779dc53aa08eaf201e18a0e09836b4bbceaf319109e1aa8dddd0e6bb5d51",
    "exact.sine3d.sigma.grad.batch":
        "41ae39b14233c25b72cffb97c7140a3e25770fea5f998dac13f6bd49e61af3df",
    "exact.sine3d.b.jacobian.batch":
        "47c5ef515910b9dc399e90ef1d9aefef162885d55fbd49c75ffc00868323b4e5",
    "exact.sine3d.b.divergence.batch":
        "7891253eac51729baf26beb1f485b9d83840d7d5f7b65800cf111d4de54c00cb",
    "exact.sine3d.sigma.grad.point":
        "829887cee61065e6e8c58dbc41acb1759221fa8190b887fe041a7c786195117d",
    "exact.sine3d.b.jacobian.point":
        "3e20b420dc289251d7fb6f9cf7ed3dfdffb5d273da473ff79d59f84cbd2318b7",
    "exact.sine3d.b.divergence.point":
        "7ac72e7600060838fb502b6c9da8e4632c0b188651696f2c6f5c04ae5298712a",
    "twist.identity.W.eval.batch":
        "428e3d539040676afb6e82ae744556f6a0e81871230f86e5d1b3ee8256fd6573",
    "twist.identity.W.eval.point":
        "ec0ca3ef447c45dd77af074b565ed3f862edbc1127d8528d3da2580beac16078",
    "twist.perturbed.W.eval.batch":
        "c4d5d7a9ed9385c8bc511b6b7ed6d6b0397a4ec563f33e4674609e15ad713bdc",
    "twist.perturbed.W.eval.point":
        "8c4b1202bb43b54d4c2e7d9f6718e217d3cb43b39e5b425bc04a24ed7a74fbad",
    "twist.zero_beta.W.eval.batch":
        "502454b8f2f742ce0ce06348cd17e99c606c6543619f3a78eedf441844751d30",
    "twist.zero_beta.W.eval.point":
        "401c9ab88e29a154f6bd52bba43c4745cb95d1b217f9faa766693f1d66bb6bbf",
    "xi0.jacobian":
        "8ec7b821d67e2d2e71247208d1a0395aed6a001a1ba235a38ba913cdc6f6289f",
    "xi0.divergence":
        "f0fc96aa7cb14c9e331ecd9cf9a409d3990bae46fc7191a4fe5958e3909d4db6",
    "drift.jacobian":
        "04a5641f313931d51cbdbdb1abf75c221c17cd363dbf3a2633dd6377f1949960",
    "drift.divergence":
        "69d25682343c78304c7534a5c9dc513f851b799045d95f2d3f80628135f767e3",
    "dynamic.b.jacobian.batch":
        "4da3f798f8537abc0de83d328b63e29547c209135f8234c1befe0e9d0eba2f57",
    "dynamic.b.divergence.batch":
        "f0fc96aa7cb14c9e331ecd9cf9a409d3990bae46fc7191a4fe5958e3909d4db6",
    "dynamic.theta.grad.batch":
        "914334f43dd5ae97635e7b2ce534c225d1caadc40b3bac880d2c4bdfed65750c",
    "dynamic.limit_theta.grad.batch":
        "ad5d4f39d067004e0195b6724eb0fcb3baeba991e5f3a45c32958f45d04df03c",
    "dynamic.b.jacobian.point":
        "c1d04ef6c17eade1efeeb35b8b753454a236ffcfccf72408ba5a89c55c230566",
    "dynamic.b.divergence.point":
        "2d3fc5306167f359ed9f514fda0aa7bdefba1ffd49c7fb27cd21d6faae2f5432",
    "dynamic.theta.grad.point":
        "ae0d1fea0faa0f9e96ce5b3140d8dc7d6c1e12a98c7bb2906fb16bd17be14f88",
    "dynamic.limit_theta.grad.point":
        "c8eb8679f06e5d924747fe39c6f271c5e78577ab989b46a51cb877ef2ed85aaa",
    "constant_scalar.grad.batch":
        "52856dcf260ab4b5e8d8a1a439dc95a5254d8862679b312d913c7815aef20007",
    "constant_scalar.hess.batch":
        "50f063445cff0992968447e4c7d57c147d9ca64e1f135aa80aea57bc0d001cd6",
    "coordinate_scalar.hess.batch":
        "50f063445cff0992968447e4c7d57c147d9ca64e1f135aa80aea57bc0d001cd6",
    "constant_vector.jacobian.batch":
        "50f063445cff0992968447e4c7d57c147d9ca64e1f135aa80aea57bc0d001cd6",
    "constant_vector.divergence.batch":
        "f0fc96aa7cb14c9e331ecd9cf9a409d3990bae46fc7191a4fe5958e3909d4db6",
    "identity_cell.hessians.batch":
        "abd3e9cbcccafa4b0304b26a1423c36f73a4165ddfb888c72fbee11699bf8627",
    "twist.b.divergence.batch":
        "f0fc96aa7cb14c9e331ecd9cf9a409d3990bae46fc7191a4fe5958e3909d4db6",
    "sine_cell.part.divergence.batch":
        "f0fc96aa7cb14c9e331ecd9cf9a409d3990bae46fc7191a4fe5958e3909d4db6",
    "constant_scalar.grad.point":
        "45e2f25e02832ebe2ff01c77369d754e8270cc3707914b80bc591ac522b5e197",
    "constant_scalar.hess.point":
        "be2758a016c074c5b37e4948ff78f03419d2d9a858cf64778f966a512df46395",
    "coordinate_scalar.hess.point":
        "be2758a016c074c5b37e4948ff78f03419d2d9a858cf64778f966a512df46395",
    "constant_vector.jacobian.point":
        "be2758a016c074c5b37e4948ff78f03419d2d9a858cf64778f966a512df46395",
    "constant_vector.divergence.point":
        "2d3fc5306167f359ed9f514fda0aa7bdefba1ffd49c7fb27cd21d6faae2f5432",
    "identity_cell.hessians.point":
        "2c533b29aee6f2ec1486ff8eebb6a543365111785dea8f40db571e3c4312c7e6",
    "twist.b.divergence.point":
        "2d3fc5306167f359ed9f514fda0aa7bdefba1ffd49c7fb27cd21d6faae2f5432",
    "sine_cell.part.divergence.point":
        "2d3fc5306167f359ed9f514fda0aa7bdefba1ffd49c7fb27cd21d6faae2f5432",
}


def test_fallback_and_zero_derivative_bytes_are_pinned():
    assert {name: _digest(v) for name, v in _fallback_outputs().items()} == FALLBACK_SHA256
