"""Effective coefficients: cell averages, cofactors, limit rectification."""

import numpy as np
import pytest

import homoflow as hf
from homoflow.flow import IntegratorConfig, flow_map_diffeo
from homoflow.homogenize import ResolutionWarning

from conftest import (deltagamma_system, leibniz_det, shear_velocity,
                      twist_system)


# ---------------------------------------------------------------------------
# cell averages
# ---------------------------------------------------------------------------

def test_cell_average_constant():
    assert hf.cell_average(lambda y: np.full(y.shape[0], 3.0), 2, 64) == 3.0


def test_cell_average_kills_single_mode():
    val = hf.cell_average(lambda y: np.cos(2 * np.pi * y[..., 0]), 2, 64)
    assert abs(val) < 1e-14


def test_cell_average_of_gradient_component_vanishes():
    # derivative of the periodic function sin(2pi y1) cos(4pi y2)
    def ddx(y):
        return 2 * np.pi * np.cos(2 * np.pi * y[..., 0]) * np.cos(4 * np.pi * y[..., 1])
    assert abs(hf.cell_average(ddx, 2, 64)) < 1e-10


def test_cell_average_deltagamma_flux():
    cell = hf.deltagamma_cell(0.3, 0.3)

    def sigma(y):
        return np.linalg.det(cell.jacobian(y))

    def flux(y):
        J = cell.jacobian(y)
        return hf.rot_perp(J[..., 1, :])

    assert abs(hf.cell_average(sigma, 2, 64) - 1.0) < 1e-12
    xi = hf.cell_average(flux, 2, 64)
    assert np.abs(xi - np.array([1.0, 0.0])).max() < 1e-12


def test_cell_average_rejects_tiny_grids():
    with pytest.raises(ValueError):
        hf.cell_average(lambda y: y[..., 0], 2, 4)


# ---------------------------------------------------------------------------
# effective coefficients from cells
# ---------------------------------------------------------------------------

def test_effective_identity_cell():
    coeffs = hf.effective_from_cell(hf.identity_cell(2))
    assert coeffs.sigma0 == 1.0
    assert np.allclose(coeffs.xi0, [1.0, 0.0])
    assert coeffs.provenance == "cell-average"
    assert coeffs.quasi_affinity_residual < 1e-14


@pytest.mark.parametrize("cell,expect_sigma,expect_xi", [
    (hf.deltagamma_cell(0.3, 0.3), 1.0, (1.0, 0.0)),
    (hf.shear_cell(0.3), 1.0, (1.0, 0.0)),
])
def test_effective_sine_cells(cell, expect_sigma, expect_xi):
    coeffs = hf.effective_from_cell(cell, m=64)
    assert abs(coeffs.sigma0 - expect_sigma) < 1e-10
    assert np.abs(np.asarray(coeffs.xi0) - expect_xi).max() < 1e-10
    assert coeffs.quasi_affinity_residual < 1e-10


def test_effective_anisotropic_affine_part():
    cell = hf.sine_cell(np.diag([1.0, 2.0]), 0.3, 0.3)
    coeffs = hf.effective_from_cell(cell, m=64)
    assert abs(coeffs.sigma0 - 2.0) < 1e-10  # quasi-affinity: <det DW> = det M
    assert np.abs(np.asarray(coeffs.xi0) - np.array([2.0, 0.0])).max() < 1e-10


def test_effective_from_cell_warns_when_unresolved():
    # a frequency-1024 cell: every grid up to the largest resolution, 1024,
    # samples its cosine at 1 only, so <det DW> reads 1.5 against det M = 1
    w = 2 * np.pi * 1024

    def ev(y):
        return np.stack([np.sin(w * y[..., 0]) / w,
                         np.zeros(y.shape[:-1])], axis=-1) * 0.5

    def jac(y):
        z = np.zeros(y.shape[:-1])
        return np.stack([np.stack([0.5 * np.cos(w * y[..., 0]), z], axis=-1),
                         np.stack([z, z], axis=-1)], axis=-2)

    part = hf.VectorField(2, ev, jac, lambda y: 0.5 * np.cos(w * y[..., 0]))
    cell = hf.PeriodicCellMap(2, np.eye(2), part, None)
    with pytest.warns(ResolutionWarning, match="resolution 1024"):
        hf.effective_from_cell(cell, m=8)


def test_cell_average_coefficients_must_be_constant():
    field = hf.constant_scalar(2, 1.0)
    with pytest.raises(ValueError):
        hf.EffectiveCoefficients(2, field, np.array([1.0, 0.0]), "cell-average")


# ---------------------------------------------------------------------------
# the Jacobian flux (first cofactor row)
# ---------------------------------------------------------------------------

def _assert_flux_is_first_cofactor_row(A):
    # A @ jacobian_flux(A) = det(A) e1: the rows of A below the first are
    # orthogonal to the flux and the first row pairs with it to det(A)
    det = leibniz_det(A)
    n = A.shape[-1]
    resid = A @ hf.jacobian_flux(A)[..., None]
    resid = resid[..., 0] - det[..., None] * np.eye(n)[0]
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)) ** n)[..., None]
    assert (np.abs(resid) / scale).max() < 1e-12


def test_jacobian_flux_is_first_cofactor_row_random(rng):
    for n in (2, 3, 4):
        _assert_flux_is_first_cofactor_row(rng.standard_normal((100, n, n)))


def test_jacobian_flux_handles_singular_matrices(rng):
    for n in (2, 3, 4):
        A = rng.standard_normal((20, n, n))
        A[:10, -1] = 2.0 * A[:10, 0]  # two proportional rows
        A[10:, :, 0] = -A[10:, :, 1]  # two proportional columns
        _assert_flux_is_first_cofactor_row(A)
        assert np.abs(leibniz_det(A)).max() < 1e-12
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert np.array_equal(A @ hf.jacobian_flux(A), [0.0, 0.0])


# ---------------------------------------------------------------------------
# coefficients from limit maps
# ---------------------------------------------------------------------------

def test_limit_map_identity_gives_unit_drift(rng):
    coeffs = hf.effective_from_limit_map(hf.affine_diffeo(np.eye(2)), 1.0)
    x = rng.uniform(-2, 2, (20, 2))
    assert np.allclose(coeffs.xi0_at(x), [1.0, 0.0])
    assert coeffs.provenance == "cofactor-limit"


def test_limit_map_affine_gives_constant_cofactor_row(rng):
    M = np.array([[1.0, 0.5], [0.2, 2.0]])
    coeffs = hf.effective_from_limit_map(hf.affine_diffeo(M), 1.0)
    x = rng.uniform(-2, 2, (20, 2))
    expected = hf.jacobian_flux(M)
    assert np.abs(coeffs.xi0_at(x) - expected).max() < 1e-12
    # consistency with the cell-average route for the same affine part
    cell_route = hf.effective_from_cell(hf.sine_cell(M, 0.2, 0.3), m=64)
    assert np.abs(np.asarray(cell_route.xi0) - expected).max() < 1e-10


def test_limit_map_shear_flow_matches_rotated_gradient(rng):
    cfg = IntegratorConfig(h=2e-3)
    mapping = flow_map_diffeo(shear_velocity(), 1.0, cfg)
    coeffs = hf.effective_from_limit_map(mapping, 1.0)
    x = rng.uniform(-2, 2, (20, 2))
    xi = coeffs.xi0_at(x)
    assert np.abs(xi - np.stack([np.ones(20), -np.cos(x[:, 0])], axis=-1)).max() < 1e-9
    # layout validation: jac(W) @ xi0 = det(jac W) e1 must hold exactly
    jw = mapping.jacobian(x)
    lhs = np.einsum("...ij,...j->...i", jw, xi)
    rhs = np.linalg.det(jw)[..., None] * np.array([1.0, 0.0])
    assert np.abs(lhs - rhs).max() < 1e-9


def test_limit_drift_is_divergence_free(rng):
    cfg = IntegratorConfig(h=2e-3)
    coeffs = hf.effective_from_limit_map(flow_map_diffeo(shear_velocity(), 1.0, cfg))
    x = rng.uniform(-2, 2, (10, 2))
    tr = np.trace(coeffs.xi0.jacobian(x), axis1=-2, axis2=-1)
    assert np.abs(tr).max() < 1e-5  # finite differences of an exactly solenoidal row


def test_limit_rectification_identity_for_families(rng):
    # jac(limit W) @ xi0 = sigma0 * theta0 * e1 for every generator family
    x = rng.uniform(-2, 2, (200, 2))
    cases = []
    dg = deltagamma_system(0.2)
    cases.append((dg, hf.effective_from_cell(hf.deltagamma_cell(0.3, 0.3))))
    tw = twist_system(0.2)
    cases.append((tw, hf.effective_from_limit_map(tw.limit_W, 1.0)))
    for system, coeffs in cases:
        jw = system.limit_W.jacobian(x)
        lhs = np.einsum("...ij,...j->...i", jw, coeffs.xi0_at(x))
        rhs = (coeffs.sigma0_at(x) * system.limit_theta.eval(x))[..., None] \
            * np.array([1.0, 0.0])
        assert np.abs(lhs - rhs).max() < 1e-10
        det = np.linalg.det(jw)
        assert np.all(det > 0.0)
        assert np.abs(det - coeffs.sigma0_at(x) * system.limit_theta.eval(x)).max() < 1e-10


def test_constant_coefficients_drift():
    coeffs = hf.constant_coefficients(2, 2.0, [3.0, 1.0])
    assert np.allclose(coeffs.drift(), [1.5, 0.5])
    assert coeffs.is_constant
