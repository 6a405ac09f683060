"""Effective coefficients of the limit transport equation.

Two routes are implemented: unit-cell averages for periodically oscillating
systems (sigma0 = <sigma>, xi0 = <sigma b>), and the cofactor formula for a
known limit straightening map (xi0 = first row of the cofactor matrix of the
map's Jacobian, :func:`~homoflow.fields.jacobian_flux`: the cross product of
the gradients of components 2..N, which in 2D is exactly the rotated
gradient of the second component).  The cell route averages the same
``jacobian_flux`` of the cell Jacobian.  In the fully general case the
effective density has no constructive recipe, so the cofactor route takes
sigma0 from the caller.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import (Array, Diffeo, PeriodicCellMap, ScalarField, VectorField,
                     as_points, fd_vector_field, jacobian_det, jacobian_flux,
                     tensor_grid, zeros)


class InvalidCoefficientsError(ValueError):
    """Effective coefficients violate positivity of the density."""


class ResolutionWarning(UserWarning):
    """Cell averages did not stabilize at the requested resolution."""


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Limit density sigma0 and limit flux xi0 of the homogenized equation.

    Both may be constants (cell-average route, where they must be) or fields
    (cofactor route).  ``quasi_affinity_residual`` and ``resolution`` record
    how the cell-average route converged.
    """

    dim: int
    sigma0: float | ScalarField
    xi0: Array | VectorField
    provenance: str  # "cell-average" | "cofactor-limit"
    quasi_affinity_residual: float | None = None
    resolution: int | None = None

    def __post_init__(self):
        if self.provenance not in ("cell-average", "cofactor-limit"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "cell-average" and not self.is_constant:
            raise ValueError("cell-average coefficients must be constants")
        if isinstance(self.sigma0, (int, float)) and self.sigma0 <= 0.0:
            raise InvalidCoefficientsError("sigma0 must be positive")

    @property
    def is_constant(self) -> bool:
        return (isinstance(self.sigma0, (int, float))
                and not isinstance(self.xi0, VectorField))

    def sigma0_at(self, x: Array) -> Array:
        x = as_points(x, self.dim)
        if isinstance(self.sigma0, ScalarField):
            return self.sigma0.eval(x)
        return np.full(x.shape[:-1], float(self.sigma0))

    def xi0_at(self, x: Array) -> Array:
        x = as_points(x, self.dim)
        if isinstance(self.xi0, VectorField):
            return self.xi0.eval(x)
        return np.broadcast_to(np.asarray(self.xi0, dtype=float), x.shape).copy()

    def drift(self) -> Array | VectorField:
        """xi0 / sigma0: the transport speed of the limit equation."""
        if self.is_constant:
            return np.asarray(self.xi0, dtype=float) / float(self.sigma0)

        def ev(x):
            return self.xi0_at(x) / self.sigma0_at(x)[..., None]

        return fd_vector_field(self.dim, ev)


def cell_average(f: Callable[[Array], Array], dim: int, m: int = 64):
    """Average of a 1-periodic function over the unit cell on an m^dim grid.

    Uniform grids on the torus integrate smooth periodic functions with
    spectral accuracy (trapezoid and midpoint coincide), and are exact for
    trigonometric polynomials of degree below m.
    """
    if m < 8:
        raise ValueError("cell resolution m must be at least 8")
    vals = np.asarray(f(tensor_grid([np.arange(m) / m] * dim)))
    return vals.mean(axis=0)


def effective_from_cell(cell: PeriodicCellMap, m: int = 64) -> EffectiveCoefficients:
    """Cell-average coefficients sigma0 = <det DW>, xi0 = <sigma b>.

    The determinant is quasi-affine, so <det DW> must equal det(M) for the
    affine part M; the residual of that identity is the resolution check.
    Resolution doubles from ``m`` until the residual drops to 1e-10 or the
    resolution reaches 1024; if the residual still exceeds
    1e-8 a :class:`ResolutionWarning` is emitted.
    """
    dim = cell.dim
    det_m = float(jacobian_det(np.asarray(cell.M, dtype=float)))

    res = m
    while True:
        sigma0 = float(cell_average(lambda y: jacobian_det(cell.jacobian(y)), dim, res))
        residual = abs(det_m - sigma0)
        if residual <= 1e-10 or res >= 1024:
            break
        res *= 2
    xi0 = np.asarray(cell_average(lambda y: jacobian_flux(cell.jacobian(y)), dim, res),
                     dtype=float)
    if residual > 1e-8:
        warnings.warn(
            f"quasi-affinity residual {residual:.3e} at resolution {res};"
            " cell averages look under-resolved", ResolutionWarning)
    return EffectiveCoefficients(dim, sigma0, xi0, "cell-average",
                                 quasi_affinity_residual=residual, resolution=res)


def effective_from_limit_map(limit_W: Diffeo,
                             sigma0: float | ScalarField = 1.0) -> EffectiveCoefficients:
    """Cofactor-route coefficients from the limit straightening map.

    xi0(x) = jacobian_flux(jac W)(x), the first row of Cof(jac W)(x); it is
    divergence free (the row-wise divergence of a cofactor matrix of a
    gradient vanishes), and it satisfies jac(W) @ xi0 = det(jac W) e1, the
    limit rectification identity.
    sigma0 is supplied by the caller because the general theory only defines
    it as a weak-* limit.
    """
    dim = limit_W.dim

    def ev(x):
        x = as_points(x, dim)
        return jacobian_flux(limit_W.jacobian(x))

    xi0 = fd_vector_field(dim, ev, zeros(dim), div_bound=0.0)
    return EffectiveCoefficients(dim, sigma0, xi0, "cofactor-limit")


def constant_coefficients(dim: int, sigma0: float, xi0) -> EffectiveCoefficients:
    """Convenience wrapper for known constant coefficients."""
    return EffectiveCoefficients(dim, float(sigma0),
                                 np.asarray(xi0, dtype=float), "cell-average")
