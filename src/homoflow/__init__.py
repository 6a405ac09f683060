"""homoflow: oscillating drift fields, exact transport along characteristics,
effective coefficients of the limit equation, and convergence diagnostics."""

from .fields import (Curve, Diffeo, FieldError, InvalidCellError,
                     InvalidFamilyError, InvalidMeasureError, PeriodicCellMap,
                     RectifiedSystem, ScalarField, VectorField, affine_diffeo,
                     constant_scalar, constant_vector, coordinate_scalar,
                     cross_product, deltagamma_cell, drift_from_streamfields,
                     hyperbolic_twist_family, identity_cell, identity_curve,
                     jacobian_flux, periodic_family, perturbed_identity_curve,
                     rectification_residual, rot_perp, shear_cell, sine_cell,
                     sine_curve, theta_of, zero_curve)
from .flow import (AccuracyError, BlowupError, FlowState, IntegratorConfig,
                   advect, advect_times, dynamic_flow_family, flow_map_diffeo,
                   semigroup_defect)
from .homogenize import (EffectiveCoefficients, InvalidCoefficientsError,
                         cell_average, constant_coefficients,
                         effective_from_cell, effective_from_limit_map)
from .transport import (Box, InitialDatum, SolutionSampler, TruncationWarning,
                        bump_datum, dependence_box, lp_norm, midpoint_times,
                        solve_homogenized, solve_transport)
from .diagnostics import (ConvergenceReport, InvariantCheck, InvariantReport,
                          PhiConvergence, SpacetimeQuad, TestFunction,
                          convergence_sweep, default_dictionary,
                          density_pairing, invariant_suite, strong_l2_error,
                          weak_pairing)

__version__ = "0.1.0"
