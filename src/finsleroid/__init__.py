"""Axially anisotropic relativistic Finsler norm and its tensor geometry.

The package evaluates a time-space signature norm F on tangent vectors,
built from a hyperbolic radial profile and an axially skewed angular
profile, together with its unit covector, angular metric, metric tensor
and determinant.  The unit surface of F has constant sectional curvature
-H^2 and the horizontal section of the ratio space constant Gaussian
curvature p^2; both facts are verifiable numerically via the
``indicatrix`` module and the command-line reports.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DomainError,
    EmptyDomain,
    FinsleroidError,
    NotFutureTimelike,
    OutsideAxialRegion,
    OutsideClosedFormDomain,
    OutsideEtaDomain,
    OutsideRadialDomain,
    PolarAxisSingular,
    TetradDegenerate,
    ThetaPole,
)
from .frame import (
    FrameComponents,
    Parameters,
    Tetrad,
    frame_components,
    load_configuration,
    projections,
)
from .kernel import (
    AngleCoords,
    AngularProfile,
    DomainInfo,
    EvalBundle,
    QuadratureDeltas,
    angles_from_vector,
    angular_profile,
    domain_info,
    eta_from_r,
    finsler_norm,
    oracle_quadrature,
    structural_profile,
    theta_from_f,
    theta_pole,
    vector_from_angles,
)
from .tensors import (
    AngleGradients,
    TensorBundle,
    angle_gradients,
    angular_metric,
    angular_metric_angle_form,
    covector_to_natural,
    finsleroid3_metric,
    metric_determinant_closed,
    metric_tensor,
    metric_tensor_numeric,
    tensor_to_natural,
    unit_covector,
)
from .indicatrix import (
    indicatrix_curvature,
    indicatrix_metric,
    section_curvature,
    unit_vector,
    unit_vector_angle_derivatives,
)
from .limits import (
    ClosedFormConstants,
    closed_form_constants,
    isotropic_v_squared,
    pipeline_v_squared,
    reduction_report,
)
from .sampling import sample_angles, sample_vectors

__version__ = "0.1.0"

# every name imported above, and only those, is public
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
