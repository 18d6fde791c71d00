"""waistlab: waist and isoperimetric lower bounds for unit spheres of
uniformly convex normed spaces, verified at desk scale by cone-measure
Monte Carlo and a needle property suite."""

__version__ = "0.1.0"

from .norms import (  # noqa: F401
    ModulusCurve,
    NormDescriptor,
    analytic_modulus_curve,
    euclidean_norm,
    format_norm,
    lp_norm,
    norm_eval,
    numeric_modulus,
    parse_norm,
    smooth_norm,
)
from .bounds import (  # noqa: F401
    BoundInputs,
    BoundValue,
    bound_table,
    cap_angles,
    gromov_milman_bound,
    projection_lower_bound,
    round_sphere_reference,
    sine_integrals,
    sphere_tube_volume,
    waist_lower_bound,
)
from .cone import (  # noqa: F401
    MeasureEstimate,
    SampleBatch,
    best_fiber,
    fiber_points,
    sample_conical,
)
from .needles import (  # noqa: F401
    ArcDensity,
    ConvexCapSpec,
    EmptyConvexSetError,
    decay_bound_check,
    derived_density_estimate,
    is_weakly_concave,
    max_structure_check,
    needle_ratio_and_ball,
    needle_suite,
    random_arc_density,
)
