"""Sharp perimeter and area bounds for hyperbolic cyclic and tangential polygons.

The package has three layers.  hypmath and hmodel provide the metric
substrate: cancellation-free scalar kernels, regular polygon conversions,
and a hyperboloid-model measurement oracle.  polygon and
bounds carry the content: polygon families parameterized by central angle
partitions, and the ten closed-form bounds with their feasibility guards
and equality configurations.  optimize certifies the convexity facts the
bounds rest on and stress-tests each bound against random polygons.
"""

from .errors import (
    AmbiguousInput,
    DegenerateTriangle,
    EvaluationFailure,
    HypergonError,
    IdealVertex,
    Infeasible,
    InvalidPoint,
    InvalidTotal,
    OracleTooLarge,
    OutOfRange,
)
from .hypmath import (
    EPS_GEOM,
    EPS_REL,
    RegularNGonSpec,
    RegularPolygonMetrics,
    acosh1p,
    angle_from_sides,
    coshm1,
    hyp_hypotenuse,
    regular_convert,
    stable_asinh,
    stable_atanh,
    tangential_radius_limit,
)
from .polygon import (
    CyclicPolygon,
    Polygon,
    TangentialPolygon,
    area,
    cyclic_half_angle,
    cyclic_half_side,
    perimeter,
    tangential_interior_angle,
    tangential_tangent_length,
    to_json_dict,
)
from .hmodel import (
    HPoint,
    ORIGIN,
    dist,
    embed,
    measured_area,
    measured_interior_angles,
    measured_perimeter,
)
from .bounds import (
    THEOREMS,
    BoundResult,
    area_radius_limit,
    cor1_inradius_lower,
    equality_value,
    reference_r_from_R,
    thm1_peri_lower,
    thm2_peri_upper,
    thm3_area_lower,
    thm4_area_upper,
    thm5_total_peri_lower,
    thm6_total_peri_lower,
    thm7_radius_threshold,
    thm7_total_area_lower,
    thm8_total_area_lower,
    thm9_total_peri_lower,
    thm9_area_threshold,
    thm10_peri_threshold,
    thm10_total_area_upper,
)
from .optimize import (
    DEFAULT_SEED,
    OBJECTIVES,
    ConvexityCertificate,
    GridOracleResult,
    OptimizationReport,
    SeparableProblem,
    VerificationReport,
    certify_convexity,
    grid_oracle,
    make_problem,
    random_cyclic_polygon,
    random_tangential_polygon,
    solve_equal_sum,
    verify_theorem,
)

__version__ = "0.1.0"
