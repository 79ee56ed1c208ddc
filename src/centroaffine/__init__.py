"""Numerical laboratory for discrete and smooth centro-affine inequalities.

The package studies star polygons with unit consecutive cross products and
their smooth limits: the cross-product energy and its sharp lower bound,
polygonal and smooth area-product (Blaschke-Santalo type) inequalities,
the chord-area functional of Wronskian-normalized loops with its Fourier
Hessian, Schwarzian averages of circle maps, and the far-field dynamics of
outer billiards with its affine-invariant revolution time.
"""

import os
import sys

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it.  Unless numpy
# is loaded already or the variable is set, load numpy on one BLAS thread and
# take the variable out again, so that child processes inherit nothing.  Why:
# - the largest BLAS operand in the package, a 2000 x 513 phase matrix, is too
#   small to gain from a second thread;
# - the thread pool adds tens of milliseconds to every CLI launch when another
#   core is busy, and its threads burn CPU time while they wait for work;
# - a threaded product sums in another order, so the last digits of a report
#   would depend on the number of cores.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .billiards import (
    AbsoluteTimeReport,
    ConvexTable,
    FarFieldCurve,
    FarFieldError,
    FlowTrajectory,
    absolute_time,
    billiard_orbit,
    far_field_curve,
    far_field_error,
    far_field_flow,
    gauge_function,
    kepler_residual,
    named_table,
    outer_billiard_step,
    polygon_table,
    support_table,
)
from .curves import (
    DELTA_DIFFEO,
    DiffeoCurve,
    HessianMode,
    HillPotential,
    area_functional,
    area_functional_profile,
    average_schwarzian,
    chord_average,
    chord_bound,
    criticality_residual,
    curve_from_diffeo,
    deficit_search,
    hessian_mode_numeric,
    hessian_mode_value,
    hill_potential,
    petty_product,
    polygon_diagonal_average,
    polygon_diagonal_bound,
    positivity_scan,
    schwarzian,
    schwarzian_potential,
)
from .duality import (
    bs_bound_curve,
    bs_bound_polygon,
    bs_product_curve,
    bs_product_polygon,
    central_symmetrize,
)
from .errors import (
    AlphaOutOfRange,
    ClosureViolation,
    ConfigError,
    DegenerateRays,
    EvenN,
    InteriorPoint,
    InvariantViolation,
    NotADiffeo,
    NotStarShaped,
    NotUnitSpeed,
    ParseError,
    UndefinedOnSingularSet,
)
from .planar import (
    SL2Matrix,
    SampledCurve,
    StarPolygon,
    SupportBody,
    TrigSeries,
    area_form,
    circular_shift,
    signed_area,
    sl2_apply,
    spectral_derivative,
)
from .polygons import (
    CrossProducts,
    MinimizationResult,
    RayConfiguration,
    canonical_gauge,
    closure_residual,
    cross_products,
    energy,
    energy_lower_bound,
    even_fiber_residual,
    frieze_determinant,
    frieze_relation_residual,
    minimize_energy,
    normalize_rays,
    polygon_rays,
    project_to_unit_cross,
    reconstruct,
    regular_polygon,
)
from .reports import Report
from .sampling import (
    near_regular_polygon,
    random_convex_polygon_table,
    random_diffeo,
    random_ray_configuration,
    random_sl2,
    random_star_polygon,
    random_support_table,
    random_unit_speed_loop,
    rng_from_seed,
)

__version__ = "0.1.0"
