"""Numerical laboratory for discrete and smooth centro-affine inequalities.

The package studies star polygons with unit consecutive cross products and
their smooth limits: the cross-product energy and its sharp lower bound,
polygonal and smooth area-product (Blaschke-Santalo type) inequalities,
the chord-area functional of Wronskian-normalized loops with its Fourier
Hessian, Schwarzian averages of circle maps, and the far-field dynamics of
outer billiards with its affine-invariant revolution time.
"""

import importlib
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

# The layers load on first use of one of their names (PEP 562), so that
# importing the package, or one layer, loads no layer it does not need.
_EXPORTS = {
    "billiards": (
        "AbsoluteTimeReport", "ConvexTable", "FarFieldCurve", "FarFieldError", "FlowTrajectory",
        "absolute_time", "billiard_orbit", "far_field_curve", "far_field_error",
        "far_field_flow", "gauge_function", "kepler_residual", "named_table",
        "outer_billiard_step", "polygon_table", "support_table",
    ),
    "curves": (
        "DELTA_DIFFEO", "DiffeoCurve", "HessianMode", "HillPotential", "area_functional",
        "area_functional_profile", "average_schwarzian", "chord_average", "chord_bound",
        "criticality_residual", "curve_from_diffeo", "deficit_search", "hessian_mode_numeric",
        "hessian_mode_value", "hill_potential", "petty_product", "polygon_diagonal_average",
        "polygon_diagonal_bound", "positivity_scan", "schwarzian", "schwarzian_potential",
    ),
    "duality": (
        "bs_bound_curve", "bs_bound_polygon", "bs_product_curve", "bs_product_polygon",
        "central_symmetrize",
    ),
    "errors": (
        "AlphaOutOfRange", "ClosureViolation", "ConfigError", "DegenerateRays", "EvenN",
        "InteriorPoint", "InvariantViolation", "NotADiffeo", "NotStarShaped", "NotUnitSpeed",
        "ParseError", "UndefinedOnSingularSet",
    ),
    "planar": (
        "SL2Matrix", "SampledCurve", "StarPolygon", "SupportBody", "TrigSeries", "area_form",
        "circular_shift", "signed_area", "sl2_apply", "spectral_derivative",
    ),
    "polygons": (
        "CrossProducts", "MinimizationResult", "RayConfiguration", "canonical_gauge",
        "closure_residual", "cross_products", "energy", "energy_lower_bound",
        "even_fiber_residual", "frieze_determinant", "frieze_relation_residual",
        "minimize_energy", "normalize_rays", "polygon_rays", "project_to_unit_cross",
        "reconstruct", "regular_polygon",
    ),
    "reports": ("Report",),
    "sampling": (
        "near_regular_polygon", "random_convex_polygon_table", "random_diffeo",
        "random_ray_configuration", "random_sl2", "random_star_polygon",
        "random_star_polygons", "random_support_table", "random_unit_speed_loop",
        "rng_from_seed",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
_LAYERS = tuple(_EXPORTS)

__all__ = sorted({*_LAYERS, *_LAYER_OF})
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAYER_OF:
        return getattr(importlib.import_module(f".{_LAYER_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYERS, *_LAYER_OF})
