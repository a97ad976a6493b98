"""Adaptive mixed finite elements (RT0/P0) with a posteriori error control."""

__version__ = "0.1.0"

from .mesh import (Mesh, MeshError, RefineResult, create_initial, refine,
                   uniform_refine, overlay, ancestor_map)
from .fem import (DofMap, SaddleSystem, MixedSolution, FluxField, PwConstData,
                  AssemblyError, SolverError, build_dofmap, project_f,
                  assemble, solve)
from .estimate import (IndicatorReport, OscReport, indicators_stress,
                       indicators_full, oscillations)
from .problems import ProblemSpec, ErrorTriple, builtin, exact_errors
from .adapt import (MarkSet, AdaptTrace, RateFit, dorfler_mark, amfem,
                    approx_data, two_step, fit_rate, contraction_scan,
                    make_reference)
from .verify import CheckResult, SUITE_NAMES, run_suite, run_many

__all__ = [
    "Mesh", "MeshError", "RefineResult", "create_initial", "refine",
    "uniform_refine", "overlay", "ancestor_map",
    "DofMap", "SaddleSystem", "MixedSolution", "FluxField", "PwConstData",
    "AssemblyError", "SolverError", "build_dofmap", "project_f", "assemble",
    "solve",
    "IndicatorReport", "OscReport", "indicators_stress", "indicators_full",
    "oscillations",
    "ProblemSpec", "ErrorTriple", "builtin", "exact_errors",
    "MarkSet", "AdaptTrace", "RateFit", "dorfler_mark", "amfem",
    "approx_data", "two_step", "fit_rate", "contraction_scan",
    "make_reference",
    "CheckResult", "SUITE_NAMES", "run_suite", "run_many",
]
