"""Stabilized reduced-basis solver for parametrized cavity flow.

Full-order finite-element solves of steady Stokes / Navier-Stokes
lid-driven cavity problems on a geometrically parametrized rectangle,
residual-based pressure stabilization for equal-order and other
non-inf-sup-stable velocity/pressure pairs, and a greedy reduced-basis
layer with supremizer enrichment whose online formulation can keep or
drop the stabilization terms.
"""

from .assembly import GeometryMap, StabilizationConfig
from .hifi import FeSolution, FlowSystem, ProblemConfig
from .rb import (GreedyTrace, ReducedModel, SupremizerOperator,
                 build_reduced_model, greedy_offline, load_model,
                 modified_infsup, plain_infsup, reconstruct, save_model,
                 solve_reduced, truncate_model, with_option)
from .analysis import (ConvergenceResult, ErrorReport, convergence_study,
                       error_sweep, infsup_profile, manufactured_errors,
                       relative_errors)
from .util import (ConfigError, NonConvergenceError, PointNotFoundError,
                   SingularSystemError)

__version__ = "0.1.0"

__all__ = [
    "GeometryMap", "StabilizationConfig", "FeSolution", "FlowSystem",
    "ProblemConfig", "GreedyTrace", "ReducedModel", "SupremizerOperator",
    "build_reduced_model", "greedy_offline", "load_model",
    "modified_infsup", "plain_infsup", "reconstruct", "save_model",
    "solve_reduced", "truncate_model", "with_option", "ConvergenceResult", "ErrorReport",
    "convergence_study", "error_sweep", "infsup_profile",
    "manufactured_errors", "relative_errors", "ConfigError",
    "NonConvergenceError",
    "PointNotFoundError", "SingularSystemError", "__version__",
]
