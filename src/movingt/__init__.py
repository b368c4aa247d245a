"""Adaptive method-of-moments estimation of Student-t parameters.

Moving estimators track the location, scale and tail exponent of
heavy-tailed, nonstationary series through exponential moving averages
of absolute central moments; static estimators, a scale MLE and a
GARCH(1,1) baseline accompany them for evaluation.
"""

from .adaptive import (AdaptiveConfig, EmaState, ParamTrajectory, run,
                       seed_state_from_prefix, step, update)
from .baselines import (GarchFit, GarchParams, fit_garch_mle, fit_sigma_mle,
                        garch_filter)
from .data_io import (ReturnSeries, Segment, generate_synthetic, read_csv,
                      to_log_returns)
from .distribution import (NU_GAUSSIAN, StudentTParams, abs_central_moment,
                           cdf, log_density)
from .errors import (DegenerateDataError, DivergentMomentError, DomainError,
                     MonotonicityError, MovingTError, NonConvergenceError,
                     ParseError, SeriesTooShortError)
from .evaluation import (SweepReport, TailTable, expected_tail_fraction,
                         mean_log_likelihood, nu_sweep, tail_table)
from .static_estimators import build_nu_table, compute_moments, static_fit

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig", "EmaState", "ParamTrajectory", "run",
    "seed_state_from_prefix", "step", "update",
    "GarchFit", "GarchParams", "fit_garch_mle", "fit_sigma_mle", "garch_filter",
    "ReturnSeries", "Segment",
    "generate_synthetic", "read_csv", "to_log_returns",
    "NU_GAUSSIAN", "StudentTParams", "abs_central_moment", "cdf",
    "log_density",
    "DegenerateDataError", "DivergentMomentError", "DomainError",
    "MonotonicityError", "MovingTError", "NonConvergenceError",
    "ParseError", "SeriesTooShortError",
    "SweepReport", "TailTable", "expected_tail_fraction",
    "mean_log_likelihood", "nu_sweep", "tail_table",
    "build_nu_table", "compute_moments", "static_fit",
    "__version__",
]
