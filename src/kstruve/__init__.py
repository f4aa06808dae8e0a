"""k-Struve special functions, Sumudu/Riemann-Liouville transforms, and
closed-form solutions of fractional kinetic equations with an independent
Volterra validator.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    KStruveError,
    QuadratureError,
    QuadratureWarning,
    SolverError,
)
from .kinetics import (
    AdjudicationReport,
    KineticProblem,
    OracleResult,
    SeriesSolution,
    adjudicate,
    classical_decay,
    solve_closed_form,
    solve_corollary_k1,
    volterra_oracle,
)
from .specfun import (
    KStruveParams,
    TruncationPolicy,
    WrightParams,
    fox_wright,
    k_gamma,
    k_struve,
    log_gamma,
    log_k_gamma,
    mittag_leffler,
    struve_h,
)
from .transforms import (
    QuadratureSpec,
    TimeGrid,
    inverse_sumudu_kstruve,
    rl_fractional_integral,
    sumudu_kstruve_closed,
    sumudu_numeric,
    sumudu_power_rule,
    sumudu_rl_rule,
)

__version__ = "0.1.0"

__all__ = [
    "AdjudicationReport",
    "ConvergenceError",
    "DomainError",
    "KStruveError",
    "KStruveParams",
    "KineticProblem",
    "OracleResult",
    "QuadratureError",
    "QuadratureSpec",
    "QuadratureWarning",
    "SeriesSolution",
    "SolverError",
    "TimeGrid",
    "TruncationPolicy",
    "WrightParams",
    "adjudicate",
    "classical_decay",
    "fox_wright",
    "inverse_sumudu_kstruve",
    "k_gamma",
    "k_struve",
    "log_gamma",
    "log_k_gamma",
    "mittag_leffler",
    "rl_fractional_integral",
    "solve_closed_form",
    "solve_corollary_k1",
    "struve_h",
    "sumudu_kstruve_closed",
    "sumudu_numeric",
    "sumudu_power_rule",
    "sumudu_rl_rule",
    "volterra_oracle",
]
