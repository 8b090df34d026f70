"""blochest: average-fidelity estimation benchmarks for qubit mixed states.

The library evaluates how well different measure-and-guess strategies
reconstruct a qubit state drawn from a Bures-metric ensemble, given N
identical copies: local spin measurements along fixed or adaptively
chosen axes, and collective measurements on all copies at once.  Every
scheme is scored by the mean fidelity between the guess and the true
state, computed either exactly (outcome enumeration plus quadrature) or
by seeded Monte Carlo, together with the asymptotic rate constants the
exact sweeps converge to.
"""

from .asymptotics import (
    AsymptoticConstants,
    DegenerateSweepError,
    ExponentFit,
    appendix_integrals,
    assemble_xi_o,
    constants,
    fit_exponent,
)
from .core import (
    Prior,
    PriorKind,
    build_prior,
    random_guess_fidelity,
    sample_states,
)
from .estimators import DegenerateEstimateError
from .evaluator import (
    AllOutcomesDiscardedError,
    EnumerationLimitError,
    FidelityReport,
    Method,
    adaptive_local_fidelity,
    exact_fidelity,
    monte_carlo_fidelity,
)
from .schemes import SchemeKind, SchemeSpec

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "PriorKind",
    "Prior",
    "build_prior",
    "random_guess_fidelity",
    "sample_states",
    # schemes
    "SchemeKind",
    "SchemeSpec",
    # estimators
    "DegenerateEstimateError",
    # evaluator
    "Method",
    "FidelityReport",
    "exact_fidelity",
    "monte_carlo_fidelity",
    "adaptive_local_fidelity",
    "AllOutcomesDiscardedError",
    "EnumerationLimitError",
    # asymptotics
    "AsymptoticConstants",
    "ExponentFit",
    "appendix_integrals",
    "assemble_xi_o",
    "constants",
    "fit_exponent",
    "DegenerateSweepError",
]
