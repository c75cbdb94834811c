"""Numerics for mixed multi-species spin glasses: cascade free energies,
Hamilton-Jacobi critical points, convex-case variational formulas, and a
finite-size Monte Carlo oracle for cross-checking them.
"""

from .cascade import (
    CascadeField,
    CascadeSample,
    gg_check,
    overlap_level_law,
    sample_cascade,
    sample_field,
)
from .critpoint import (
    CriticalPoint,
    SolverOptions,
    continuation,
    hat_functional,
    hj_functional,
    parisi_functional,
    solve_critical,
    t_critical,
)
from .errors import (
    BadBreakpoints,
    BudgetExceeded,
    NonConvergence,
    NotIncreasing,
    PartitionMismatch,
    ValidationError,
)
from .finiten import (
    free_energy_mc,
    gibbs_overlap_law,
    identity_checks,
    sample_hamiltonian,
)
from .model import (
    ReferenceMeasure,
    XiModel,
    bipartite,
    convexity_probe,
    frobenius_square,
    grad_lipschitz_const,
    ising_measure,
    load_model_dict,
    pure_p,
    sk,
    theta_eval,
    xi_eval,
    xi_grad,
    xi_hessian,
    xi_star,
)
from .onebody import (
    PsiResult,
    QuadratureSpec,
    gaussian_cascade_logfree,
    psi_eval,
    psi_grad,
    psi_mc,
)
from .paths import (
    PiecewisePath,
    SignedPiecewisePath,
    lp_distance,
)
from .variational import (
    classic_parisi,
    hopf_lax_value,
    parisi_std,
    parisi_sup,
)

__version__ = "0.1.0"

__all__ = [
    "BadBreakpoints", "BudgetExceeded", "CascadeField", "CascadeSample",
    "CriticalPoint", "NonConvergence", "NotIncreasing",
    "PartitionMismatch", "PiecewisePath", "PsiResult",
    "QuadratureSpec", "ReferenceMeasure", "SignedPiecewisePath",
    "SolverOptions", "ValidationError", "XiModel", "bipartite",
    "classic_parisi", "continuation", "convexity_probe",
    "free_energy_mc", "frobenius_square", "gaussian_cascade_logfree",
    "gg_check", "gibbs_overlap_law", "grad_lipschitz_const",
    "hat_functional", "hj_functional", "hopf_lax_value", "identity_checks",
    "ising_measure", "load_model_dict", "lp_distance", "overlap_level_law",
    "parisi_functional", "parisi_std", "parisi_sup", "psi_eval", "psi_grad",
    "psi_mc", "pure_p", "sample_cascade", "sample_field",
    "sample_hamiltonian", "sk", "solve_critical", "t_critical", "theta_eval",
    "xi_eval", "xi_grad", "xi_hessian", "xi_star",
]
