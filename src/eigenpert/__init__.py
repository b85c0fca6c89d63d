"""Certified spectral perturbation bounds for matrices of the form
D + sqrt(D) (sum_k v_k v_k^T) sqrt(D), with an exact rank-one secular
solver and an empirical tightness harness.
"""

from .bounds import (
    BoundEntry,
    BoundParams,
    BoundReport,
    alpha,
    cm_constant,
    eigenvalue_bound_rank1,
    eigenvalue_bound_rankm,
    eigvec_bound_rank1,
    eigvec_bound_rank1_refined,
    eigvec_bound_rankm,
    j_index,
    psi_inf,
)
from .harness import (
    Instance,
    ScanRecord,
    SlopeFit,
    certify,
    certify_grid,
    default_grid,
    fit_slope,
    gen_instance,
    gen_rankone_instance,
    scan,
)
from .rankone import (
    RankOneUpdate,
    SecularSolution,
    rankone_full,
    secular_eigenvalues,
)
from .symmat import (
    EigenDecomposition,
    PerturbationSet,
    Spectrum,
    SymmetricMatrix,
    build_perturbed,
    general_to_diagonal,
    jacobi_eig,
)

__version__ = "0.1.0"

__all__ = [
    "alpha",
    "BoundEntry",
    "BoundParams",
    "BoundReport",
    "build_perturbed",
    "certify",
    "certify_grid",
    "cm_constant",
    "default_grid",
    "EigenDecomposition",
    "eigenvalue_bound_rank1",
    "eigenvalue_bound_rankm",
    "eigvec_bound_rank1",
    "eigvec_bound_rank1_refined",
    "eigvec_bound_rankm",
    "fit_slope",
    "gen_instance",
    "gen_rankone_instance",
    "general_to_diagonal",
    "Instance",
    "j_index",
    "jacobi_eig",
    "PerturbationSet",
    "psi_inf",
    "RankOneUpdate",
    "rankone_full",
    "scan",
    "ScanRecord",
    "SecularSolution",
    "secular_eigenvalues",
    "SlopeFit",
    "Spectrum",
    "SymmetricMatrix",
]
