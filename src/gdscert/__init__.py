"""Separability certification for diagonal-symmetric qubit states.

Builds the explicit separable decomposition of diagonal-symmetric mixed
states, applies it to the idealized superradiant cascade, and quantifies
the criterion against partial-transpose tests and state-space volumes.
"""

from .states import (
    CapacityError,
    GDSState,
    SDSParams,
    dicke_projector,
    gds_density_matrix,
    j_max,
    random_sds_params,
    sds_density_matrix_phase_avg,
    sds_populations,
)
from .decompose import (
    CertificationResult,
    SDSDecomposition,
    SolverDegenerateError,
    certify,
    check_population_bounds,
    population_bound,
    solve_decomposition,
    to_power_moments,
)
from .superrad import (
    Trajectory,
    closed_form_n4,
    closed_form_n8,
    evolve,
    generator,
    trajectory,
)
from .ppt import PptReport, is_ppt, partial_transpose, pt_min_eigenvalues
from .volume import (
    VolumeEstimate,
    gds_volume,
    ppt_gds_volume,
    sds_volume_formula,
    sds_volume_mc,
)

__all__ = [
    "CapacityError",
    "CertificationResult",
    "GDSState",
    "PptReport",
    "SDSDecomposition",
    "SDSParams",
    "SolverDegenerateError",
    "Trajectory",
    "VolumeEstimate",
    "certify",
    "check_population_bounds",
    "closed_form_n4",
    "closed_form_n8",
    "dicke_projector",
    "evolve",
    "gds_density_matrix",
    "gds_volume",
    "generator",
    "is_ppt",
    "j_max",
    "partial_transpose",
    "population_bound",
    "ppt_gds_volume",
    "pt_min_eigenvalues",
    "random_sds_params",
    "sds_density_matrix_phase_avg",
    "sds_populations",
    "sds_volume_formula",
    "sds_volume_mc",
    "solve_decomposition",
    "to_power_moments",
    "trajectory",
]

__version__ = "0.1.0"
