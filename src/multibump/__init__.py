"""Numerics for k-bump ring solutions of -Lap u + V(|y|) u = u^p.

The package builds the radial ground state, places k copies of it on a
ring, solves the constrained correction problem, maximizes the reduced
energy over the admissible radius window, and Newton-polishes the best
ansatz into a certified positive solution. A configuration-driven CLI
(`multibump`) orchestrates the stages and emits CSV/JSON artifacts.
"""

__version__ = "0.1.0"

from .driver import (
    CertifiedSolution,
    ReducedEnergyCurve,
    ReducedEnergyResult,
    StudyRow,
    StudyTable,
    extend_past_edge,
    maximize_reduced_energy,
    polish_and_certify,
    reduced_energy,
    scaling_study,
)
from .errors import (
    BracketError,
    ContractionError,
    ConvergenceError,
    NumericalError,
    ValidationError,
)
from .geometry import (
    AdmissibleInterval,
    BumpConfiguration,
    PotentialSpec,
    admissible_radii,
    eval_ansatz,
    eval_z1,
    place_bumps,
)
from .grid import (
    SectorGrid,
    build_aligned_sector_grid,
    build_sector_grid,
    energy_functional,
    gram_matrix,
    gram_solver,
    pde_residual,
    stiffness_matrix,
)
from .groundstate import (
    ExpansionConstants,
    RadialProfile,
    expansion_constants,
    radial_integral,
    solve_ground_state,
)
from .interactions import (
    ExpansionTable,
    InteractionLaw,
    expansion_comparison,
    fit_interaction_law,
    interaction_integral,
)
from .reduction import (
    CorrectionResult,
    ReductionContext,
    RieszReport,
    build_reduction_context,
    coercivity_probe,
    riesz_lk,
    solve_correction,
)

__all__ = [
    "__version__",
    "AdmissibleInterval",
    "BracketError",
    "BumpConfiguration",
    "CertifiedSolution",
    "ContractionError",
    "ConvergenceError",
    "CorrectionResult",
    "ExpansionConstants",
    "ExpansionTable",
    "InteractionLaw",
    "NumericalError",
    "PotentialSpec",
    "RadialProfile",
    "ReducedEnergyCurve",
    "ReducedEnergyResult",
    "ReductionContext",
    "RieszReport",
    "SectorGrid",
    "StudyRow",
    "StudyTable",
    "ValidationError",
    "admissible_radii",
    "build_aligned_sector_grid",
    "build_reduction_context",
    "build_sector_grid",
    "coercivity_probe",
    "energy_functional",
    "eval_ansatz",
    "eval_z1",
    "expansion_comparison",
    "expansion_constants",
    "extend_past_edge",
    "fit_interaction_law",
    "gram_matrix",
    "gram_solver",
    "interaction_integral",
    "maximize_reduced_energy",
    "pde_residual",
    "place_bumps",
    "polish_and_certify",
    "radial_integral",
    "reduced_energy",
    "riesz_lk",
    "scaling_study",
    "solve_correction",
    "solve_ground_state",
    "stiffness_matrix",
]
