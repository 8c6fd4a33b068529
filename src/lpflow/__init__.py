"""Dyadic frequency analysis on the torus with a spectral Euler solver."""

from .errors import (DegenerateInputError, FieldFormatError, RepresentationError,
                     ResolutionError, StabilityError, WeightOverflowError)
from .fields import (Grid, GridField, SpectrumSpec, VectorField, as_physical,
                     as_spectral, dealias_field, derivative, dft_forward,
                     dft_inverse, gradient, random_band_limited,
                     random_divergence_free, read_field, write_field)
from .bank import (DyadicDecomposition, LPFilterBank, build_filter_bank,
                   decompose, default_bank, delta_j, p_le, recompose,
                   verify_low_freq_bound)
from .norms import (NormSpec, besov_norm, field_norm, kernel_l1_bound, lp_norm,
                    tl_norm, verify_embedding, verify_equivalence, verify_lifting)
from .maximal import hl_maximal, verify_fefferman_stein, verify_pointwise_bound
from .paraproduct import (BonyPieces, CommutatorSequence, bony, commutator,
                          commutator_sequence, counterexample_scan,
                          verify_commutator_estimate, verify_moser,
                          verify_moser_transport)
from .euler import (FlowMapResult, SolverConfig, Trajectory, energy, euler_rhs,
                    flow_map, jacobian_determinant, leray_project,
                    pressure_gradient, solve, taylor_green, vorticity)
from .iteration import IterationLadder, cauchy_report, iterate, ladder_vs_solve
from .experiments import (DependenceConfig, bona_smith_experiment,
                          continuity_assembly, lipschitz_lowernorm_experiment)
from .reports import ExperimentReport, dump_json

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError", "FieldFormatError", "RepresentationError",
    "ResolutionError", "StabilityError", "WeightOverflowError",
    "Grid", "GridField", "SpectrumSpec", "VectorField",
    "as_physical", "as_spectral", "dealias_field", "derivative",
    "dft_forward", "dft_inverse", "gradient", "random_band_limited",
    "random_divergence_free", "read_field", "write_field",
    "DyadicDecomposition", "LPFilterBank", "build_filter_bank", "decompose",
    "default_bank", "delta_j", "p_le", "recompose", "verify_low_freq_bound",
    "NormSpec", "besov_norm", "field_norm", "kernel_l1_bound", "lp_norm",
    "tl_norm", "verify_embedding", "verify_equivalence", "verify_lifting",
    "hl_maximal", "verify_fefferman_stein", "verify_pointwise_bound",
    "BonyPieces", "CommutatorSequence", "bony", "commutator",
    "commutator_sequence", "counterexample_scan", "verify_commutator_estimate",
    "verify_moser", "verify_moser_transport",
    "FlowMapResult", "SolverConfig", "Trajectory", "energy", "euler_rhs",
    "flow_map", "jacobian_determinant", "leray_project", "pressure_gradient",
    "solve", "taylor_green", "vorticity",
    "IterationLadder", "cauchy_report", "iterate", "ladder_vs_solve",
    "DependenceConfig", "bona_smith_experiment", "continuity_assembly",
    "lipschitz_lowernorm_experiment",
    "ExperimentReport", "dump_json",
]
