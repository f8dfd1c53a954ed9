"""Tensor-train subtensor sampling: incoherence and conditioning inheritance.

The package measures how the key spectral properties of a tensor train —
unfolding incoherence and condition numbers — survive fiber-wise sampling
(keeping a subset of rows of an unfolding, or a row/column submatrix of it),
and verifies numerically that the sampled objects obey the known
inheritance inequalities.  All large-tensor work runs on the low-rank
interface factors; nothing ever materializes a full unfolding.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    GenerationError,
    NumericError,
    RankZeroError,
    SamplingError,
    SearchError,
    SingularityError,
    StructuralError,
    TrialError,
    TTInheritError,
)
from .multiindex import (
    IndexSet,
    Shape,
    delinearize,
    derived_rng,
    derived_seed,
    kron_extend,
    linearize,
    sample_without_replacement,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    ThinSVD,
    condition_number,
    numerical_rank,
    pinv_spectral_norm,
    thin_svd,
)
from .tt import (
    TTTensor,
    entry,
    left_interface,
    right_interface,
    row_restrict,
    submatrix_svd,
    tt_rank_numerical,
    unfolding_svd,
)
from .container import load_tt, save_tt
from .properties import (
    ALPHA_1,
    IncoherencePair,
    InheritanceRecord,
    UnfoldingReport,
    alpha_i,
    alpha_it,
    beta_i,
    check_column_sampling_bounds,
    check_rank_preservation,
    check_row_sampling_bounds,
    incoherence,
    row_sampling_factors,
    tt_incoherence,
)
from .oracle import column_submatrix, to_dense, tt_svd_from_dense
from .generators import KINDS, GeneratorSpec, generate
from .experiment import (
    BoxplotSummary,
    ExperimentConfig,
    ExperimentResult,
    TrialResult,
    desk_preset,
    paper_preset,
    param_grid,
    run_experiment,
    run_trial,
    summarize_boxplot,
    write_outputs,
)

__all__ = [
    "__version__",
    # errors
    "TTInheritError",
    "DomainError",
    "StructuralError",
    "NumericError",
    "SamplingError",
    "RankZeroError",
    "SingularityError",
    "CapacityError",
    "SearchError",
    "GenerationError",
    "TrialError",
    "ConfigError",
    # multiindex
    "Shape",
    "IndexSet",
    "linearize",
    "delinearize",
    "kron_extend",
    "sample_without_replacement",
    "derived_rng",
    "derived_seed",
    # linalg
    "DEFAULT_RANK_TOL",
    "ThinSVD",
    "thin_svd",
    "numerical_rank",
    "pinv_spectral_norm",
    "condition_number",
    # tt + container
    "TTTensor",
    "entry",
    "left_interface",
    "right_interface",
    "unfolding_svd",
    "submatrix_svd",
    "tt_rank_numerical",
    "row_restrict",
    "save_tt",
    "load_tt",
    # properties
    "ALPHA_1",
    "IncoherencePair",
    "UnfoldingReport",
    "InheritanceRecord",
    "incoherence",
    "tt_incoherence",
    "alpha_it",
    "alpha_i",
    "beta_i",
    "row_sampling_factors",
    "check_rank_preservation",
    "check_row_sampling_bounds",
    "check_column_sampling_bounds",
    # dense oracle
    "to_dense",
    "column_submatrix",
    "tt_svd_from_dense",
    # generators
    "KINDS",
    "GeneratorSpec",
    "generate",
    # experiment
    "ExperimentConfig",
    "TrialResult",
    "BoxplotSummary",
    "ExperimentResult",
    "param_grid",
    "desk_preset",
    "paper_preset",
    "run_trial",
    "run_experiment",
    "summarize_boxplot",
    "write_outputs",
]
