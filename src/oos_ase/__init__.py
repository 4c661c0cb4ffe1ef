"""Adjacency spectral embedding of random dot product graphs, with
least-squares and constrained maximum-likelihood out-of-sample extensions,
and a seeded Monte-Carlo harness for the asymptotics they satisfy.
"""

from .align import (
    ProcrustesResult,
    aligned_error,
    procrustes,
)
from .embedding import Embedding, ase, embed_matrix
from .errors import (
    ConfigError,
    DegeneracyError,
    DegenerateSpectrumError,
    FeasibilityError,
    FileFormatError,
    ModelViolationError,
    NonConvergenceError,
    OosAseError,
    SingularityError,
    SolverError,
    ThresholdError,
)
from .experiments import (
    ExperimentConfig,
    StudyResult,
    TrialRecord,
    run_study,
)
from .linalg import EigenPairs, lstsq, top_eigs
from .model import (
    AdjacencyMatrix,
    EdgeVector,
    LatentDistribution,
    LatentMatrix,
    sample_adjacency,
    sample_latents,
    sample_oos_edges,
)
from .oos import OosEstimate, likelihood, lls_oos, ml_oos
from .theory import (
    ClassifySpec,
    chi2_quantile,
    classify_error,
    classify_threshold,
    delta,
    error_ratio_curve,
    norm_cdf,
    sigma_clt,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "ClassifySpec",
    "ConfigError",
    "DegeneracyError",
    "DegenerateSpectrumError",
    "EdgeVector",
    "EigenPairs",
    "Embedding",
    "ExperimentConfig",
    "FeasibilityError",
    "FileFormatError",
    "LatentDistribution",
    "LatentMatrix",
    "ModelViolationError",
    "NonConvergenceError",
    "OosAseError",
    "OosEstimate",
    "ProcrustesResult",
    "SingularityError",
    "SolverError",
    "StudyResult",
    "ThresholdError",
    "TrialRecord",
    "aligned_error",
    "ase",
    "chi2_quantile",
    "classify_error",
    "classify_threshold",
    "delta",
    "embed_matrix",
    "error_ratio_curve",
    "likelihood",
    "lls_oos",
    "lstsq",
    "ml_oos",
    "norm_cdf",
    "procrustes",
    "run_study",
    "sample_adjacency",
    "sample_latents",
    "sample_oos_edges",
    "sigma_clt",
    "top_eigs",
]
