"""Orthogonal alignment between estimated and true latent positions.

The model is identifiable only up to an orthogonal transform, so every
comparison against ground truth first solves an orthogonal Procrustes
problem. Convention, used everywhere: rows are positions;
procrustes(source, target) returns the R minimizing ||source R - target||_F,
and a single estimate w is carried into the target frame as R^T w.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linalg import check_orthonormal


@dataclass(frozen=True, eq=False)
class ProcrustesResult:
    rotation: np.ndarray  # (d, d), orthogonal

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        object.__setattr__(self, "rotation", r)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ConfigError("rotation must be a square matrix")
        check_orthonormal(r, "rotation is not orthogonal")


def procrustes(source, target):
    """Orthogonal Procrustes: R = U V^T from the SVD of source^T target.

    Minimizes ||source @ R - target||_F over orthogonal R. No scaling, no
    translation — the model's nonidentifiability is purely orthogonal.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim != 2:
        raise ConfigError("procrustes inputs must have identical n x d shapes")
    if source.shape[0] < source.shape[1]:
        raise ConfigError("procrustes needs at least d rows")
    cross = source.T @ target
    if not np.isfinite(cross).all():
        raise ConfigError("procrustes inputs contain non-finite entries")
    u, _, vt = np.linalg.svd(cross)
    return ProcrustesResult(rotation=u @ vt)


def aligned_error(est, r, wbar):
    """Error ||R^T w - w-bar|| of an estimate carried into the truth frame."""
    w = est.w if hasattr(est, "w") else np.asarray(est, dtype=float)
    return float(np.linalg.norm(r.rotation.T @ w - np.asarray(wbar, dtype=float)))
