"""Orthogonal alignment between estimated and true latent positions.

The model is identifiable only up to an orthogonal transform, so every
comparison against ground truth first solves an orthogonal Procrustes
problem. Convention, used everywhere: rows are positions;
procrustes(source, target) returns the R minimizing ||source R - target||_F,
and a single estimate w is carried into the target frame as R^T w.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateAlignmentError
from .linalg import EigenPairs, svd_small


@dataclass(frozen=True, eq=False)
class ProcrustesResult:
    rotation: np.ndarray  # (d, d), orthogonal
    residual: float  # ||source @ rotation - target||_F

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        object.__setattr__(self, "rotation", r)
        defect = r.T @ r - np.eye(r.shape[0])
        if not np.max(np.abs(defect)) <= 1e-10:  # a NaN fails too
            raise ConfigError("rotation is not orthogonal (defect > 1e-10)")


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
    u, _, v = svd_small(source.T @ target)
    rotation = u @ v.T
    residual = float(np.linalg.norm(source @ rotation - target))
    return ProcrustesResult(rotation=rotation, residual=residual)


def clt_rotation(emb_a, u_p):
    """The alignment V_n = V_A V_P^T from the SVD U_A^T U_P = V_A Sigma V_P^T.

    Maps the embedding's eigenbasis onto the eigenbasis of the
    edge-probability matrix P = X X^T (known in simulation). Note that the
    truth X itself may be rotated relative to P's eigenbasis — see
    `latent_eigenpairs`, which exposes that rotation.
    """
    if not isinstance(u_p, EigenPairs):
        raise ConfigError("clt_rotation expects EigenPairs for the P basis")
    if u_p.k != emb_a.d or u_p.vectors.shape[0] != emb_a.n:
        raise ConfigError("eigenbasis shapes do not match the embedding")
    overlap = emb_a.eig.vectors.T @ u_p.vectors
    v_a, sigma, v_p = svd_small(overlap)
    if sigma[-1] < 1e-10:
        raise DegenerateAlignmentError(
            f"eigenbasis overlap is rank-deficient (sigma_min {sigma[-1]:.3e})"
        )
    return v_a @ v_p.T


def latent_eigenpairs(x):
    """Eigenpairs of P = X X^T plus the truth-to-eigenbasis rotation.

    From the thin SVD X = Q diag(s) V_X^T: P's nonzero eigenvalues are s^2
    with eigenvectors Q, and the rows of X are the eigenbasis positions
    Q diag(s) rotated by V_X^T. Returns (EigenPairs(s^2, Q), V_X) with the
    package sign convention applied consistently to both factors, so that
    X == Q @ diag(s) @ V_X.T holds exactly.

    V_X is what composes the Eq.-style rotation from `clt_rotation` into
    the truth frame: V_X @ V_n^T carries an estimate onto w-bar itself.
    """
    rows = np.asarray(x.rows if hasattr(x, "rows") else x, dtype=float)
    if rows.ndim != 2:
        raise ConfigError("latent matrix must be 2-D")
    q, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s[-1] <= 0:
        raise DegenerateAlignmentError("latent matrix is rank-deficient")
    idx = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[idx, np.arange(q.shape[1])])
    signs[signs == 0] = 1.0
    q = q * signs
    vt = vt * signs[:, None]
    return EigenPairs(values=s**2, vectors=q), vt.T


def aligned_error(est, r, wbar):
    """Error ||R^T w - w-bar|| of an estimate carried into the truth frame."""
    w = est.w if hasattr(est, "w") else np.asarray(est, dtype=float)
    return float(np.linalg.norm(r.rotation.T @ w - np.asarray(wbar, dtype=float)))
