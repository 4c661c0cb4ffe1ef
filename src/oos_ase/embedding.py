"""Adjacency spectral embedding.

The embedding of a graph is X-hat = U_A S_A^{1/2} built from the top-d
algebraically largest eigenpairs of the adjacency matrix, which are kept on
the result: the LS estimate reads U_A and S_A, the ML ascent X-hat.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError
from .linalg import EigenPairs, top_eigs
from .model import AdjacencyMatrix


@dataclass(frozen=True, eq=False)
class Embedding:
    """Estimated latent positions with the eigenpairs that produced them.

    Invariants (checked at construction): positions equal
    vectors * sqrt(values) entrywise to 1e-12, and every retained
    eigenvalue is strictly positive.
    """

    # Both stay, as neither rounds back from the other: (V s) / s != V in
    # about 10 % of entries at n = 2000 (the LS bits of studies would move),
    # and (P / s) s != P in 200 of 200 random embeddings (ML from files).
    positions: np.ndarray  # (n, d)
    eig: EigenPairs

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", positions)
        # both checks are written so that a NaN fails them
        if not np.all(self.eig.values > 0):
            raise DegenerateSpectrumError(
                "retained eigenvalues must be strictly positive"
            )
        expected = self.eig.vectors * np.sqrt(self.eig.values)
        if positions.shape != expected.shape or not np.max(
            np.abs(positions - expected)
        ) <= 1e-12:
            raise ConfigError("positions do not equal U * sqrt(S) within 1e-12")

    @property
    def n(self):
        return self.positions.shape[0]

    @property
    def d(self):
        return self.positions.shape[1]


def embed_matrix(m, d):
    """Spectral embedding of a dense symmetric matrix.

    This is the computational core of `ase`, exposed directly so that
    noiseless inputs (the edge-probability matrix P = X X^T itself) can be
    embedded in tests and diagnostics without manufacturing a graph. Like
    `top_eigs`, it reads only the lower triangle of m; the strict upper
    part may hold anything finite.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if not 1 <= d <= n:
        raise ConfigError(f"embedding dimension {d} out of range for order {n}")
    eig = top_eigs(m, d)
    if np.any(eig.values <= 1e-10):
        raise DegenerateSpectrumError(
            f"top-{d} spectrum not strictly positive: min eigenvalue "
            f"{eig.values.min():.3e}"
        )
    positions = eig.vectors * np.sqrt(eig.values)
    return Embedding(positions=positions, eig=eig)


def ase(a, d):
    """Adjacency spectral embedding X-hat = U_A S_A^{1/2} of a graph.

    Raises DegenerateSpectrumError when any of the top-d eigenvalues is
    <= 1e-10: positivity is only guaranteed with high probability, and a
    collapsed spectrum should fail loudly rather than silently switch
    estimators. The matrix embedded holds A in its lower triangle only,
    which is all `top_eigs` reads.
    """
    if not isinstance(a, AdjacencyMatrix):
        raise ConfigError("ase expects an AdjacencyMatrix (use embed_matrix "
                          "for raw symmetric input)")
    return embed_matrix(a._lower_dense(), d)

