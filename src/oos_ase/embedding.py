"""Adjacency spectral embedding.

The embedding of a graph is X-hat = U_A S_A^{1/2} built from the top-d
algebraically largest eigenpairs of the adjacency matrix, which `ase` reads
from the graph's dense lower storage, `AdjacencyMatrix.to_dense()`. The
result keeps the eigenpairs alone, and both out-of-sample solvers read them:
the LS estimate U_A and S_A, the ML ascent U_A in the frame v = S_A^{1/2} w.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError
from .linalg import EigenPairs, top_eigs
from .model import AdjacencyMatrix


@dataclass(frozen=True, eq=False)
class Embedding:
    """The top-d eigenpairs of a graph, whose estimated latent positions are
    X-hat = vectors * root, where root = sqrt(values).

    Invariant (checked at construction): every retained eigenvalue is
    strictly positive.
    """

    eig: EigenPairs

    def __post_init__(self):
        if not np.all(self.eig.values > 0):  # NaN fails it too
            raise DegenerateSpectrumError(
                "retained eigenvalues must be strictly positive"
            )

    @cached_property
    def root(self):
        """sqrt(lambda), (d,): derived from eig.values on first read and
        kept, never stored beside them. positions, lls_oos and ml_oos all
        read it, so the square roots are taken once per embedding."""
        return np.sqrt(self.eig.values)

    @property
    def positions(self):
        """X-hat, (n, d)."""
        return self.eig.vectors * self.root

    @property
    def n(self):
        return self.eig.vectors.shape[0]

    @property
    def d(self):
        return self.eig.vectors.shape[1]


def _degenerate(d, smallest):
    return DegenerateSpectrumError(f"top-{d} spectrum not strictly positive: "
                                   f"min eigenvalue {smallest:.3e}")


def embed_matrix(m, d):
    """Spectral embedding of a dense symmetric matrix.

    This is the computational core of `ase`, exposed directly so that
    noiseless inputs (the edge-probability matrix P = X X^T itself) can be
    embedded in tests and diagnostics without manufacturing a graph. Like
    `top_eigs`, which checks m's shape and d against its order, it reads
    only the lower triangle of m; the strict upper part is never read.
    """
    eig = top_eigs(m, d)
    if np.any(eig.values <= 1e-10):
        raise _degenerate(d, eig.values.min())
    return Embedding(eig=eig)


def ase(a, d):
    """Adjacency spectral embedding X-hat = U_A S_A^{1/2} of a graph.

    Raises DegenerateSpectrumError when any of the top-d eigenvalues is
    <= 1e-10: positivity is only guaranteed with high probability, and a
    collapsed spectrum should fail loudly rather than silently switch
    estimators. An edgeless graph, whose A = 0 has no positive eigenvalue,
    is refused before any eigensolve. The matrix embedded is
    `a.to_dense()`, which holds A in its lower triangle only, all
    `top_eigs` reads.
    """
    if not isinstance(a, AdjacencyMatrix):
        raise ConfigError("ase expects an AdjacencyMatrix (use embed_matrix "
                          "for raw symmetric input)")
    if not 1 <= d <= a.n:
        raise ConfigError(f"embedding dimension {d} out of range for order {a.n}")
    if a.edge_count == 0:
        # embed_matrix's refusal of A = 0, whose every eigenvalue is 0:
        # ARPACK cannot start on it, and the dense fallback costs O(n^3)
        raise _degenerate(d, 0.0)
    return embed_matrix(a.to_dense(), d)
