"""The dense oracle of the tests: the graph of a symmetric, hollow 0/1
matrix, the inverse of AdjacencyMatrix.to_dense."""

import numpy as np

from oos_ase.model import AdjacencyMatrix


def from_dense(m):
    m = np.asarray(m)
    assert np.array_equal(m, m.T) and not np.diagonal(m).any()
    # row-major, the packed pair order
    return AdjacencyMatrix(len(m), m[np.triu_indices(len(m), 1)])
