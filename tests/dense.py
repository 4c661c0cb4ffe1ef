"""The dense oracles of the tests: the graph of a symmetric, hollow 0/1
matrix, the inverse of m + m.T for m = AdjacencyMatrix.to_dense(), and a
graph's lower triangle written edge by edge."""

import numpy as np

from oos_ase.model import AdjacencyMatrix


def from_dense(m):
    m = np.asarray(m)
    assert np.array_equal(m, m.T) and not np.diagonal(m).any()
    # row-major, the packed pair order
    return AdjacencyMatrix(len(m), m[np.triu_indices(len(m), 1)])


def lower_from_edges(adj):
    """A's strict lower triangle, zero elsewhere, as a C-ordered n x n
    float64 array written from the edge list: what to_dense returns."""
    m = np.zeros((adj.n, adj.n))
    i, j = adj.edges().T
    m[j, i] = 1.0
    return m
