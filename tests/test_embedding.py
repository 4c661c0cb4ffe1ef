import numpy as np
import pytest
import scipy.linalg

from oos_ase import (
    AdjacencyMatrix,
    ConfigError,
    EigenPairs,
    Embedding,
    LatentDistribution,
    ase,
    embed_matrix,
    procrustes,
    sample_adjacency,
    sample_latents,
    sample_oos_edges,
)
from oos_ase import linalg
from oos_ase.errors import DegenerateSpectrumError

from dense import from_dense

MIX = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])


def test_noiseless_embedding_recovers_latents_up_to_rotation():
    # embedding the edge-probability matrix P = X X^T itself must return X
    # exactly, up to the orthogonal indeterminacy
    x = sample_latents(MIX, 200, seed=50).rows
    emb = embed_matrix(x @ x.T, 2)
    r = procrustes(emb.positions, x).rotation
    assert np.linalg.norm(emb.positions @ r - x) <= 1e-8


def test_single_edge_graph_d1():
    # A = [[0,1],[1,0]] has eigenvalues (1, -1); the top one gives
    # positions (1/sqrt(2), 1/sqrt(2)) after the sign convention
    a = from_dense(np.array([[0, 1], [1, 0]]))
    emb = ase(a, 1)
    assert np.allclose(emb.eig.values, [1.0])
    assert np.allclose(emb.positions, np.full((2, 1), np.sqrt(0.5)), atol=1e-12)
    # d=2 would retain the -1 eigenvalue and must refuse
    with pytest.raises(DegenerateSpectrumError):
        ase(a, 2)


def test_positions_are_scaled_eigenvectors():
    x = sample_latents(MIX, 80, seed=51)
    emb = ase(sample_adjacency(x, seed=52), 2)
    assert np.allclose(
        emb.positions, emb.eig.vectors * np.sqrt(emb.eig.values), atol=1e-12
    )
    assert emb.n == 80 and emb.d == 2


def test_embedding_gram_is_best_rank_d_truncation():
    # X-hat X-hat^T must equal the top-d eigenpair truncation of A computed
    # by an independent full eigensolve
    x = sample_latents(MIX, 60, seed=53)
    a = sample_adjacency(x, seed=54).to_dense()
    emb = embed_matrix(a, 2)
    vals, vecs = np.linalg.eigh(a)
    oracle = vecs[:, -2:] @ np.diag(vals[-2:]) @ vecs[:, -2:].T
    approx = emb.positions @ emb.positions.T
    assert np.max(np.abs(approx - oracle)) <= 1e-9


def test_embedding_depends_only_on_gram():
    # latent rotations leave P (hence the embedding) unchanged
    x = sample_latents(MIX, 40, seed=55).rows
    theta = 0.83
    q = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    e1 = embed_matrix(x @ x.T, 2)
    e2 = embed_matrix((x @ q) @ (x @ q).T, 2)
    assert np.max(np.abs(e1.positions - e2.positions)) <= 1e-12


def test_degenerate_spectrum_raises():
    with pytest.raises(DegenerateSpectrumError):
        embed_matrix(np.zeros((5, 5)), 1)


def test_embedding_invariants_reject_nan():
    vectors = np.eye(3)[:, :2]
    vectors[1, 1] = np.nan
    with pytest.raises(ConfigError, match="not orthonormal"):
        Embedding(eig=EigenPairs(values=np.array([4.0, 1.0]), vectors=vectors))
    nan_eig = EigenPairs(values=np.array([np.nan]), vectors=np.eye(3)[:, :1])
    with pytest.raises(DegenerateSpectrumError, match="strictly positive"):
        Embedding(eig=nan_eig)


def test_dimension_out_of_range():
    with pytest.raises(ConfigError):
        embed_matrix(np.eye(3), 0)
    with pytest.raises(ConfigError):
        embed_matrix(np.eye(3), 4)


@pytest.mark.parametrize("m", [np.float64(3.0), np.ones(3)])
def test_embed_matrix_refuses_a_matrix_of_the_wrong_rank(m):
    # the shape is top_eigs' to check: no IndexError from reading shape[0]
    with pytest.raises(ConfigError, match="square matrix"):
        embed_matrix(m, 1)


@pytest.mark.parametrize("n", [100, 300])
def test_ase_refuses_an_edgeless_graph_before_any_eigensolve(n, monkeypatch):
    # ARPACK cannot start on A = 0 (from n = 256 on), and its dense
    # fallback took 2.7 s at n = 4000 only to find the zeros
    def stop(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(linalg, "_lanczos_top", stop)
    monkeypatch.setattr(scipy.linalg, "eigh", stop)
    a = AdjacencyMatrix(n, np.zeros(n * (n - 1) // 2, dtype=bool))
    assert a.edge_count == 0
    for d in (1, 2):
        with pytest.raises(DegenerateSpectrumError) as err:
            ase(a, d)
        assert str(err.value) == (
            f"top-{d} spectrum not strictly positive: min eigenvalue 0.000e+00")
    # the order is checked first
    for d in (0, n + 1):
        with pytest.raises(ConfigError, match=(
                f"embedding dimension {d} out of range for order {n}")):
            ase(a, d)


def test_ase_requires_adjacency_type():
    with pytest.raises(ConfigError, match="AdjacencyMatrix"):
        ase(np.eye(4) - np.eye(4), 1)


@pytest.mark.parametrize("n", [60, 255, 300, 1000])
def test_ase_equals_embedding_of_the_full_matrix(n):
    # ase embeds the lower triangle only; both eigensolver paths must give
    # the bits of the full symmetric matrix
    a = sample_adjacency(sample_latents(MIX, n, seed=n), seed=n + 1)
    lower = a.to_dense()
    for d in (1, 2):
        got, want = ase(a, d), embed_matrix(lower + lower.T, d)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.eig.values, want.eig.values)
        assert np.array_equal(got.eig.vectors, want.eig.vectors)


def test_row_errors_concentrate_at_moderate_n():
    # regression band calibrated by a 100-trial run at n=500 with these
    # seeds: the worst aligned row error stays below 0.31 in >= 95 trials
    # (observed q95 = 0.295) and the mean row error is an order smaller
    hits = 0
    trials = 100
    means = []
    for t in range(trials):
        x = sample_latents(MIX, 500, seed=1000 + t)
        emb = ase(sample_adjacency(x, seed=2000 + t), 2)
        res = procrustes(emb.positions, x.rows)
        rows = np.linalg.norm(emb.positions @ res.rotation - x.rows, axis=1)
        hits += np.max(rows) <= 0.31
        means.append(rows.mean())
    assert hits >= 95
    assert np.median(means) <= 0.1


def test_augmented_embedding_stays_close_to_original():
    # re-embedding after adding one vertex perturbs the first n rows only
    # slightly (frozen draw; alignment removes the frame change)
    x = sample_latents(MIX, 500, seed=58)
    a = sample_adjacency(x, seed=59)
    e = sample_oos_edges(x, MIX.points[0], seed=60)
    # the bordered graph: vertex 500 joined to each vertex e marks
    new = np.flatnonzero(e.a)
    border = np.column_stack((new, np.full_like(new, 500)))
    bordered = AdjacencyMatrix.from_edges(
        501, np.concatenate((a.edges(), border)))
    emb = ase(a, 2)
    emb_big = ase(bordered, 2)
    res = procrustes(emb_big.positions[:500], emb.positions)
    rows = np.linalg.norm(
        emb_big.positions[:500] @ res.rotation - emb.positions, axis=1
    )
    assert np.max(rows) <= 0.1
