import numpy as np
import pytest

from oos_ase import (
    ConfigError,
    LatentDistribution,
    ProcrustesResult,
    aligned_error,
    ase,
    embed_matrix,
    lls_oos,
    procrustes,
    sample_adjacency,
    sample_latents,
    sample_oos_edges,
)

MIX = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])


def _random_rotation(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diagonal(r))


def test_procrustes_identity():
    rng = np.random.default_rng(100)
    m = rng.standard_normal((30, 3))
    res = procrustes(m, m)
    assert np.linalg.norm(m @ res.rotation - m) <= 1e-10
    assert np.allclose(res.rotation, np.eye(3), atol=1e-8)


def test_procrustes_recovers_planted_rotation():
    rng = np.random.default_rng(101)
    target = rng.standard_normal((40, 3))
    q0 = _random_rotation(3, rng)
    source = target @ q0.T
    res = procrustes(source, target)
    assert np.allclose(res.rotation, q0, atol=1e-10)
    assert np.linalg.norm(source @ res.rotation - target) <= 1e-10


def test_procrustes_beats_random_probes():
    rng = np.random.default_rng(102)
    target = rng.standard_normal((25, 2))
    source = target @ _random_rotation(2, rng).T + 0.05 * rng.standard_normal(
        (25, 2)
    )
    misfit = np.linalg.norm(source @ procrustes(source, target).rotation
                            - target)
    for _ in range(1000):
        q = _random_rotation(2, rng)
        assert misfit <= np.linalg.norm(source @ q - target) + 1e-12


def test_procrustes_shape_checks():
    with pytest.raises(ConfigError, match="shape"):
        procrustes(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ConfigError, match="rows"):
        procrustes(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ConfigError, match="non-finite"):
        procrustes(np.array([[1.0, 0.0], [0.0, np.nan]]), np.eye(2))


def test_procrustes_result_validates_orthogonality():
    with pytest.raises(ConfigError, match="orthogonal"):
        ProcrustesResult(rotation=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ConfigError, match="orthogonal"):
        ProcrustesResult(rotation=np.full((2, 2), np.nan))
    # orthonormal columns alone do not make a rotation
    with pytest.raises(ConfigError, match="square"):
        ProcrustesResult(rotation=np.eye(3)[:, :2])


def test_clt_rotation_agrees_with_procrustes_on_fixture():
    # the paper's alignment V_n = V_A V_P^T, from the SVD
    # U_A^T U_P = V_A Sigma V_P^T of the embedding's eigenbasis against that
    # of P = X X^T, and the Procrustes alignment to the eigenbasis
    # positions nearly coincide at n=500
    x = sample_latents(MIX, 500, seed=109)
    emb = ase(sample_adjacency(x, seed=110), 2)
    emb_p = embed_matrix(x.rows @ x.rows.T, 2)
    v_a, _, v_pt = np.linalg.svd(emb.eig.vectors.T @ emb_p.eig.vectors)
    v_n = v_a @ v_pt
    # X V_X is exactly P's eigenbasis positions: the Procrustes fit is exact
    v_x = procrustes(x.rows, emb_p.positions).rotation
    assert np.linalg.norm(x.rows @ v_x - emb_p.positions) <= 1e-10
    r_p = procrustes(emb.positions, x.rows @ v_x).rotation
    assert np.linalg.norm(v_n - r_p) <= 0.2
    # same statement in the truth frame: V_n V_X^T vs plain Procrustes to X
    r = procrustes(emb.positions, x.rows).rotation
    assert np.linalg.norm(v_n @ v_x.T - r) == pytest.approx(
        np.linalg.norm(v_n - r_p), abs=1e-12
    )


def test_aligned_error_isometries():
    rng = np.random.default_rng(111)
    q = _random_rotation(2, rng)
    r = ProcrustesResult(rotation=q)
    wbar = np.array([0.2, 0.7])
    assert aligned_error(q @ wbar, r, wbar) <= 1e-12
    delta = 0.037
    assert aligned_error(q @ (wbar + delta * np.eye(2)[0]), r, wbar) == (
        pytest.approx(delta, abs=1e-12)
    )


def test_aligned_error_accepts_estimates_and_vectors():
    x = sample_latents(MIX, 200, seed=112)
    emb = ase(sample_adjacency(x, seed=113), 2)
    a = sample_oos_edges(x, MIX.points[0], seed=114)
    est = lls_oos(emb, a)
    r = procrustes(emb.positions, x.rows)
    e1 = aligned_error(est, r, MIX.points[0])
    e2 = aligned_error(est.w, r, MIX.points[0])
    assert e1 == e2
    assert e1 <= 0.5  # loose single-draw sanity; rate checks live elsewhere


def test_trial_pipeline_bit_exact_reproduction():
    def run():
        x = sample_latents(MIX, 150, seed=115)
        emb = ase(sample_adjacency(x, seed=116), 2)
        a = sample_oos_edges(x, MIX.points[1], seed=117)
        r = procrustes(emb.positions, x.rows)
        return aligned_error(lls_oos(emb, a), r, MIX.points[1])

    first, second = run(), run()
    assert first == second  # identical bits, not just close
