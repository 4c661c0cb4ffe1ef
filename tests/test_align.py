import numpy as np
import pytest

from oos_ase import (
    ConfigError,
    EigenPairs,
    Embedding,
    LatentDistribution,
    ProcrustesResult,
    aligned_error,
    ase,
    clt_rotation,
    latent_eigenpairs,
    lls_oos,
    procrustes,
    sample_adjacency,
    sample_latents,
    sample_oos_edges,
)
from oos_ase.errors import DegenerateAlignmentError

MIX = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])


def _random_rotation(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diagonal(r))


def _orthonormal_embedding(n, d, values, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    eig = EigenPairs(values=np.asarray(values, dtype=float), vectors=q)
    return Embedding(
        positions=eig.vectors * np.sqrt(eig.values), eig=eig, source_order=n
    )


def test_procrustes_identity():
    rng = np.random.default_rng(100)
    m = rng.standard_normal((30, 3))
    res = procrustes(m, m)
    assert res.residual <= 1e-10
    assert np.allclose(res.rotation, np.eye(3), atol=1e-8)


def test_procrustes_recovers_planted_rotation():
    rng = np.random.default_rng(101)
    target = rng.standard_normal((40, 3))
    q0 = _random_rotation(3, rng)
    res = procrustes(target @ q0.T, target)
    assert np.allclose(res.rotation, q0, atol=1e-10)
    assert res.residual <= 1e-10


def test_procrustes_beats_random_probes():
    rng = np.random.default_rng(102)
    target = rng.standard_normal((25, 2))
    source = target @ _random_rotation(2, rng).T + 0.05 * rng.standard_normal(
        (25, 2)
    )
    res = procrustes(source, target)
    for _ in range(1000):
        q = _random_rotation(2, rng)
        assert res.residual <= np.linalg.norm(source @ q - target) + 1e-12


def test_procrustes_shape_checks():
    with pytest.raises(ConfigError, match="shape"):
        procrustes(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ConfigError, match="rows"):
        procrustes(np.zeros((2, 3)), np.zeros((2, 3)))


def test_procrustes_result_validates_orthogonality():
    with pytest.raises(ConfigError, match="orthogonal"):
        ProcrustesResult(rotation=np.array([[1.0, 0.5], [0.0, 1.0]]), residual=0.0)
    with pytest.raises(ConfigError, match="orthogonal"):
        ProcrustesResult(rotation=np.full((2, 2), np.nan), residual=0.0)


def test_clt_rotation_identity():
    emb = _orthonormal_embedding(50, 2, [4.0, 1.0], seed=103)
    assert np.allclose(clt_rotation(emb, emb.eig), np.eye(2), atol=1e-12)


def test_clt_rotation_planted():
    rng = np.random.default_rng(104)
    emb_p = _orthonormal_embedding(50, 2, [4.0, 1.0], seed=105)
    q0 = _random_rotation(2, rng)
    eig_a = EigenPairs(values=np.array([4.0, 1.0]), vectors=emb_p.eig.vectors @ q0)
    emb_a = Embedding(
        positions=eig_a.vectors * np.sqrt(eig_a.values), eig=eig_a, source_order=50
    )
    # U_A = U_P Q0  =>  U_A^T U_P = Q0^T, whose SVD gives back Q0^T
    assert np.allclose(clt_rotation(emb_a, emb_p.eig), q0.T, atol=1e-10)


def test_clt_rotation_orthogonal_output_and_degenerate_input():
    x = sample_latents(MIX, 100, seed=106)
    emb = ase(sample_adjacency(x, seed=107), 2)
    u_p, _ = latent_eigenpairs(x)
    v_n = clt_rotation(emb, u_p)
    assert np.max(np.abs(v_n.T @ v_n - np.eye(2))) <= 1e-10

    # orthogonal eigenbases have zero overlap -> degenerate
    basis = np.eye(4)
    eig_a = EigenPairs(values=np.array([1.0]), vectors=basis[:, :1])
    emb_a = Embedding(positions=basis[:, :1], eig=eig_a, source_order=4)
    u_bad = EigenPairs(values=np.array([1.0]), vectors=basis[:, 1:2])
    with pytest.raises(DegenerateAlignmentError, match="rank"):
        clt_rotation(emb_a, u_bad)


def test_latent_eigenpairs_factorization_identities():
    x = sample_latents(MIX, 300, seed=108)
    u_p, v_x = latent_eigenpairs(x)
    # exact reconstruction with the sign convention applied to both factors
    assert np.max(
        np.abs(u_p.vectors * np.sqrt(u_p.values) @ v_x.T - x.rows)
    ) <= 1e-12
    assert np.max(np.abs(v_x.T @ v_x - np.eye(2))) <= 1e-12
    # eigenvalues of P = X X^T, against a direct eigensolve
    vals = np.linalg.eigvalsh(x.rows @ x.rows.T)
    assert np.allclose(u_p.values, vals[::-1][:2], atol=1e-8)


def test_clt_rotation_agrees_with_procrustes_on_fixture():
    # the SVD-based alignment and the Procrustes alignment to the
    # eigenbasis positions nearly coincide at n=500
    x = sample_latents(MIX, 500, seed=109)
    emb = ase(sample_adjacency(x, seed=110), 2)
    u_p, v_x = latent_eigenpairs(x)
    v_n = clt_rotation(emb, u_p)
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
    r = ProcrustesResult(rotation=q, residual=0.0)
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
