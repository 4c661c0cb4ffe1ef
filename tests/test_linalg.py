import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oos_ase import (
    ConfigError,
    EigenPairs,
    LatentDistribution,
    lstsq,
    sample_adjacency,
    sample_latents,
    top_eigs,
)
from oos_ase import linalg
from oos_ase.errors import SingularityError
from oos_ase.linalg import LANCZOS_MIN_ORDER, _column_signs

MIX = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])


def _fix_signs(vectors):
    return vectors * _column_signs(vectors)


def _dense_oracle(m, k):
    """Top-k pairs from a full dense eigensolve, in top_eigs' conventions."""
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1][:k], _fix_signs(vecs[:, ::-1][:, :k])


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Count the Lanczos solves top_eigs makes."""
    calls = []
    real = scipy.sparse.linalg.eigsh

    def spy(*args, **kwargs):
        calls.append(kwargs.get("k"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return calls


def test_top_eigs_identity():
    pairs = top_eigs(np.eye(3), 2)
    assert np.allclose(pairs.values, [1.0, 1.0])
    # any orthonormal pair qualifies; orthonormality is enforced by the type
    assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(2), atol=1e-12)


def test_top_eigs_diagonal():
    pairs = top_eigs(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(pairs.values, [3.0, 2.0])
    # sign convention makes the signs deterministic: +e1, +e2
    assert np.allclose(pairs.vectors[:, 0], [1, 0, 0], atol=1e-12)
    assert np.allclose(pairs.vectors[:, 1], [0, 1, 0], atol=1e-12)


def test_top_eigs_algebraic_not_magnitude():
    # eigenvalues 5, 1, -10: top-2 algebraically are (5, 1), not (-10, 5)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    m = q @ np.diag([5.0, 1.0, -10.0]) @ q.T
    pairs = top_eigs(m, 2)
    assert np.allclose(pairs.values, [5.0, 1.0], atol=1e-9)


def test_top_eigs_matches_full_eigensolve_on_gram_matrix():
    # oracle: full dense eigensolve, restricted to the top 2 pairs
    rng = np.random.default_rng(42)
    atoms = np.array([[0.2, 0.7], [0.65, 0.3]])
    x = atoms[rng.choice(2, size=50, p=[0.4, 0.6])]
    p = x @ x.T
    pairs = top_eigs(p, 2)

    full_vals, full_vecs = np.linalg.eigh(p)
    assert np.allclose(pairs.values, full_vals[::-1][:2], atol=1e-10)
    oracle_vecs = _fix_signs(full_vecs[:, ::-1][:, :2])
    assert np.allclose(pairs.vectors, oracle_vecs, atol=1e-8)

    res = pairs.residuals(p)
    assert np.all(res <= 1e-8 * np.maximum(1.0, np.abs(pairs.values)))


@pytest.mark.parametrize("n", [300, 1000])
def test_top_eigs_lanczos_matches_dense_oracle(n, eigsh_calls):
    m = sample_adjacency(sample_latents(MIX, n, seed=n), seed=n + 1).to_dense()
    pairs = top_eigs(m, 2)
    assert eigsh_calls[0] == 2  # the Lanczos path ran, not the dense one
    vals, vecs = _dense_oracle(m, 2)
    assert np.max(np.abs(pairs.values - vals)) <= 1e-10
    assert np.max(np.abs(pairs.vectors - vecs)) <= 1e-8
    # like the dense path, Lanczos reads only the lower triangle
    lower = np.tril(m) + np.triu(np.full_like(m, 7.0), 1)
    from_lower = top_eigs(lower, 2)
    assert np.array_equal(from_lower.values, pairs.values)
    assert np.array_equal(from_lower.vectors, pairs.vectors)


@pytest.mark.parametrize("n", [60, 255, 300, 1000])
def test_top_eigs_reads_only_the_lower_triangle(n, eigsh_calls):
    # ase hands top_eigs an array whose upper part is zero; the strict
    # upper part is neither read nor checked, so even non-finite entries
    # there leave the pairs of the symmetric A as they are
    m = sample_adjacency(sample_latents(MIX, n, seed=n), seed=n + 1).to_dense()
    m += m.T
    full = top_eigs(m, 2)
    upper = np.triu_indices(n, 1)
    for fill in (0.0, np.nan, np.inf, -np.inf):
        lower = m.copy()
        lower[upper] = fill
        pairs = top_eigs(lower, 2)
        assert np.array_equal(pairs.values, full.values)
        assert np.array_equal(pairs.vectors, full.vectors)
    assert len(eigsh_calls) == (5 if n >= LANCZOS_MIN_ORDER else 0)


def test_top_eigs_lanczos_balanced_two_block_noiseless(eigsh_calls):
    # the second eigenvector is +-1/sqrt(n) by block: orthogonal to the
    # all-ones vector, and every entry ties in magnitude with every other
    x = np.array([[0.7, 0.2], [0.2, 0.7]])[np.repeat([0, 1], 300)]
    p = x @ x.T
    pairs = top_eigs(p, 2)
    assert eigsh_calls == [2]
    vals, vecs = _dense_oracle(p, 2)
    assert np.allclose(vals, [300 * 0.81, 300 * 0.25], rtol=1e-12)
    assert np.max(np.abs(pairs.values - vals)) <= 1e-10
    assert np.max(np.abs(pairs.vectors - vecs)) <= 1e-8


def test_top_eigs_lanczos_bitwise_repeatable(eigsh_calls):
    m = sample_adjacency(sample_latents(MIX, 400, seed=5), seed=6).to_dense()
    first, second = top_eigs(m, 2), top_eigs(m, 2)
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda _: top_eigs(m, 2), range(4)))
    assert len(eigsh_calls) == 6
    for other in [second, *threaded]:
        assert np.array_equal(first.values, other.values)
        assert np.array_equal(first.vectors, other.vectors)


def test_top_eigs_lanczos_failure_falls_back_to_dense(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", [], [])

    m = sample_adjacency(sample_latents(MIX, 300, seed=9), seed=10).to_dense()
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    pairs = top_eigs(m, 2)
    dense_vals, _ = scipy.linalg.eigh(m, subset_by_index=[298, 299])
    assert np.array_equal(pairs.values, dense_vals[::-1])
    vals, vecs = _dense_oracle(m, 2)
    assert np.max(np.abs(pairs.values - vals)) <= 1e-10
    assert np.max(np.abs(pairs.vectors - vecs)) <= 1e-8


def test_top_eigs_zero_matrix_above_crossover(eigsh_calls):
    # ARPACK refuses the zero matrix (the start vector maps to zero); the
    # dense path answers instead
    pairs = top_eigs(np.zeros((LANCZOS_MIN_ORDER, LANCZOS_MIN_ORDER)), 1)
    assert eigsh_calls == [1]
    assert np.array_equal(pairs.values, [0.0])


def test_top_eigs_rejects_nonfinite():
    m = np.eye(2)
    m[0, 1] = m[1, 0] = np.nan
    with pytest.raises(ConfigError):
        top_eigs(m, 1)


@pytest.mark.parametrize("row", [1, 150, 299])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_top_eigs_rejects_nonfinite_in_any_row(bad, row):
    # a first, a middle and the last row
    m = np.eye(300)
    m[row, row - 1] = m[row - 1, row] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        top_eigs(m, 1)


@pytest.mark.parametrize("n, row, col", [
    (60, 0, 0), (60, 59, 59), (60, 59, 0),
    (300, 63, 62), (300, 64, 64), (300, 299, 299), (300, 299, 0),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_top_eigs_checks_the_lower_triangle_up_to_the_diagonal(bad, n, row, col):
    # the corners of the lower triangle, and entries on and just below the
    # diagonal, count
    m = np.eye(n)
    m[row, col] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        top_eigs(m, 1)


def test_top_eigs_checks_finiteness_without_an_n_by_n_temporary(eigsh_calls):
    # np.isfinite(m).all() made an n x n bool, 9 MB here, which was the
    # whole traced peak of the call
    m = sample_adjacency(sample_latents(MIX, 3000, seed=1), seed=2).to_dense()
    tracemalloc.start()
    try:
        top_eigs(m, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eigsh_calls == [2]
    assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


class _SolverReached(Exception):
    pass


@pytest.fixture
def solvers_stopped(monkeypatch):
    """Make both eigensolver paths raise _SolverReached: top_eigs then
    runs its finiteness check alone."""
    def stop(*args, **kwargs):
        raise _SolverReached

    monkeypatch.setattr(linalg, "_lanczos_top", stop)
    monkeypatch.setattr(scipy.linalg, "eigh", stop)


@pytest.mark.parametrize("n", [60, 300, 3000])
def test_top_eigs_accepts_the_largest_finite_entries(n, solvers_stopped):
    # a probe of all ones would overflow the row sums of these triangles;
    # the huge entries must not hide a NaN or +-inf either
    m = np.empty((n, n))
    for value in (1.7e308, -1.7e308):
        m.fill(value)
        with pytest.raises(_SolverReached):
            top_eigs(m, 1)
        mid = n // 2
        corners = [(0, 0), (n - 1, 0), (n - 1, n - 1)]
        for row, col in corners + [(mid, mid), (mid, mid - 1)]:
            for bad in (np.nan, np.inf, -np.inf):
                m[row, col] = bad
                with pytest.raises(ConfigError, match="non-finite"):
                    top_eigs(m, 1)
            m[row, col] = value


def test_top_eigs_finiteness_check_allocates_o_of_n(solvers_stopped):
    # the check is one product with a vector: its buffers are a few
    # vectors of n floats, not a block of rows of the matrix
    n = 3000
    m = sample_adjacency(sample_latents(MIX, n, seed=1), seed=2).to_dense()
    tracemalloc.start()
    try:
        with pytest.raises(_SolverReached):
            top_eigs(m, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * n, f"traced peak {peak} bytes"


def test_top_eigs_k_range():
    with pytest.raises(ConfigError):
        top_eigs(np.eye(3), 0)
    with pytest.raises(ConfigError):
        top_eigs(np.eye(3), 4)


def test_eigenpairs_type_rejects_unsorted_and_nonorthonormal():
    with pytest.raises(ConfigError):
        EigenPairs(values=np.array([1.0, 2.0]), vectors=np.eye(2))
    with pytest.raises(ConfigError):
        EigenPairs(values=np.array([2.0, 1.0]), vectors=np.array([[1.0, 1.0], [0.0, 1.0]]))
    # NaN must fail the checks, not slip past a `> tol` comparison
    with pytest.raises(ConfigError, match="orthonormal"):
        EigenPairs(values=np.array([2.0, 1.0]), vectors=np.full((2, 2), np.nan))
    with pytest.raises(ConfigError, match="sorted"):
        EigenPairs(values=np.array([2.0, np.nan]), vectors=np.eye(2))


def test_eigenpairs_compare_by_identity():
    # a generated __eq__ over the arrays raised ValueError, and hash TypeError
    pair = EigenPairs(values=np.array([2.0, 1.0]), vectors=np.eye(2))
    twin = EigenPairs(values=np.array([2.0, 1.0]), vectors=np.eye(2))
    assert pair == pair and pair != twin
    assert len({pair, twin}) == 2


def test_lstsq_identity_design():
    assert np.allclose(lstsq(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])


def test_lstsq_mean_of_two_points():
    w = lstsq(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert np.allclose(w, [1.0])


def test_lstsq_planted_solution():
    rng = np.random.default_rng(7)
    design = rng.standard_normal((20, 3))
    w0 = np.array([1.0, -2.0, 0.5])
    w = lstsq(design, design @ w0)
    assert np.allclose(w, w0, atol=1e-10)


def test_lstsq_rank_deficient_raises_with_condition():
    design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(SingularityError) as exc:
        lstsq(design, np.array([1.0, 2.0, 3.0]))
    assert exc.value.condition is None or exc.value.condition > 1e12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(8, 30))
def test_lstsq_recovers_planted_solution_property(seed, d, n):
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, d))
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] <= 1e-6 * sv[0]:  # stay inside the precondition
        return
    w0 = rng.uniform(-2, 2, size=d)
    w = lstsq(design, design @ w0)
    assert np.linalg.norm(w - w0) <= 1e-10 * max(1.0, np.linalg.norm(w0))
    # normal-equations residual contract
    r = design.T @ (design @ w - design @ w0)
    assert np.linalg.norm(r) <= 1e-8 * max(1e-30, np.linalg.norm(design.T @ (design @ w0)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_top_eigs_residual_and_orthonormality_property(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    m = 0.5 * (m + m.T)
    k = rng.integers(1, n + 1)
    pairs = top_eigs(m, int(k))
    res = pairs.residuals(m)
    assert np.all(res <= 1e-8 * np.maximum(1.0, np.abs(pairs.values)))
    defect = pairs.vectors.T @ pairs.vectors - np.eye(pairs.values.shape[0])
    assert np.max(np.abs(defect)) <= 1e-10
