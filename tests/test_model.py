import errno
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oos_ase.model as model
from oos_ase import (
    AdjacencyMatrix,
    ConfigError,
    EdgeVector,
    LatentDistribution,
    ModelViolationError,
    ase,
    embed_matrix,
    sample_adjacency,
    sample_latents,
    sample_oos_edges,
    top_eigs,
)

from dense import from_dense, lower_from_edges

MIX = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])


def test_distribution_rejects_bad_weights():
    with pytest.raises(ConfigError, match="sum to 1"):
        LatentDistribution(1, [((0.5,), 0.5), ((0.4,), 0.4)])
    with pytest.raises(ConfigError, match="positive"):
        LatentDistribution(1, [((0.5,), 0.0), ((0.4,), 1.0)])
    # a NaN weight is not positive, and an inf one makes no sum of 1
    with pytest.raises(ConfigError, match="positive"):
        LatentDistribution(1, [((0.5,), float("nan")), ((0.4,), 1.0)])
    with pytest.raises(ConfigError, match="sum to 1"):
        LatentDistribution(1, [((0.5,), float("inf")), ((0.4,), 1.0)])


def test_distribution_dimension_is_an_integer():
    # 2.9 ran as dimension 2 before; an integral float is refused too
    for dimension in (2.9, 2.0, "2", None):
        with pytest.raises(ConfigError, match="dimension must be an integer"):
            LatentDistribution(dimension, [((0.2, 0.7), 0.4),
                                           ((0.65, 0.3), 0.6)])
    assert LatentDistribution(np.int64(2), [((0.2, 0.7), 1.0)]).dimension == 2


def test_distribution_rejects_infeasible_gram_and_names_pair():
    with pytest.raises(ModelViolationError, match=r"at index \(0, 0\)"):
        LatentDistribution(2, [((1.2, 0.0), 1.0)])
    with pytest.raises(ModelViolationError, match=r"at index \(0, 1\)"):
        LatentDistribution(
            2, [((-0.6, 0.2), 0.5), ((0.6, 0.2), 0.5)]
        )  # inner product -0.32


def test_sample_latents_point_mass():
    x = sample_latents(LatentDistribution(2, [((0.3, 0.4), 1.0)]), 17, seed=0)
    assert x.rows.shape == (17, 2)
    assert np.all(x.rows == [0.3, 0.4])


def test_sample_latents_mixture_fraction():
    # law of large numbers check on the atom frequencies
    x = sample_latents(MIX, 100_000, seed=123)
    frac = np.mean([MIX.atom_index(r) == 0 for r in x.rows])
    assert abs(frac - 0.4) <= 0.01


def test_sample_latents_deterministic():
    a = sample_latents(MIX, 50, seed=9)
    b = sample_latents(MIX, 50, seed=9)
    assert np.array_equal(a.rows, b.rows)


def test_adjacency_structure():
    x = sample_latents(MIX, 40, seed=5)
    a = sample_adjacency(x, seed=6)
    lower = a.to_dense()
    assert np.array_equal(lower, np.tril(lower, -1))
    dense = lower + lower.T
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diagonal(dense) == 0)
    assert set(np.unique(dense)) <= {0.0, 1.0}
    assert from_dense(dense) == a


def test_adjacency_order_is_read_only():
    # a.n = 400 on an order-300 graph once made ase end in numpy's
    # "boolean array indexing assignment" ValueError, and edges() return
    # pairs of the wrong order without an error
    a = sample_adjacency(sample_latents(MIX, 30, seed=5), seed=6)
    pairs = a.edges()
    with pytest.raises(AttributeError):
        a.n = 40
    assert a.n == 30
    assert np.array_equal(a.edges(), pairs)


def test_adjacency_all_zero_all_one():
    n = 7
    size = n * (n - 1) // 2
    empty = AdjacencyMatrix(n, np.zeros(size, dtype=np.uint8))
    full = AdjacencyMatrix(n, np.ones(size, dtype=np.uint8))
    assert empty.triu_bits().mean() == 0.0 and empty.edges().shape == (0, 2)
    assert full.triu_bits().mean() == 1.0 and full.edges().shape == (size, 2)
    lower = full.to_dense()
    assert np.array_equal(lower, np.tril(np.ones((n, n)), -1))
    assert np.array_equal(lower + lower.T, np.ones((n, n)) - np.eye(n))
    # bool bits skip the 0/1 scan and pack to the same bytes as other dtypes
    assert AdjacencyMatrix(n, np.zeros(size, dtype=bool)) == empty
    assert AdjacencyMatrix(n, np.ones(size, dtype=bool)) == full
    bits = np.random.default_rng(8).random(size) < 0.5
    mixed = AdjacencyMatrix(n, bits)
    assert np.array_equal(mixed.triu_bits(), bits)
    for dtype in (np.uint8, np.int64, np.float64):
        assert AdjacencyMatrix(n, bits.astype(dtype)) == mixed
    with pytest.raises(ConfigError, match="0 or 1"):
        AdjacencyMatrix(n, np.full(size, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 100_000), st.floats(0.0, 1.0))
def test_from_edges_inverts_edges_property(n, seed, density):
    rng = np.random.default_rng(seed)
    adj = AdjacencyMatrix(n, rng.random(n * (n - 1) // 2) < density)
    pairs = adj.edges()
    # the former n x n implementation is the oracle of the pair order
    lower = adj.to_dense()
    assert np.array_equal(pairs, np.argwhere(np.triu(lower + lower.T)))
    assert AdjacencyMatrix.from_edges(n, pairs) == adj
    # pair order and repeats do not matter
    shuffled = np.concatenate((pairs, pairs[: len(pairs) // 2]))
    rng.shuffle(shuffled)
    assert AdjacencyMatrix.from_edges(n, shuffled) == adj


def test_from_edges_validation():
    assert AdjacencyMatrix.from_edges(3, []) == AdjacencyMatrix(
        3, np.zeros(3, dtype=np.uint8))
    assert AdjacencyMatrix.from_edges(3, np.array([[0, 2]], dtype=np.uint16)) \
        == AdjacencyMatrix(3, np.array([0, 1, 0], dtype=np.uint8))
    for bad in ([[1, 1]], [[2, 1]], [[-1, 2]], [[0, 3]]):
        with pytest.raises(ConfigError, match="out of range"):
            AdjacencyMatrix.from_edges(3, bad)
    for bad in ([[0.0, 1.0]], [0, 1], [[0, 1, 2]]):
        with pytest.raises(ConfigError, match=r"\(m, 2\) integer array"):
            AdjacencyMatrix.from_edges(3, bad)
    with pytest.raises(ConfigError, match="order"):
        AdjacencyMatrix.from_edges(0, [])


def test_adjacency_density_tracks_expected_value():
    # E[A_ij] over the mixture = sum_kl w_k w_l <x_k, x_l>  (i != j)
    w, g = MIX.weights, MIX.points @ MIX.points.T
    expected = float(w @ g @ w)  # 0.4325
    x = sample_latents(MIX, 2000, seed=21)
    a = sample_adjacency(x, seed=22)
    # density is concentrated within a few parts per thousand at this size
    assert abs(a.triu_bits().mean() - expected) <= 0.01


def test_edge_probability_frequencies_three_vertices():
    # resample the same 3-vertex latent configuration and compare edge
    # frequencies to the exact Bernoulli means, within 4 standard errors
    rows = np.array([[0.3, 0.4], [0.5, 0.5], [0.7, 0.2]])
    probs = (rows @ rows.T)[np.triu_indices(3, k=1)]  # (0.35, 0.29, 0.45)
    reps = 10_000
    counts = np.zeros(3)
    rng = np.random.default_rng(404)
    for _ in range(reps):
        counts += sample_adjacency(rows, rng).triu_bits()
    freq = counts / reps
    se = np.sqrt(probs * (1 - probs) / reps)
    assert np.all(np.abs(freq - probs) <= 4 * se)


def test_sample_adjacency_rejects_invalid_probability():
    with pytest.raises(ModelViolationError, match="outside"):
        sample_adjacency(np.array([[1.2, 0.0], [1.0, 0.0]]), seed=0)
    # the diagonal is checked although no edge is drawn from it
    with pytest.raises(ModelViolationError, match=r"at index \(1, 1\)"):
        sample_adjacency(np.array([[0.5], [1.1], [0.5]]), seed=0)
    # an off-diagonal violation is named by its upper-triangle pair
    rows = np.array([[0.0, 0.5], [0.6, 0.0], [-0.5, 0.5]])
    with pytest.raises(ModelViolationError,
                       match=r"-0.3\d* outside \[0, 1\] at index \(1, 2\)"):
        sample_adjacency(rows, seed=0)


def test_nan_probabilities_raise():
    nan = float("nan")
    with pytest.raises(ModelViolationError, match=r"nan outside .* \(0, 0\)"):
        sample_adjacency(np.array([[nan], [0.5], [0.5]]), seed=0)
    # a NaN latent row poisons the off-diagonal pairs too; the first one is named
    with pytest.raises(ModelViolationError, match=r"nan outside .* \(0, 0\)"):
        sample_adjacency(np.array([[0.5, nan], [0.5, 0.5]]), seed=0)
    with pytest.raises(ModelViolationError, match=r"nan outside .* \(0,\)"):
        sample_oos_edges(np.array([[0.5], [0.5]]), [nan], seed=0)
    with pytest.raises(ModelViolationError, match=r"nan outside .* \(1,\)"):
        sample_oos_edges(np.array([[0.5], [nan]]), [0.5], seed=0)


def test_oos_edges_match_bernoulli_mean():
    x = sample_latents(MIX, 20_000, seed=31)
    e = sample_oos_edges(x, MIX.points[0], seed=32)
    # E[a_i] = E[X^T x_1] = 0.4*0.53 + 0.6*0.34 = 0.416
    assert abs(e.a.mean() - 0.416) <= 0.015


def test_oos_edges_dimension_check():
    x = sample_latents(MIX, 10, seed=1)
    with pytest.raises(ConfigError, match="dimension"):
        sample_oos_edges(x, np.array([0.5, 0.5, 0.5]), seed=2)


def test_edge_vector_validation():
    for bad in (np.array([0, 2, 1]), np.array([0.0, np.nan, 1.0])):
        with pytest.raises(ConfigError, match="0 or 1"):
            EdgeVector(a=bad)
    # bool entries need no check, and are stored as the same uint8 bits
    e = EdgeVector(a=np.array([True, False, True]))
    assert e.a.dtype == np.uint8 and e.a.tolist() == [1, 0, 1]


def test_oos_edges_store_the_bits_of_the_bernoulli_draw():
    x = sample_latents(MIX, 300, seed=44)
    e = sample_oos_edges(x, MIX.points[0], seed=45)
    draw = model.as_generator(45).random(300) < x.rows @ MIX.points[0]
    assert e.a.dtype == np.uint8
    assert np.array_equal(e.a, draw.astype(np.uint8))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_sampling_is_reproducible_property(seed):
    x1 = sample_latents(MIX, 25, seed=seed)
    x2 = sample_latents(MIX, 25, seed=seed)
    assert np.array_equal(x1.rows, x2.rows)
    a1 = sample_adjacency(x1, seed=seed + 1)
    a2 = sample_adjacency(x2, seed=seed + 1)
    assert a1 == a2


def _full_gram_sampler(rows, seed):
    """The sampler before row blocks, kept as the oracle: the whole n x n
    gram, its diagonal then its strict upper triangle checked, then one
    draw of n(n-1)/2 uniforms."""
    n = rows.shape[0]
    upper = np.arange(n)[:, None] < np.arange(n)
    gram = rows @ rows.T
    probs = gram[upper]
    for p, where in ((np.diagonal(gram), lambda k: (k, k)),
                     (probs, lambda k: np.argwhere(upper)[k])):
        valid = (p >= 0.0) & (p <= 1.0)
        if not valid.all():
            k = int(np.argmin(valid))
            loc = tuple(int(v) for v in where(k))
            raise ModelViolationError(
                f"edge probability {p[k]} outside [0, 1] at index {loc}")
    rng = np.random.Generator(np.random.Philox(seed))
    return AdjacencyMatrix(n, rng.random(probs.shape[0]) < probs)


def _block_sampler(rows, seed, area):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_SAMPLE_BLOCK_AREA", area)
        return sample_adjacency(rows, seed)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 120), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.integers(1, 3000), st.booleans())
def test_row_block_sampler_matches_full_gram_property(n, d, seed, area, atoms):
    rng = np.random.default_rng(seed)
    # inner products of rows in [0, 1/sqrt(d)]^d lie in [0, 1]; a few
    # repeated atoms, as sample_latents draws them, or all rows distinct
    points = rng.random((3 if atoms else n, d)) / np.sqrt(d)
    rows = points[rng.integers(0, 3, n)] if atoms else points
    assert _block_sampler(rows, seed, area) == _full_gram_sampler(rows, seed)


@pytest.mark.parametrize("n", [999, 2000])
def test_row_block_sampler_matches_full_gram_on_mixture(n):
    x = sample_latents(MIX, n, seed=n)
    want = _full_gram_sampler(x.rows, 7)
    assert sample_adjacency(x, 7) == want
    assert _block_sampler(x.rows, 7, 777) == want


def _rejected_rows(case):
    rows = np.tile([0.0, 0.5], (12, 1))
    rows[8] = (0.5, 0.0)
    if case == "negative":
        rows[9] = (-0.5, 0.2)  # <x8, x9> = -0.25; every other pair is valid
    elif case == "diagonal-after-pair":
        rows[1] = (-0.5, 0.2)  # <x1, x8> = -0.25, in the first block
        rows[10] = (0.0, 1.2)  # |x10|^2 = 1.44, in a later block
    else:
        rows[10] = (np.nan, 0.5)
    return rows


@pytest.mark.parametrize("area", [1, 7, 2**16])
@pytest.mark.parametrize("case", ["negative", "diagonal-after-pair", "nan"])
def test_row_block_sampler_rejects_like_full_gram(case, area):
    rows = _rejected_rows(case)
    with pytest.raises(ModelViolationError) as want:
        _full_gram_sampler(rows, 3)
    rng = np.random.Generator(np.random.Philox(3))
    with pytest.raises(ModelViolationError) as got:
        _block_sampler(rows, rng, area)
    assert str(got.value) == str(want.value)
    # nothing was drawn: the caller's generator goes on from where it was
    fresh = np.random.Generator(np.random.Philox(3))
    assert np.array_equal(rng.random(8), fresh.random(8))


def test_sample_adjacency_memory_stays_in_blocks():
    # the bits take n(n-1)/2 bytes (4.3 MB at n = 3000); a full gram, its
    # mask and its upper triangle took 141.6 MB
    x = sample_latents(MIX, 3000, seed=0)
    tracemalloc.start()
    try:
        sample_adjacency(x, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("n", [1, 2, 7, 256, 257, 300, 1000])
def test_dense_fills_from_the_packed_bits(n):
    size = n * (n - 1) // 2
    rng = np.random.default_rng(n)
    upper = np.triu_indices(n, 1)  # row-major, the packed pair order
    for bits in (np.zeros(size, dtype=bool), np.ones(size, dtype=bool),
                 rng.random(size) < 0.4):
        a = AdjacencyMatrix(n, bits)
        want = np.zeros((n, n))
        want[upper[1], upper[0]] = bits
        lower = a.to_dense()
        assert lower.dtype == np.float64 and lower.flags.c_contiguous
        assert np.array_equal(lower, want)
        want[upper] = bits
        assert np.array_equal(lower + lower.T, want)


@pytest.mark.parametrize("n", [2048, 2049])
def test_dense_fill_on_both_sides_of_the_mapped_size(n):
    # n = 2048 is the last order whose operand comes from np.zeros and
    # 2049 the first that is mapped with a page policy
    a = sample_adjacency(sample_latents(MIX, n, seed=n), seed=n + 1)
    want = lower_from_edges(a)
    lower = a.to_dense()
    assert lower.dtype == np.float64 and lower.flags.c_contiguous
    assert np.array_equal(lower, want)
    emb, ref = ase(a, 2), embed_matrix(want, 2)
    assert np.array_equal(emb.eig.values, ref.eig.values)
    assert np.array_equal(emb.eig.vectors, ref.eig.vectors)


needs_page_advice = pytest.mark.skipif(
    not hasattr(mmap, "MADV_NOHUGEPAGE"),
    reason="the dense operand is mapped only where mmap can advise pages",
)


def _resident_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * mmap.PAGESIZE


@needs_page_advice
def test_large_dense_fill_leaves_most_of_the_upper_triangle_unfaulted():
    # np.zeros made all 8 n^2 bytes resident, on huge pages that span
    # many rows; the mapped operand faults in about 0.8 of them
    n = 3000
    a = sample_adjacency(sample_latents(MIX, n, seed=3), seed=4)
    before = _resident_bytes()
    lower = a.to_dense()
    top_eigs(lower, 2)
    added = _resident_bytes() - before
    assert added <= 0.9 * lower.nbytes, f"{added / lower.nbytes:.2f} x 8 n^2"


@needs_page_advice
def test_a_failed_map_raises_memory_error(monkeypatch):
    def no_memory(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    n = 2049
    a = AdjacencyMatrix(n, np.zeros(n * (n - 1) // 2, dtype=bool))
    monkeypatch.setattr(mmap, "mmap", no_memory)
    with pytest.raises(MemoryError):
        a.to_dense()


@pytest.mark.parametrize("n", [1, 2, 3, 9, 100])
def test_repr_counts_the_edges(n):
    graphs = [AdjacencyMatrix(n, np.ones(n * (n - 1) // 2, dtype=bool))]
    graphs += [sample_adjacency(sample_latents(MIX, n, seed=s), seed=s + 10)
               for s in range(4)]
    for a in graphs:
        assert a.edge_count == len(a.edges())
        assert repr(a) == f"AdjacencyMatrix(n={n}, edges={a.edge_count})"
    with pytest.raises(AttributeError):
        graphs[0].edge_count = 0
