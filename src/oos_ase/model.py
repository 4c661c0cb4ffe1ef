"""Random dot product graph model: latent position distributions, graph
sampling, and out-of-sample edge vectors.

A graph on n vertices is sampled by drawing latent positions X_1..X_n i.i.d.
from a finite mixture of point masses F and connecting i~j independently
with probability X_i^T X_j. An out-of-sample vertex with latent position
w-bar contributes the edge vector a with a_i ~ Bernoulli(X_i^T w-bar).

All sampling is driven by a counter-based generator (Philox); callers may
pass an integer seed, a numpy SeedSequence, or a Generator. Identical
(inputs, seed) give identical bits regardless of scheduling.
"""

import contextlib
import math
import mmap
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelViolationError


def as_generator(seed):
    """Accept an int seed, SeedSequence, or Generator; return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


class LatentDistribution:
    """Finite mixture of point masses on R^d (covers the stochastic block
    model case: one atom per block).

    dimension is an integer (int or numpy integer) of at least 1, and
    atoms is a sequence of (point, weight) pairs. Weights must be positive
    and sum to 1 within 1e-12; every pairwise inner product of atoms
    (including an atom with itself) must lie in [0, 1] so that all edge
    probabilities are valid.
    """

    def __init__(self, dimension, atoms):
        try:  # a float such as 2.9 is refused, never truncated
            dimension = operator.index(dimension)
        except TypeError:
            raise ConfigError("dimension must be an integer") from None
        if dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if not atoms:
            raise ConfigError("at least one atom required")
        points = np.asarray([np.asarray(p, dtype=float).ravel() for p, _ in atoms])
        weights = np.asarray([float(w) for _, w in atoms])
        if points.shape[1] != dimension:
            raise ConfigError(
                f"atom dimension {points.shape[1]} != declared dimension {dimension}"
            )
        if not np.isfinite(points).all():
            raise ConfigError("atom coordinates must be finite")
        # both weight tests are written so that NaN fails them
        if not np.all(weights > 0):
            raise ConfigError("weights must be positive")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ConfigError("weights must sum to 1")
        pairs = np.triu_indices(len(weights))
        _check_probabilities((points @ points.T)[pairs], "atom pair",
                             lambda k: (pairs[0][k], pairs[1][k]))
        self.dimension = dimension
        self.points = points
        self.weights = weights

    def edge_probabilities(self, wbar):
        """Edge probabilities x^T w-bar with each atom x, all in [0, 1]."""
        wbar = np.asarray(wbar, dtype=float).ravel()
        if wbar.shape[0] != self.dimension:
            raise ConfigError(
                f"w-bar dimension {wbar.shape[0]} does not match "
                f"distribution dimension {self.dimension}"
            )
        p = self.points @ wbar
        _check_probabilities(p, "w-bar edge")
        return p

    @property
    def n_atoms(self):
        return len(self.weights)

    def atom_index(self, x):
        """Index of the atom nearest to x (exact for sampled rows)."""
        d2 = np.sum((self.points - np.asarray(x, dtype=float)) ** 2, axis=1)
        return int(np.argmin(d2))

    def __repr__(self):
        return f"LatentDistribution(d={self.dimension}, atoms={self.n_atoms})"


@dataclass(frozen=True, eq=False)
class LatentMatrix:
    """n x d matrix of latent positions."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ConfigError("latent rows must be a 2-D array")
        object.__setattr__(self, "rows", rows)


# Block sizes of the row-block loops below; neither changes a result.
# A sampling block's probability product covers about this many entries
# (512 KB of float64), and a dense fill copies this many rows at a time.
_SAMPLE_BLOCK_AREA = 2**16
_FILL_BLOCK_ROWS = 256

# A dense fill's n x n operand comes from np.zeros up to _MAPPED_MIN_BYTES
# (n <= 2048), where repeated fills reuse heap memory that is already
# faulted in; the mapping below slowed a repeated fill at n = 1000 from
# 1.9 to 3.5 ms (median of 15). Above it the operand is an anonymous
# private mapping that
# starts on a 2 MiB huge page. Its leading rows, whose strict lower part
# fills less than _SMALL_PAGE_FILL of the row, go on 4 KiB pages and the
# rest on transparent huge pages. On a 2-vCPU Linux VM a 4 KiB fault took
# 1.8-2 us (0.44-0.5 us per KiB) and a huge page 0.12-0.19 us per KiB, so
# a row less than about 3/8 written is both cheaper and smaller on 4 KiB
# pages. np.zeros advises huge pages for the whole array, and as a huge
# page spans many rows, it makes the unwritten upper triangle resident too.
_MAPPED_MIN_BYTES = 32 * 2**20
_HUGE_PAGE = 2 * 2**20
_SMALL_PAGE_FILL = 3 / 8

# Largest graph order the program reads or draws (the functions here take
# any): the header order io.read_edge_list accepts, `sample --n`, and each n
# of a study that samples graphs, all checked before anything sized by the
# order is allocated. Here the bit buffer of n(n-1)/2 bytes takes 200 MB and
# the `to_dense` operand 3.2 GB, about 2.3 GB of it resident under the page
# policy above. The header does not bound the reader's other memory, which
# grows with the file (an edge line takes at least 4 bytes): the file's
# bytes, read once; their int64 pairs, 16 bytes per edge line, held twice
# while the windows' pairs are joined; and one window's temporaries.
MAX_ORDER = 20_000


def _triu_size(n):
    return n * (n - 1) // 2


def _row_start(n, i):
    """Offset of row i's first pair in the packed order of an order-n
    graph: it follows the (n-1) + ... + (n-i) pairs of the rows above,
    i (2n - i - 1) / 2 in all. i is an int or an int64 array."""
    start = 2 * n - 1 - i
    start *= i
    start //= 2
    return start


def _zeroed_square(n):
    """Zeroed C-ordered n x n float64 array, with the page policy above
    when it takes more than _MAPPED_MIN_BYTES and mmap can advise it (on
    Linux). Raises MemoryError when the memory cannot be mapped."""
    size = 8 * n * n
    if size <= _MAPPED_MIN_BYTES or not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return np.zeros((n, n))
    try:
        buf = mmap.mmap(-1, size + _HUGE_PAGE, flags=mmap.MAP_PRIVATE)
    except OSError as err:
        raise MemoryError(f"cannot map an order-{n} float64 matrix") from err
    raw = np.frombuffer(buf, dtype=np.uint8)
    start = -raw.ctypes.data % _HUGE_PAGE
    small = math.ceil(_SMALL_PAGE_FILL * n) * 8 * n
    split = start + -(-small // _HUGE_PAGE) * _HUGE_PAGE
    # advice only: a kernel built without huge pages refuses it
    with contextlib.suppress(OSError):
        buf.madvise(mmap.MADV_NOHUGEPAGE, 0, split)
        buf.madvise(mmap.MADV_HUGEPAGE, split)
    return raw[start:start + size].view(np.float64).reshape(n, n)


def _triu_mask(rows, cols):
    """Boolean rows x cols mask of the entries (r, c) with c > r, the
    strict upper triangle when rows == cols. Boolean indexing walks it in
    row-major order, the packed pair order of AdjacencyMatrix.

    Made by one slice fill per row, not by a broadcast comparison: that is
    faster from n = 1000 on, and a broadcast ufunc can crash CPython 3.11
    when another thread stops `tracemalloc` while it runs.
    """
    mask = np.zeros((rows, cols), dtype=bool)
    for r in range(min(rows, cols)):
        mask[r, r + 1:] = True
    return mask


class AdjacencyMatrix:
    """Symmetric hollow binary matrix stored as packed upper-triangle bits.

    Only the strict upper triangle is kept (row-major pair order), so
    symmetry and the zero diagonal are structural facts rather than
    invariants to re-check. Construction from bits validates entries,
    unless they are bool, which can only be 0 or 1.
    """

    __slots__ = ("_n", "_packed")

    def __init__(self, n, triu_bits):
        n = int(n)
        if n < 1:
            raise ConfigError("order must be >= 1")
        bits = np.asarray(triu_bits)
        if bits.shape != (_triu_size(n),):
            raise ConfigError(
                f"expected {_triu_size(n)} upper-triangle bits, got {bits.shape}"
            )
        if bits.dtype != bool:
            if bits.size and not np.isin(bits, (0, 1)).all():
                raise ConfigError("adjacency bits must be 0 or 1")
            bits = bits.astype(np.uint8)
        self._n = n
        self._packed = np.packbits(bits)

    @property
    def n(self):
        """Order of the graph, fixed at construction."""
        return self._n

    @property
    def edge_count(self):
        """Number of edges, counted over the packed bytes, whose pad bits
        are zero."""
        return int(np.bitwise_count(self._packed).sum())

    def triu_bits(self):
        """Strict upper-triangle entries as a uint8 vector (row-major)."""
        return np.unpackbits(self._packed, count=_triu_size(self.n))

    def to_dense(self):
        """A in dense lower storage (LAPACK's full storage, UPLO = 'L'):
        a C-ordered float64 n x n array holding A's strict lower triangle
        and zeros elsewhere, the one triangle `linalg.top_eigs` reads. For
        the symmetric A, take m + m.T of the result m.

        Up to n = 2048 the array comes from np.zeros. Above that
        (`_zeroed_square`) only the pages the fill writes are faulted in:
        the lower part of each of the leading 3/8 of the rows, on 4 KiB
        pages, and every later row whole, on 2 MiB pages. That is 0.79 of
        the 8 n^2 bytes at n = 3000 and 0.73 at n = 10 000, where np.zeros
        makes all of them resident.

        Row i of the upper triangle is column i of the lower one. Each
        block of _FILL_BLOCK_ROWS rows is unpacked from its contiguous run
        of packed bits into a small uint8 buffer and copied into place,
        transposed, with no n x n mask or bit vector.
        """
        n = self.n
        out = _zeroed_square(n)
        rows = min(n, _FILL_BLOCK_ROWS)
        # buf[r, c] for c > r is pair (i + r, i + c) of the block at row i;
        # the rest of buf is never written and stays zero
        buf = np.zeros((rows, n), dtype=np.uint8)
        after = _triu_mask(rows, n)
        start = 0
        for i in range(0, n, rows):
            b, width = min(rows, n - i), n - i
            stop = _row_start(n, i + b)
            first = start // 8
            run = np.unpackbits(self._packed[first:-(-stop // 8)])
            block = buf[:b, :width]
            block[after[:b, :width]] = run[start - 8 * first:stop - 8 * first]
            out[i:, i:i + b] = block.T
            start = stop
        return out

    def edges(self):
        """Edge list as an (m, 2) int array of pairs (i, j) with i < j, in
        the packed pair order: by row, then by column."""
        n = self.n
        bits = self.triu_bits().view(bool)
        found = np.flatnonzero(bits)
        rows = np.arange(n)
        start = _row_start(n, rows)
        # every row but the last holds a pair, so these starts increase
        counts = np.zeros(n, dtype=np.intp)
        if n > 1:
            counts[:-1] = np.add.reduceat(bits, start[:-1], dtype=np.intp)
        pairs = np.empty((found.size, 2), dtype=np.intp)
        pairs[:, 0] = np.repeat(rows, counts)
        # pair (i, j) sits at start(i) + j - i - 1
        start -= rows + 1
        pairs[:, 1] = found
        pairs[:, 1] -= np.repeat(start, counts)
        return pairs

    @classmethod
    def from_edges(cls, n, pairs):
        """Graph of order n with the given edges, the inverse of edges().

        pairs is an (m, 2) integer array of (i, j) with 0 <= i < j < n, in
        any order; a repeated pair is one edge.
        """
        n = int(n)
        if n < 1:
            raise ConfigError("order must be >= 1")
        pairs = np.asarray(pairs)
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int64)
        if pairs.dtype.kind not in "iu" or pairs.shape[1:] != (2,):
            raise ConfigError("edges must be an (m, 2) integer array")
        i, j = pairs[:, 0], pairs[:, 1]
        if not np.all((0 <= i) & (i < j) & (j < n)):
            raise ConfigError(f"edge out of range: need 0 <= i < j < {n}")
        # (i, j) is the (j - i - 1)-th pair of row i. In place, to keep
        # temporaries few.
        i = i.astype(np.int64, copy=False)
        offset = _row_start(n, i)
        offset += j
        offset -= i
        offset -= 1
        bits = np.zeros(_triu_size(n), dtype=bool)
        bits[offset] = True
        return cls(n, bits)

    def __eq__(self, other):
        if not isinstance(other, AdjacencyMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._packed, other._packed)

    def __repr__(self):
        return f"AdjacencyMatrix(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True, eq=False)
class EdgeVector:
    """Observed edges a_i of an out-of-sample vertex. Entries are
    validated, unless they are bool, which can only be 0 or 1."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a)
        if a.ndim != 1:
            raise ConfigError("edge vector must be 1-D")
        if a.dtype != bool and a.size and not np.isin(a, (0, 1)).all():
            raise ConfigError("edge vector entries must be 0 or 1")
        object.__setattr__(self, "a", a.astype(np.uint8))


def sample_latents(dist, n, seed):
    """Draw n i.i.d. latent positions from a finite mixture."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    rng = as_generator(seed)
    idx = rng.choice(dist.n_atoms, size=n, p=dist.weights)
    return LatentMatrix(rows=dist.points[idx])


def _check_probabilities(p, what, index=None):
    """Raise on the first entry of the vector p outside [0, 1], NaN
    included. index maps its position k to the index the message names
    (default (k,))."""
    # min and max propagate NaN, so NaN fails the range test too
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        k = int(np.argmax(~((p >= 0.0) & (p <= 1.0))))
        loc = tuple(int(v) for v in (index(k) if index else (k,)))
        raise ModelViolationError(
            f"{what} probability {p[k]} outside [0, 1] at index {loc}"
        )


def sample_adjacency(x, seed):
    """Sample A with A_ij ~ Bernoulli(X_i^T X_j) independently for i < j.

    The probabilities are made one block of rows at a time, as
    rows[i:j] @ rows[i:].T, and each block draws its uniforms right after
    the blocks above it. Consecutive Philox `random(k)` calls yield the
    same doubles as one call, and a block product rounds like the full
    gram X X^T, so the bits do not depend on the block size and no n x n
    array is made. Every diagonal entry X_i^T X_i is checked before any
    pair, and a rejected input leaves a Generator `seed` as it was.
    """
    rows = x.rows if isinstance(x, LatentMatrix) else np.asarray(x, dtype=float)
    n = rows.shape[0]
    rng = as_generator(seed)
    entry = rng.bit_generator.state
    bits = np.empty(_triu_size(n), dtype=bool)
    # a block has at most sqrt(_SAMPLE_BLOCK_AREA) rows unless it is one row
    after = _triu_mask(min(n, max(1, math.isqrt(_SAMPLE_BLOCK_AREA))), n)
    pair_error = None  # the first pair out of range, raised after the diagonal
    i = start = 0
    try:
        while i < n:
            # a block's product covers columns i: only, so its area, not
            # just its pair count, stays near _SAMPLE_BLOCK_AREA
            j = min(n, i + max(1, _SAMPLE_BLOCK_AREA // (n - i)))
            gram = rows[i:j] @ rows[i:].T
            _check_probabilities(np.diagonal(gram), "edge",
                                 lambda k: (i + k, i + k))
            if pair_error is None:
                upper = after[:j - i, :n - i]
                probs = gram[upper]
                try:
                    _check_probabilities(probs, "edge",
                                         lambda k: np.argwhere(upper)[k] + i)
                except ModelViolationError as err:
                    pair_error = err
                else:
                    stop = start + probs.shape[0]
                    np.less(rng.random(stop - start), probs,
                            out=bits[start:stop])
                    start = stop
            i = j
        if pair_error is not None:
            raise pair_error
    except ModelViolationError:
        rng.bit_generator.state = entry  # a rejected graph draws nothing
        raise
    return AdjacencyMatrix(n, bits)


def sample_oos_edges(x, wbar, seed):
    """Sample the out-of-sample edge vector a_i ~ Bernoulli(X_i^T w-bar)."""
    rows = x.rows if isinstance(x, LatentMatrix) else np.asarray(x, dtype=float)
    wbar = np.asarray(wbar, dtype=float).ravel()
    if wbar.shape[0] != rows.shape[1]:
        raise ConfigError("w-bar dimension does not match latent dimension")
    probs = rows @ wbar
    _check_probabilities(probs, "out-of-sample edge")
    rng = as_generator(seed)
    return EdgeVector(a=rng.random(rows.shape[0]) < probs)
