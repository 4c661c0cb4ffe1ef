"""Numerical kernels: top-k symmetric eigenpairs and least squares.
Everything here is a thin, contract-checked wrapper around LAPACK or ARPACK
(via numpy/scipy); all outputs follow one deterministic sign convention so
repeated runs agree bit-for-bit.

`top_eigs` is not only a dense kernel. An embedding needs the top d <= 3
eigenpairs of an n x n matrix, and a dense `eigh` spends O(n^3) on all of
them. From order LANCZOS_MIN_ORDER on, and for k at most
n / LANCZOS_ORDER_PER_K, the pairs come from implicitly restarted Lanczos
(ARPACK's `eigsh` over BLAS `dsymv`), which costs a few dozen
matrix-vector products. With BLAS on one thread, on adjacency matrices of
the mixture_2d preset and k = 2, Lanczos took 1.9 ms against 0.6 ms for
`eigh` at n = 100, the two tied at n = 200, and Lanczos won from n = 256
(1.5 ms against 2.5 ms); at n = 1000 it took 9-11 ms against 77 ms, at
n = 4000 57-83 ms against 5.1 s (`_lanczos_top` against the dense path's
`eigh`, min of 5 calls, four runs on a shared 2-vCPU VM). One thread is
the setting of the rate-sweep benchmark, whose smallest graphs have
n = 100. Lanczos slows down when it must resolve eigenvalues inside the
noise bulk, so it only pays while k is small against n: asking a rank-2
graph for k = 15 at n = 1000 took as long as `eigh` (89 ms). Everything
else, and any ARPACK failure, takes the dense path, which also serves as
the oracle in the tests. Before either runs, one more `dsymv`, of the
matrix against a constant probe vector, checks that the triangle both
paths read is finite (see _PROBE).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse.linalg

from .errors import ConfigError, SingularityError

# Lanczos is used when n >= LANCZOS_MIN_ORDER and k * LANCZOS_ORDER_PER_K <= n
# (see the module docstring for the measurements behind both numbers).
LANCZOS_MIN_ORDER = 256
LANCZOS_ORDER_PER_K = 64

# top_eigs checks finiteness with one product A p, every entry of p _PROBE.
# Any NaN or +-inf entry makes it non-finite, since p is nonzero. No finite
# entry can make it overflow: a row sums n terms of at most DBL_MAX * 2^-32,
# and n is far below 2^32 for any n x n array that fits in memory. A smaller
# probe, such as 2^-1000, makes the products of entries below 2^-22
# subnormal: at n = 2000 on a 2-vCPU x86 VM, entries of 1e-10 made the
# product 65-80 times slower.
_PROBE = 2.0 ** -32

# Columns are flipped so the largest-magnitude entry of each eigenvector is
# positive (ties broken by lowest index). Any orthogonal transform of the
# latent positions gives the same graph distribution, so a fixed
# convention costs nothing and buys reproducibility.
SIGN_CONVENTION = "max-entry-positive"

# Entries within this relative distance of a column's largest magnitude tie.
# Noiseless block inputs have exactly tied entries, and which of them comes
# out largest is decided by rounding, which differs between eigensolvers.
SIGN_TIE_RTOL = 1e-9


def check_orthonormal(q, what):
    """Raise ConfigError unless q has orthonormal columns; a NaN fails."""
    if not np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-10:
        raise ConfigError(f"{what} (defect > 1e-10)")


def _column_signs(vectors):
    """Per-column factors +-1 that put `vectors` in SIGN_CONVENTION."""
    mag = np.abs(vectors)
    tied = mag >= (1.0 - SIGN_TIE_RTOL) * mag.max(axis=0)
    idx = np.argmax(tied, axis=0)  # argmax takes the lowest index on ties
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return signs


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Top-k eigenvalues (descending) with orthonormal eigenvectors as columns."""

    values: np.ndarray  # (k,)
    vectors: np.ndarray  # (n, k)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)
        if values.ndim != 1 or vectors.ndim != 2 or vectors.shape[1] != values.shape[0]:
            raise ConfigError("eigenpair shapes do not match")
        if not np.all(np.diff(values) <= 0):  # a NaN fails too
            raise ConfigError("eigenvalues must be sorted descending")
        check_orthonormal(vectors, "eigenvectors are not orthonormal")

    def residuals(self, m):
        """Per-pair residual ||M v_i - lambda_i v_i|| against a dense symmetric M."""
        m = np.asarray(m, dtype=float)
        r = m @ self.vectors - self.vectors * self.values
        return np.linalg.norm(r, axis=0)


def _lanczos_top(fortran, k):
    """Top-k pairs by ARPACK, ascending like `eigh`, of the symmetric
    matrix whose upper triangle is that of the Fortran-ordered `fortran`.
    The start vector and the generator ARPACK draws restart vectors from
    are fixed, so a call depends on the matrix and k alone: ARPACK's
    default start is random, and a low-rank matrix (noiseless P = X X^T)
    exhausts its Krylov space and forces restarts."""
    op = scipy.sparse.linalg.LinearOperator(
        fortran.shape,
        matvec=lambda x: scipy.linalg.blas.dsymv(1.0, fortran, x.ravel()),
        dtype=float,
    )
    rng = np.random.Generator(np.random.Philox(0))
    v0 = rng.standard_normal(fortran.shape[0])
    vals, vecs = scipy.sparse.linalg.eigsh(op, k=k, which="LA", v0=v0, rng=rng)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def top_eigs(m, k):
    """Top-k algebraically largest eigenpairs of a symmetric matrix.

    Uses Lanczos for large n and small k and dense `eigh` otherwise (see
    the module docstring); both give the same contract below.

    Parameters
    ----------
    m : (n, n) array_like
        Real symmetric matrix, of which only the lower triangle (diagonal
        included) is read; the strict upper part is never read, so it may
        hold anything, NaN included, and the result is the same bit for
        bit. Symmetry is trusted structurally where the caller built the
        matrix; here only finiteness is checked, over the lower triangle,
        by one product with a constant vector: any NaN or +-inf entry
        makes it non-finite, and no finite entry can make it overflow.
    k : int
        Number of eigenpairs, 1 <= k <= n.

    Returns
    -------
    EigenPairs
        values descending (algebraic order, not magnitude), vectors
        orthonormal with the package sign convention applied.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError("top_eigs expects a square matrix")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} out of range for order {n}")
    # BLAS symv reads one triangle, half the memory of a general product:
    # at n = 1000 (BLAS on two threads) a solve took 5.5 ms against 20 ms
    # with ndarray @ vector. Its upper triangle of m.T is the lower one of
    # m, and m.T of a C-ordered m is already in Fortran order: no copy.
    fortran = np.asfortranarray(m.T)
    probe = scipy.linalg.blas.dsymv(1.0, fortran, np.full(n, _PROBE))
    if not np.isfinite(probe).all():
        raise ConfigError("matrix contains non-finite entries")
    vals = None
    if n >= LANCZOS_MIN_ORDER and k * LANCZOS_ORDER_PER_K <= n:
        try:
            vals, vecs = _lanczos_top(fortran, k)
        except scipy.sparse.linalg.ArpackError:
            # no convergence, or a breakdown such as the zero matrix
            pass
    if vals is None:
        vals, vecs = scipy.linalg.eigh(m, subset_by_index=[n - k, n - 1],
                                       check_finite=False)
    # both paths return ascending order; we want descending
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1]
    vecs = vecs * _column_signs(vecs)
    return EigenPairs(values=vals, vectors=vecs)


def lstsq(design, rhs):
    """Least-squares solve argmin_w ||design w - rhs||.

    Requires a full-column-rank design (smallest singular value above
    1e-12 of the largest); otherwise raises SingularityError carrying the
    condition estimate.
    """
    design = np.asarray(design, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if design.ndim != 2 or rhs.ndim != 1 or design.shape[0] != rhs.shape[0]:
        raise ConfigError("design/rhs shapes do not match")
    if not (np.isfinite(design).all() and np.isfinite(rhs).all()):
        raise ConfigError("non-finite entries in least-squares input")
    w, _, _, sv = np.linalg.lstsq(design, rhs, rcond=None)
    if sv[-1] <= 1e-12 * sv[0]:
        cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
        raise SingularityError(
            f"rank-deficient design (condition ~ {cond:.3e})", condition=cond
        )
    return w

