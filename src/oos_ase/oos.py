"""Out-of-sample extensions: embed a new vertex from its edge vector alone.

Given an embedding X-hat of the observed graph and the new vertex's edges
a in {0,1}^n, two estimators of its latent position are provided:

* least squares  w_LS = argmin_w sum_i (a_i - X-hat_i^T w)^2, computed in
  closed form as S_A^{-1/2} U_A^T a in O(d^2 n);
* constrained maximum likelihood  w_ML = argmax of
  l(w) = sum_i a_i log(X-hat_i^T w) + (1 - a_i) log(1 - X-hat_i^T w)
  over the box T_eps = {w : eps <= X-hat_i^T w <= 1 - eps for all i},
  solved by damped Newton ascent with a fraction-to-boundary rule in the
  eigenvector frame v = S_A^{1/2} w, where X-hat w = U_A v.

Edge values may also be fractional (in [0, 1]); the noiseless diagnostic
path passes a = X w-bar directly and both estimators recover w-bar exactly.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import (
    ConfigError,
    FeasibilityError,
    NonConvergenceError,
    SolverError,
)
from .model import EdgeVector


@dataclass(frozen=True, eq=False)
class OosEstimate:
    """A d-vector estimate with method tag and solver diagnostics.

    Invariant (checked at construction): w is a float64 ndarray with no
    NaN or infinite entry. w goes through np.asarray(w, dtype=float), which
    keeps a float64 ndarray as the same object and converts anything else;
    every entry is then tested with math.isfinite, and a non-finite one
    raises SolverError.
    """

    w: np.ndarray
    method: str  # "LS" or "ML"
    iterations: int = 0
    # final projected-gradient norm (ML), in the frame v = S^{1/2} w; an
    # estimate with no active constraint lies within grad_norm / sqrt(lambda_d)
    # of the maximizer (see ml_oos)
    grad_norm: float = 0.0
    active_constraints: int = 0
    # log-likelihood at w (ML only). It and grad_norm are evaluated at
    # p = U v, which equals X-hat w only up to rounding, so likelihood() at
    # the returned w may differ from them in the last digits.
    objective: float | None = None

    def __post_init__(self):
        # np.asarray returns a float64 ndarray itself; and w has d entries,
        # which math.isfinite tests faster than one np.isfinite call
        w = np.asarray(self.w, dtype=float)
        if not all(map(math.isfinite, w.ravel().tolist())):
            raise SolverError("estimate contains non-finite entries")
        object.__setattr__(self, "w", w)


# The interior ascent stops once the slope grad @ direction, about twice
# the gain a Newton step predicts, is at most this many units of rounding
# eps * |objective|.
ROUNDING_SLOPE = 10.0

# The ML Newton ascent: it stops once the projected gradient is at most
# TOL_PER_VERTEX * n both in the frame v = S^{1/2} w and in w, gives up
# after MAX_ITER iterations, and caps each step at BOUNDARY_FRACTION of the
# distance to the nearest constraint.
TOL_PER_VERTEX = 1e-8
MAX_ITER = 500
BOUNDARY_FRACTION = 0.95

# A row i is active when X-hat_i^T w is within ACTIVE_TOL of eps or 1 - eps.
ACTIVE_TOL = 1e-9
DEFAULT_EPS = 0.05  # eps wherever ml_oos, a study or the CLI is given none

_ULP = np.finfo(float).eps


def check_eps(eps):
    """Raise unless the ML box margin eps lies in (0, 1/2)."""
    if not 0.0 < eps < 0.5:
        raise ConfigError("eps must lie in (0, 1/2)")


def _edge_values(a, n):
    """Edge vector (or raw array of values in [0,1]) as a float vector."""
    if isinstance(a, EdgeVector):
        vec = a.a.astype(float)
    else:
        vec = np.asarray(a, dtype=float).ravel()
        # min and max propagate NaN, so NaN fails the range test too
        if vec.size and not (vec.min() >= 0.0 and vec.max() <= 1.0):
            raise ConfigError("edge values must lie in [0, 1]")
    if vec.shape[0] != n:
        raise ConfigError(f"edge vector length {vec.shape[0]} != embedding order {n}")
    return vec


def lls_oos(emb, a):
    """Least-squares out-of-sample estimate, S_A^{-1/2} U_A^T a.

    The closed form coincides with the generic least-squares solution
    because X-hat^T X-hat = S_A exactly. Cost is one (n x d)-vector
    product — no n x n work. S_A^{1/2} is `emb.root`, taken once per
    embedding, so a call does the float cast of a, the product and one
    division by d square roots already at hand.
    """
    u = emb.eig.vectors
    avec = _edge_values(a, u.shape[0])
    return OosEstimate(w=(u.T @ avec) / emb.root, method="LS")


def _value(avec, bvec, p):
    """(value, min p, max p) of the log-likelihood at p = X-hat w, where
    bvec = 1 - avec; outside its domain 0 < p < 1 the value is -inf."""
    pmin, pmax = p.min(), p.max()
    if not (pmin > 0.0 and pmax < 1.0):  # NaN fails it too
        return -np.inf, pmin, pmax
    return float(avec @ np.log(p) + bvec @ np.log1p(-p)), pmin, pmax


def _gradient(x, avec, p):
    return x.T @ ((avec - p) / (p * (1.0 - p)))


def _hessian(x, avec, bvec, p):
    curv = avec / p**2 + bvec / (1.0 - p) ** 2
    return -(x.T * curv) @ x


def likelihood(emb, a, w):
    """Log-likelihood of the edge vector at w, with gradient and Hessian.

    value    = sum_i a_i log p_i + (1 - a_i) log(1 - p_i),  p_i = X-hat_i^T w
    gradient = sum_i (a_i - p_i) / (p_i (1 - p_i)) X-hat_i
    hessian  = -sum_i [a_i / p_i^2 + (1 - a_i) / (1 - p_i)^2] X-hat_i X-hat_i^T

    Requires 0 < p_i < 1 strictly for every i (domain error otherwise).
    The Hessian is negative semidefinite everywhere: the objective is
    concave on its domain.
    """
    avec = _edge_values(a, emb.n)
    w = np.asarray(w, dtype=float).ravel()
    if w.shape[0] != emb.d:
        raise ConfigError("w dimension does not match embedding")
    x, bvec = emb.positions, 1.0 - avec
    p = x @ w
    value, _, _ = _value(avec, bvec, p)
    if value == -np.inf:
        i = int(np.argmax(~((p > 0.0) & (p < 1.0))))
        raise ConfigError(
            f"w outside the likelihood domain: X-hat_{i}^T w = {p[i]}"
        )
    return value, _gradient(x, avec, p), _hessian(x, avec, bvec, p)


def _chebyshev_point(x, lo, hi):
    """Deepest interior point of {w : lo <= x_i^T w <= hi}: maximize t
    subject to lo + t <= x_i^T w <= hi - t (a linear program)."""
    n, d = x.shape
    c = np.zeros(d + 1)
    c[-1] = -1.0
    ones = np.ones((n, 1))
    a_ub = np.block([[-x, ones], [x, ones]])
    b_ub = np.concatenate([-lo * np.ones(n), hi * np.ones(n)])
    res = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (d + 1), method="highs"
    )
    if not res.success or res.x[-1] <= 1e-12:
        raise FeasibilityError(
            f"constraint box eps={lo} is empty (max margin "
            f"{res.x[-1] if res.success else 'n/a'})"
        )
    return res.x[:d], float(res.x[-1])


def _box_margin(p, lo, hi):
    return float(min(p.min() - lo, hi - p.max()))


def _active_rows(p, pmin, pmax, lo, hi):
    """Masks (at lo, at hi) of the active rows, or None when none is.
    Rounding is monotone, so p_i - lo >= pmin - lo and hi - p_i >= hi - pmax
    hold in floating point too: pmin and pmax alone settle the interior."""
    if pmin - lo > ACTIVE_TOL and hi - pmax > ACTIVE_TOL:
        return None
    return (p - lo) <= ACTIVE_TOL, (hi - p) <= ACTIVE_TOL


def _fraction_to_boundary(s, p, lo, hi, skip):
    """Largest alpha <= 1 that moves p by alpha s at most BOUNDARY_FRACTION
    of the way to the box's bounds, over the rows not in the mask skip."""
    # zero s_i are skipped below, tiny ones overflow to inf (no bound), and
    # a NaN one leaves alpha at 1.0, since min(1.0, NaN) is 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        room = np.where(s > 0, hi - p, lo - p) / s
    room[skip | (s == 0)] = np.inf
    return min(1.0, BOUNDARY_FRACTION * float(room.min()))


def _step_cap(s, p, pmin, pmax, lo, hi, skip):
    """_fraction_to_boundary, skipping its n-length scan when 1.25 max|s_i|
    is below the box margin min(pmin - lo, hi - pmax). Every row then has
    room above 1.25 (1 - 2^-52) even after rounding, and 0.95 of that is
    above 1, so the scan would return 1.0 exactly. NaN in s fails the test
    and takes the scan."""
    if 1.25 * np.maximum(s.max(), -s.min()) < min(pmin - lo, hi - pmax):
        return 1.0
    return _fraction_to_boundary(s, p, lo, hi, skip)


def ml_oos(emb, a, eps=DEFAULT_EPS):
    """Constrained maximum-likelihood out-of-sample estimate.

    Maximizes the concave log-likelihood over the box
    T_eps = {w : eps <= X-hat_i^T w <= 1 - eps} by damped Newton ascent in
    the eigenvector frame v = S_A^{1/2} w, where X-hat w = U_A v. It starts
    from the least-squares estimate, v = U_A^T a, shifted toward the box's
    deepest (Chebyshev-style) interior point when that is infeasible, and
    returns w = v / sqrt(lambda).

    U_A has orthonormal columns, and on the likelihood's domain every
    curvature weight c_i = a_i / p_i^2 + (1 - a_i) / (1 - p_i)^2 is at
    least 1. So the Hessian H_v = -U_A^T diag(c) U_A is at most -I, and so
    is z^T H_v z for every orthonormal z. One rule picks each step on the
    free subspace z, the null space of the active rows (all of R^d in the
    interior):

    * Newton on z, which always exists;
    * on the boundary, when that step does not ascend or z is empty, the
      tangent-cone step grad + N lambda: the residual of a nonnegative
      least-squares fit of the gradient onto the active constraint
      normals N, which ascends and releases constraints as needed.

    Steps are capped at BOUNDARY_FRACTION of the distance to the nearest
    inactive constraint, then Armijo backtracking enforces ascent. The
    ascent stops when the gradient in v (with active constraints, the
    residual r of that fit) has norm at most tol = TOL_PER_VERTEX * n, and
    so does sqrt(lambda) * r, the same residual read in w. In the interior
    it also stops when the slope grad @ direction is at most
    ROUNDING_SLOPE units of rounding of the objective; the estimate then
    reports its gradient norm as it is, which may exceed tol.

    The bounds this gives: as H_v <= -I on T_eps, the objective is
    1-strongly concave in v there, and H_w = S^{1/2} H_v S^{1/2} <= -S
    makes it lambda_d-strongly concave in w. So a feasible point lies
    within |grad_v| of the maximizer v* over T_eps, and within
    |grad_w| / lambda_d of w*. An interior estimate that stopped on the
    tolerance therefore lies within tol / max(sqrt(lambda_d), lambda_d)
    of w*: the test in v settles weak axes (lambda_j < 1), the test in w
    strong ones.

    Each iteration evaluates only what it reads: the gradient at the
    current point; the Hessian only once the tolerance test has failed, so
    at no returned point; and in the line search the value alone. The
    active rows are looked for only when min p or max p lies within
    ACTIVE_TOL of the box, and the fraction-to-boundary scan runs only
    when some |U_i^T direction| is at least 1/1.25 of the box margin;
    below that it would return 1 exactly.

    The estimate may sit on the box, its active constraints counted in the
    diagnostics; an empty box raises FeasibilityError. T_eps is built from
    X-hat, so one noisy row with X-hat_i^T w-bar < eps cuts w-bar out of
    it: with 1-D atoms 0.15/0.5/0.85 at w-bar = 0.5 and n = 500, 526 of
    600 estimates ended on the box at eps = 0.05, and none at eps = 0.02.
    """
    check_eps(eps)
    u, root = emb.eig.vectors, emb.root
    n = u.shape[0]
    avec = _edge_values(a, n)
    bvec = 1.0 - avec
    tol = TOL_PER_VERTEX * n
    lo, hi = eps, 1.0 - eps

    v = u.T @ avec
    p = u @ v
    if _box_margin(p, lo, hi) <= 0.0:
        v_int, max_margin = _chebyshev_point(u, lo, hi)
        # walk from the LS point toward the interior point until safely inside
        target = 0.1 * max_margin
        t_lo, t_hi = 0.0, 1.0
        for _ in range(80):
            t = 0.5 * (t_lo + t_hi)
            if _box_margin(u @ (v + t * (v_int - v)), lo, hi) >= target:
                t_hi = t
            else:
                t_lo = t
        v = v + t_hi * (v_int - v)
        p = u @ v

    # inside the box, so inside the likelihood's domain
    value, pmin, pmax = _value(avec, bvec, p)
    n_active = 0
    iterations = 0

    def stalled(message):  # the report of an ascent stopped short at v
        return NonConvergenceError(message, last_w=v / root,
                                   iterations=iterations, grad_norm=pg_norm)
    for iterations in range(1, MAX_ITER + 1):
        grad = _gradient(u, avec, p)

        # stationarity: plain gradient norm in the interior, KKT residual
        # against active constraint normals on the boundary
        masks = _active_rows(p, pmin, pmax, lo, hi)
        if masks is None:
            n_active, active = 0, False
            resid = grad
        else:
            act_lo, act_hi = masks
            active = act_lo | act_hi
            n_active = int(act_lo.sum() + act_hi.sum())
            normals = np.concatenate([u[act_lo], -u[act_hi]]).T  # d x m
            lam, _ = scipy.optimize.nnls(normals, -grad)
            resid = grad + normals @ lam
        # the residual in w is root * resid: within tol in both frames
        pg_norm = float(np.linalg.norm(resid))
        if pg_norm <= tol and np.linalg.norm(root * resid) <= tol:
            break

        # Newton on the free subspace z: the null space of the active rows,
        # all of R^d inside, where z^T H z <= -I
        hess = _hessian(u, avec, bvec, p)
        if n_active:
            rows = np.concatenate([u[act_lo], u[act_hi]])
            _, sv, vt = np.linalg.svd(rows)
            z = vt[int((sv > 1e-12 * sv[0]).sum()):].T
            direction = z @ np.linalg.solve(z.T @ hess @ z, -(z.T @ grad))
            if not float(grad @ direction) > 0.0:
                # no free direction, or none that ascends: the NNLS residual
                # grad + N lambda projects the gradient onto the tangent
                # cone, so it ascends and releases constraints as needed
                direction = resid
        else:
            direction = np.linalg.solve(hess, -grad)
        slope = float(grad @ direction)
        rounding = _ULP * abs(value)
        if not n_active and slope <= ROUNDING_SLOPE * rounding:
            # the step's predicted gain is within the rounding of the
            # objective, so Armijo can no longer tell ascent from noise and
            # would only creep: v is a maximizer to working precision
            break
        if slope <= 0.0:  # numerically possible only at (near-)stationarity
            raise stalled("search direction is not an ascent direction")

        # fraction-to-boundary cap: largest alpha keeping p strictly inside.
        # Active rows are excluded — along-face directions change them only
        # by rounding, which the output's 1e-9 feasibility slack absorbs.
        alpha = _step_cap(u @ direction, p, pmin, pmax, lo, hi, active)

        while alpha > 1e-18:
            v_try = v + alpha * direction
            p_try = u @ v_try
            at_try = _value(avec, bvec, p_try)
            if at_try[0] >= value + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            raise stalled("line search stalled before reaching stationarity")
        v, p = v_try, p_try
        value, pmin, pmax = at_try
    else:
        raise stalled(f"no convergence in {MAX_ITER} iterations "
                      f"(projected gradient {pg_norm:.3e}, tol {tol:.3e})")

    # Armijo accepts no step that lowers value or is NaN: value >= its start
    return OosEstimate(
        w=v / root,
        method="ML",
        iterations=iterations,
        grad_norm=float(pg_norm),
        active_constraints=n_active,
        objective=value,
    )
