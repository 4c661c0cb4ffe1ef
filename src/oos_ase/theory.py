"""Closed-form asymptotics: the limiting covariance of the least-squares
out-of-sample estimate, and the two-class 1-D classification error it
implies.

The central limit theorem for the LS estimate has covariance

    Sigma_w = Delta^{-1} E[X^T w (1 - X^T w) X X^T] Delta^{-1},
    Delta   = E[X X^T],

evaluated here exactly for finite mixtures. For the 1-D two-atom mixture
F = lam * delta_p + (1 - lam) * delta_q the estimate for a class-p vertex
is approximately N(p, sigma_p^2 / scale), and likelihood-ratio
classification between the classes has an analytic threshold and error
rate; those drive the in-sample vs out-of-sample trade-off curve.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtri, erfc

from .errors import ConfigError, DegeneracyError, ThresholdError
from .model import LatentDistribution


def norm_cdf(z):
    """Standard normal CDF via erfc (absolute error well below 1e-14)."""
    return 0.5 * erfc(-np.asarray(z, dtype=float) / np.sqrt(2.0))


def chi2_quantile(qlevel, df):
    """Quantile of the chi-square distribution with df degrees of freedom."""
    if not 0.0 < qlevel < 1.0:
        raise ConfigError("quantile level must be in (0, 1)")
    return float(chdtri(df, 1.0 - qlevel))


def delta(dist):
    """Second moment matrix Delta = E[X X^T] of a finite mixture."""
    return (dist.points.T * dist.weights) @ dist.points


def sigma_clt(dist, wbar):
    """Limiting covariance Sigma_w of the scaled LS estimate error.

    Exact finite-mixture evaluation of
    Delta^{-1} E[X^T w (1 - X^T w) X X^T] Delta^{-1}; requires Delta
    invertible (smallest eigenvalue > 1e-12).
    """
    p = dist.edge_probabilities(wbar)
    d = delta(dist)
    eigs = np.linalg.eigvalsh(d)
    if eigs[0] <= 1e-12:
        raise DegeneracyError(
            f"second moment matrix is singular (min eigenvalue {eigs[0]:.3e})"
        )
    mid = (dist.points.T * (dist.weights * p * (1.0 - p))) @ dist.points
    dinv = np.linalg.inv(d)
    out = dinv @ mid @ dinv
    return 0.5 * (out + out.T)  # exact symmetry against roundoff


@dataclass(frozen=True)
class ClassifySpec:
    """Two-class 1-D latent mixture lam * delta_p + (1 - lam) * delta_q."""

    lam: float
    p: float
    q: float
    # (sigma_p^2, sigma_q^2), computed once: classify_error reads them twice
    _variances: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ConfigError("lam must be in (0, 1)")
        if not 0.0 < self.p < self.q < 1.0:
            raise ConfigError("need 0 < p < q < 1")
        dist = self.distribution()
        object.__setattr__(self, "_variances", tuple(
            float(sigma_clt(dist, [x])[0, 0]) for x in (self.p, self.q)))

    def distribution(self):
        return LatentDistribution(
            1, [([self.p], self.lam), ([self.q], 1.0 - self.lam)]
        )

    @classmethod
    def from_distribution(cls, dist):
        if dist.dimension != 1 or dist.n_atoms != 2:
            raise ConfigError(
                "classification spec needs a 1-D two-atom distribution"
            )
        pts = dist.points.ravel()
        order = np.argsort(pts)
        return cls(
            lam=float(dist.weights[order[0]]),
            p=float(pts[order[0]]),
            q=float(pts[order[1]]),
        )

    def variances(self):
        """(sigma_p^2, sigma_q^2): limiting variances for each class."""
        return self._variances


def _log_density_diff_coeffs(spec, scale):
    """Coefficients of the log density-ratio as a quadratic in x.

    f(x) = log[lam * phi(x; p, sp2/scale)] - log[(1-lam) * phi(x; q, sq2/scale)]
         = K * (A x^2 + B x + C_eff),  K = scale / (2 sp2 sq2) > 0,

    expanded so far-out roots evaluate without catastrophic cancellation.
    """
    sp2, sq2 = spec.variances()
    a = sp2 - sq2
    b = 2.0 * (sq2 * spec.p - sp2 * spec.q)
    c_log = np.log(spec.lam * np.sqrt(sq2) / ((1.0 - spec.lam) * np.sqrt(sp2)))
    c_eff = sp2 * spec.q**2 - sq2 * spec.p**2 + (2.0 * sp2 * sq2 / scale) * c_log
    k = scale / (2.0 * sp2 * sq2)
    return k, a, b, c_eff


def classify_threshold(spec, scale):
    """Decision threshold x*: the descending root of the log density ratio.

    Solves lam * phi(x; p, sp2/scale) = (1-lam) * phi(x; q, sq2/scale) at
    the crossing where the p-class density falls below the q-class density
    as x increases (f' < 0 there) — the threshold of the locally
    error-minimizing rule "declare p when x < x*". The root is located in
    closed form from the quadratic and then polished by safeguarded
    Newton/bisection on the log difference to |f| <= 1e-12.

    Raises ThresholdError when no descending crossing exists (the
    quadratic has no real root; happens for extreme lam).
    """
    if not 0.0 < scale < np.inf:
        raise ConfigError("scale must be positive and finite")
    k, a, b, c_eff = _log_density_diff_coeffs(spec, scale)

    if a == 0.0:
        # equal variances: f is linear with slope K*b, b < 0 since p < q
        root = -c_eff / b
    else:
        disc = b * b - 4.0 * a * c_eff
        if disc <= 0.0:
            raise ThresholdError(
                "log density ratio has no sign change (no real root; "
                f"discriminant {disc:.3e})"
            )
        sq = np.sqrt(disc)
        qform = -0.5 * (b + np.copysign(sq, b))
        r1, r2 = qform / a, c_eff / qform
        # descending crossing: f'(x) = K (2 a x + b) < 0
        root = r1 if 2.0 * a * r1 + b < 0.0 else r2

    def f(x):
        return k * ((a * x + b) * x + c_eff)

    def fprime(x):
        return k * (2.0 * a * x + b)

    # bracket the root, expanding until the sign change is captured
    step = 1e-8 * max(1.0, abs(root))
    left, right = root - step, root + step
    for _ in range(200):
        if f(left) > 0.0 >= f(right):
            break
        step *= 4.0
        left, right = root - step, root + step
    else:
        raise ThresholdError("failed to bracket the descending root")

    x = root
    for _ in range(100):
        fx = f(x)
        if abs(fx) <= 1e-12 or right - left <= np.finfo(float).eps * max(
            1.0, abs(x)
        ):
            break
        if fx > 0.0:
            left = x
        else:
            right = x
        deriv = fprime(x)
        x_newton = x - fx / deriv if deriv != 0.0 else x
        x = x_newton if left < x_newton < right else 0.5 * (left + right)
    return float(x)


def classify_error(spec, scale):
    """Probability of misclassifying a vertex under the threshold rule.

    eta = lam * (1 - Phi(sqrt(scale) (x* - p) / sigma_p))
        + (1 - lam) * Phi(sqrt(scale) (x* - q) / sigma_q)

    where x* = classify_threshold(spec, scale). Both the in-sample and the
    out-of-sample error use this one formula; only `scale` differs.
    """
    x = classify_threshold(spec, scale)
    sp2, sq2 = spec.variances()
    rs = np.sqrt(scale)
    return float(
        spec.lam * (1.0 - norm_cdf(rs * (x - spec.p) / np.sqrt(sp2)))
        + (1.0 - spec.lam) * norm_cdf(rs * (x - spec.q) / np.sqrt(sq2))
    )


def error_ratio_curve(spec, n, m_grid):
    """Ratio eta(scale=n+m) / eta(scale=n+1) per m in the grid.

    The numerator is the error after the expensive full re-embedding that
    makes all m new vertices in-sample (effective sample count n+m); the
    denominator is the error of the cheap out-of-sample estimates, each
    based on the n original vertices (effective count n+1). A ratio near 1
    means re-embedding buys almost nothing; m=1 gives exactly 1.
    """
    base = classify_error(spec, n + 1)
    return [(int(m), classify_error(spec, n + int(m)) / base) for m in m_grid]
