"""Output checks for the benchmark workloads.

Every check recomputes what it compares against with numpy alone, or tests
a property the method must have; none of them calls into `oos_ase`. Each
raises CheckError with a message naming what failed, so the self-test can
feed a corrupted output and see the checker refuse it.
"""

import csv
import json

import numpy as np


class CheckError(Exception):
    """An output of the program disagrees with its independent check."""


def load_preset(path):
    """(points, weights) of a distribution spec, parsed with json alone."""
    with open(path) as fh:
        raw = json.load(fh)
    points = np.array([a["point"] for a in raw["atoms"]], dtype=float)
    weights = np.array([a["weight"] for a in raw["atoms"]], dtype=float)
    return points, weights


def sigma(points, weights, wbar):
    """Sigma = Delta^-1 E[X^T w (1 - X^T w) X X^T] Delta^-1 for a finite
    mixture, with Delta = E[X X^T]."""
    p = points @ np.asarray(wbar, dtype=float)
    delta = np.einsum("k,ki,kj->ij", weights, points, points)
    mid = np.einsum("k,ki,kj->ij", weights * p * (1.0 - p), points, points)
    dinv = np.linalg.inv(delta)
    return dinv @ mid @ dinv


def procrustes_svd(source, target):
    """Orthogonal R minimising ||source R - target||_F, from one SVD."""
    u, _, vt = np.linalg.svd(source.T @ target)
    return u @ vt


def check_ls(positions, edges, w_ls, tol=1e-10):
    """Each LS estimate equals numpy's least-squares solution within tol.

    edges is (m, n), w_ls is (m, d); one lstsq call solves all m columns.
    """
    ref = np.linalg.lstsq(positions, np.asarray(edges, dtype=float).T,
                          rcond=None)[0].T
    worst = float(np.max(np.abs(np.asarray(w_ls) - ref)))
    if not worst <= tol:
        raise CheckError(f"LS estimate differs from lstsq by {worst:.3e} > {tol}")


def loglik(positions, avec, w):
    p = positions @ w
    return float(avec @ np.log(p) + (1.0 - avec) @ np.log1p(-p))


def check_ml(positions, edges, w_ml, objectives, eps, box_tol=1e-9,
             obj_rtol=1e-9):
    """Each ML estimate lies in the eps-box {eps <= X_i^T w <= 1 - eps}
    within box_tol, and its reported objective equals the log-likelihood
    recomputed at the estimate."""
    edges = np.asarray(edges, dtype=float)
    p = np.asarray(w_ml) @ positions.T  # (m, n)
    outside = float(max(np.max(eps - p), np.max(p - (1.0 - eps))))
    if not outside <= box_tol:
        raise CheckError(f"ML estimate leaves the eps-box by {outside:.3e}")
    for k, (avec, w, obj) in enumerate(zip(edges, w_ml, objectives)):
        ref = loglik(positions, avec, np.asarray(w))
        if not abs(obj - ref) <= obj_rtol * abs(ref):
            raise CheckError(
                f"ML objective {obj!r} of vertex {k} != recomputed {ref!r}"
            )


def check_clt_trace(errors, sigmas, n, z=5.0, rel=0.15):
    """n * mean ||R^T w - wbar||^2 lies near the mean of trace Sigma(wbar).

    For Gaussian errors n ||e||^2 has mean tr Sigma and variance
    2 tr(Sigma^2); the window is z standard errors of the mean over the m
    vertices plus a relative allowance `rel` for finite-n bias.
    """
    errors = np.asarray(errors)
    sq = n * np.einsum("ij,ij->i", errors, errors)
    target = float(np.mean([np.trace(s) for s in sigmas]))
    se = float(np.sqrt(np.mean([2.0 * np.trace(s @ s) for s in sigmas])
                       / len(sq)))
    got = float(sq.mean())
    if not abs(got - target) <= z * se + rel * target:
        raise CheckError(
            f"n*mean||err||^2 = {got:.4f}, trace Sigma = {target:.4f}, "
            f"window {z * se + rel * target:.4f}"
        )
    return got, target


def check_covariance(errors, n, sig, z=4.0, rel=0.15, trace_z=4.0,
                     trace_rel=0.05):
    """n * (empirical covariance of the errors) matches Sigma.

    Entrywise, the window for entry (i, j) is z standard deviations of a
    Wishart entry, sqrt((S_ij^2 + S_ii S_jj) / (N - 1)), plus `rel` of
    sqrt(S_ii S_jj) for finite-n bias. Its trace, the pooled
    n ||e - mean e||^2, must also lie within trace_z standard errors
    sqrt(2 tr(Sigma^2) / N) plus `trace_rel` of trace Sigma: a narrower
    window, which catches errors uniformly too large or too small.
    Returns (n * cov, the trace test's figures).
    """
    errors = np.asarray(errors)
    count = errors.shape[0]
    if count < 3:
        raise CheckError(f"only {count} trials to estimate a covariance from")
    emp = n * np.cov(errors, rowvar=False, ddof=1)
    scale = np.sqrt(np.outer(np.diag(sig), np.diag(sig)))
    sd = np.sqrt((sig**2 + scale**2) / (count - 1))
    window = z * sd + rel * scale
    excess = np.abs(emp - sig) - window
    if np.any(excess > 0):
        i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
        raise CheckError(
            f"n*cov[{i},{j}] = {emp[i, j]:.4f} vs Sigma {sig[i, j]:.4f} "
            f"(window {window[i, j]:.4f}, {count} trials)"
        )
    centred = errors - errors.mean(axis=0)
    sq = n * np.einsum("ij,ij->i", centred, centred) * count / (count - 1)
    target = float(np.trace(sig))
    se = float(np.sqrt(2.0 * np.trace(sig @ sig) / count))
    half = trace_z * se + trace_rel * target
    got = float(sq.mean())
    if not abs(got - target) <= half:
        raise CheckError(
            f"trace of n*cov = {got:.4f} vs trace Sigma {target:.4f} "
            f"(window {half:.4f}, {count} trials)"
        )
    return emp, {"trace_n_cov": got, "trace_sigma": target,
                 "window": half, "relative_window": half / target}


# Standard deviation of a fitted log-log slope over n = 100..1600 is about
# SLOPE_SD_UNIT / sqrt(trials per n) (measured on mixture_2d: 0.147 at 5
# trials, 0.095 at 10); the window also allows SLOPE_BIAS for the small-n
# bias of the median errors (the fitted slope sits near -0.57 there).
SLOPE_SD_UNIT = 0.33
SLOPE_BIAS = 0.1


def fit_slope(ns, medians):
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(medians, dtype=float))
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def check_slope(ns, medians, trials, z=4.0):
    """The log-log slope of the median errors lies near -1/2."""
    slope = fit_slope(ns, medians)
    half = SLOPE_BIAS + z * SLOPE_SD_UNIT / np.sqrt(trials)
    if not abs(slope + 0.5) <= half:
        raise CheckError(
            f"log-log slope {slope:.3f} outside -0.5 +- {half:.3f} "
            f"({trials} trials per n)"
        )
    return slope


def read_trials(path, d):
    """trials.csv parsed with the csv module: dicts with status, n, trial,
    method, the aligned_error column ("reported") and the aligned error
    vector R^T w - w-bar recomputed from the row ("error")."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rec = {"status": row["status"], "n": int(row["n"]),
                   "trial": int(row["trial"]), "method": row["method"]}
            if row["status"] == "ok":
                w = np.array([float(row[f"w_{j}"]) for j in range(d)])
                wbar = np.array([float(row[f"wbar_{j}"]) for j in range(d)])
                rot = np.array([[float(row[f"rot_{i}{j}"]) for j in range(d)]
                                for i in range(d)])
                rec["error"] = rot.T @ w - wbar
                rec["reported"] = float(row["aligned_error"])
            rows.append(rec)
    return rows


def check_trial_rows(rows):
    """The aligned_error column equals ||R^T w - wbar|| recomputed."""
    for k, rec in enumerate(rows):
        if rec["status"] != "ok":
            continue
        ref = float(np.linalg.norm(rec["error"]))
        if not abs(rec["reported"] - ref) <= 1e-12 * max(1.0, ref):
            raise CheckError(
                f"trial row {k}: aligned_error {rec['reported']!r} != {ref!r}"
            )


def check_rewrite(original, rewritten):
    """An edge list read back and written again is byte-identical."""
    if original != rewritten:
        at = next((i for i, (a, b) in enumerate(zip(original, rewritten))
                   if a != b), min(len(original), len(rewritten)))
        raise CheckError(
            f"edge list does not rewrite byte for byte (first difference at "
            f"byte {at}; {len(original)} vs {len(rewritten)} bytes)"
        )


def check_ratio_curve(ms, ratios):
    """The error-ratio curve is exactly 1 at m = 1 and never increases."""
    ms = list(ms)
    ratios = np.asarray(ratios, dtype=float)
    if 1 not in ms or ratios[ms.index(1)] != 1.0:
        raise CheckError("error-ratio curve is not exactly 1 at m = 1")
    if np.any(np.diff(ratios) > 0):
        k = int(np.argmax(np.diff(ratios) > 0))
        raise CheckError(
            f"error-ratio curve increases between m={ms[k]} and m={ms[k + 1]}"
        )
