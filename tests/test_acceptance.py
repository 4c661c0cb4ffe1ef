"""Acceptance suite: nine end-to-end checks, one per criterion.

Each test prints a single PASS/FAIL line (run with -s or -rA to see them
all) and asserts the stated tolerance. The tolerance windows are fixed
properties of the protocol; the master seeds only make the Monte-Carlo
runs reproducible.
"""

import functools
import os
import time

import numpy as np

from oos_ase import io
from oos_ase.embedding import Embedding, embed_matrix
from oos_ase.experiments import ExperimentConfig, run_study
from oos_ase.linalg import EigenPairs, lstsq, top_eigs
from oos_ase.align import procrustes
from oos_ase.model import LatentDistribution, sample_latents, as_generator
from oos_ase.oos import likelihood, lls_oos, ml_oos
from oos_ase.theory import ClassifySpec, classify_error, error_ratio_curve, sigma_clt

MIX = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])
SPEC_1D = ClassifySpec(lam=0.4, p=0.6, q=0.61)


def _report(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


@functools.lru_cache(maxsize=None)
def _clt_study(study, seed, n, trials, wbar=None):
    cfg = ExperimentConfig(study=study, dist=MIX, n_grid=(n,), trials=trials,
                           master_seed=seed, workers=1, wbar=wbar)
    return run_study(cfg)


def test_criterion_1_ls_clt_coverage():
    t0 = time.perf_counter()
    summary = _clt_study("clt_ls", 2, 500, 100).summary
    dt = time.perf_counter() - t0
    c95, c68 = summary["coverage95"], summary["coverage68"]
    ok = (
        summary["failures"] == 0
        and 0.85 <= c95 <= 1.0
        and 0.55 <= c68 <= 0.80
        and dt < 120.0
    )
    _report("criterion 1 (LS CLT coverage, n=500, 100 trials)", ok,
            f"95%-ellipse {c95:.2f} in [0.85,1.00], "
            f"68%-ellipse {c68:.2f} in [0.55,0.80], {dt:.0f}s")


def test_criterion_2_ml_mirrors_ls():
    ls = _clt_study("clt_ls", 2, 500, 100)
    ml = _clt_study("clt_ml", 2, 500, 100)
    c95 = ml.summary["coverage95"]
    # same master seed => trial i of both studies sees the same graph and
    # edge vector, so the estimates are directly comparable per trial
    gaps = [
        float(np.linalg.norm(a.w - b.w))
        for a, b in zip(ls.records, ml.records)
        if a.status == "ok" and b.status == "ok"
    ]
    close = sum(g <= 0.1 for g in gaps)
    ok = (
        ml.summary["failures"] == 0
        and 0.85 <= c95 <= 1.0
        and len(gaps) == 100
        and close >= 90
    )
    _report("criterion 2 (ML coverage and ML-LS agreement)", ok,
            f"95%-ellipse {c95:.2f} in [0.85,1.00], "
            f"|ML-LS|<=0.1 in {close}/100 trials (max {max(gaps):.4f})")


def test_criterion_3_rate_slopes():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(study="rate_sweep", dist=MIX,
                           n_grid=(100, 200, 400, 800, 1600), trials=50,
                           master_seed=1, workers=1)
    summary = run_study(cfg).summary
    dt = time.perf_counter() - t0
    sl, sm = summary["slope_ls"], summary["slope_ml"]
    ok = (
        summary["failures"] == 0
        and -0.65 <= sl <= -0.35
        and -0.65 <= sm <= -0.35
        and dt < 600.0
    )
    _report("criterion 3 (error-rate slopes over n=100..1600)", ok,
            f"LS slope {sl:.3f}, ML slope {sm:.3f}, both in [-0.65,-0.35], "
            f"{dt:.0f}s")


def test_criterion_4_closed_form_equals_iterative():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(10, 150))
        d = int(rng.integers(1, 4))
        basis, _ = np.linalg.qr(rng.standard_normal((n, d)))
        values = np.sort(rng.uniform(0.2, 1.0, d) * n)[::-1]
        eig = EigenPairs(values=values, vectors=basis)
        emb = Embedding(eig=eig)
        avec = rng.integers(0, 2, n).astype(float)
        w_closed = lls_oos(emb, avec).w
        w_iter = lstsq(emb.positions, avec)
        worst = max(worst, float(np.linalg.norm(w_closed - w_iter)))
    ok = worst <= 1e-10
    _report("criterion 4 (closed form vs iterative LS, 1000 instances)", ok,
            f"max difference {worst:.2e} <= 1e-10")


def test_criterion_5_covariance_formula():
    study = _clt_study("clt_ls", 2, 1000, 2000, wbar=(0.2, 0.7))
    entry = study.summary["atoms"][0]
    emp = 1000.0 * np.asarray(entry["cov"])
    target = sigma_clt(MIX, np.array([0.2, 0.7]))
    rel = float(np.max(np.abs(emp - target) / np.abs(target)))
    ok = study.summary["failures"] == 0 and rel <= 0.25
    _report("criterion 5 (covariance formula, n=1000, 2000 trials)", ok,
            f"max entrywise relative error {rel:.3f} <= 0.25")


def test_criterion_6_classification_monotone_in_m():
    base = classify_error(SPEC_1D, 101)
    etas = np.array([classify_error(SPEC_1D, 100 + m) for m in range(2, 10001)])
    ok = bool((etas < base).all())
    _report("criterion 6 (eta(n+m) < eta(n+1) for m=2..10^4)", ok,
            f"eta(101)={base:.10f}, max over m={etas.max():.10f}, "
            f"strict for all 9999 values: {ok}")


def test_criterion_7_error_ratio_curve_shape():
    m_grid = tuple(sorted(set(
        list(range(1, 101)) + [int(round(v)) for v in np.logspace(2, 4, 41)]
    )))
    details = []
    ok = True
    for n in (100, 1000, 10000):
        curve = error_ratio_curve(SPEC_1D, n, m_grid)
        ms = [m for m, _ in curve]
        rs = np.array([r for _, r in curve])
        at1 = float(rs[ms.index(1)])
        min100 = float(rs[: ms.index(100) + 1].min())
        noninc = bool((np.diff(rs) <= 0).all())
        ok &= at1 == 1.0 and noninc
        if n >= 1000:
            ok &= min100 >= 0.9
        details.append(f"n={n}: ratio(1)={at1}, min@m<=100={min100:.4f}, "
                       f"non-increasing={noninc}")
    _report("criterion 7 (error-ratio curve shape)", ok, "; ".join(details))


def _feasible_latents(rng, n, d):
    x = rng.uniform(0.05, 0.95, (n, d))
    top = float((x @ x.T).max())
    if top > 0.95:
        x *= np.sqrt(0.95 / top)
    return x


def test_criterion_8_exactness_and_invariants():
    # noiseless path: gram-matrix input, expected edge vector
    rng = as_generator(11)
    lat = sample_latents(MIX, 400, rng)
    x = lat.rows
    wbar = np.array([0.65, 0.3])
    emb = embed_matrix(x @ x.T, 2)
    rot = procrustes(emb.positions, x).rotation
    row_err = float(np.abs(emb.positions @ rot - x).max())
    ls_err = float(np.linalg.norm(rot.T @ lls_oos(emb, x @ wbar).w - wbar))
    ml_err = float(np.linalg.norm(rot.T @ ml_oos(emb, x @ wbar).w - wbar))
    exact_ok = row_err <= 1e-8 and ls_err <= 1e-8 and ml_err <= 1e-8

    # analytic likelihood derivatives against central finite differences
    fd_rng = np.random.default_rng(8)
    h = 1e-6
    grad_rel = hess_rel = 0.0
    avec = fd_rng.integers(0, 2, emb.n).astype(float)
    for _ in range(10):
        mix = fd_rng.uniform(0.25, 0.75)
        w = rot @ (mix * np.array([0.2, 0.7]) + (1 - mix) * wbar)
        w += rot @ fd_rng.normal(scale=0.01, size=2)
        p = emb.positions @ w
        if p.min() < 0.02 or p.max() > 0.98:
            continue
        _, grad, hess = likelihood(emb, avec, w)
        fd_grad = np.zeros(2)
        fd_hess = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            vp, gp, _ = likelihood(emb, avec, w + e)
            vm, gm, _ = likelihood(emb, avec, w - e)
            fd_grad[j] = (vp - vm) / (2 * h)
            fd_hess[:, j] = (gp - gm) / (2 * h)
        grad_rel = max(grad_rel, float(
            np.linalg.norm(fd_grad - grad) / np.linalg.norm(grad)))
        hess_rel = max(hess_rel, float(
            np.linalg.norm(fd_hess - hess) / np.linalg.norm(hess)))
    fd_ok = grad_rel <= 1e-5 and hess_rel <= 1e-4

    # 500 randomized cases of the eigen / embedding / Procrustes invariants
    cases_ok = 0
    case_rng = np.random.default_rng(500)
    for _ in range(500):
        n = int(case_rng.integers(8, 41))
        d = int(case_rng.integers(1, 4))
        m = case_rng.standard_normal((n, n))
        sym = (m + m.T) / 2.0
        ep = top_eigs(sym, d)
        scale = max(1.0, float(np.abs(ep.values).max()))
        eig_ok = (
            bool((np.diff(ep.values) <= 0).all())
            and np.abs(ep.vectors.T @ ep.vectors - np.eye(d)).max() <= 1e-10
            and float(ep.residuals(sym).max()) <= 1e-8 * scale
        )

        xr = _feasible_latents(case_rng, n, d)
        er = embed_matrix(xr @ xr.T, d)
        recon = er.eig.vectors * er.eig.values @ er.eig.vectors.T
        emb_ok = (
            np.array_equal(er.positions,
                           er.eig.vectors * np.sqrt(er.eig.values))
            and float(np.abs(recon - xr @ xr.T).max()) <= 1e-8 * n
        )

        q, _ = np.linalg.qr(case_rng.standard_normal((d, d)))
        res = procrustes(xr @ q, xr)
        # (X q) R ~ X is solved by R = q^T
        pro_ok = (
            np.abs(res.rotation @ res.rotation.T - np.eye(d)).max() <= 1e-12
            and float(np.abs(res.rotation - q.T).max()) <= 1e-8
        )
        cases_ok += int(eig_ok and emb_ok and pro_ok)

    ok = exact_ok and fd_ok and cases_ok == 500
    _report("criterion 8 (exactness and invariants)", ok,
            f"noiseless row/LS/ML err {row_err:.1e}/{ls_err:.1e}/{ml_err:.1e} "
            f"<= 1e-8, FD grad {grad_rel:.1e} <= 1e-5, "
            f"FD hess {hess_rel:.1e} <= 1e-4, invariants {cases_ok}/500")


def test_criterion_9_worker_count_determinism(tmp_path):
    runs = [
        ("clt_ml",
         dict(study="clt_ml", dist=MIX, n_grid=(60,), trials=10,
              master_seed=5), (1, 3)),
        ("rate_sweep",
         dict(study="rate_sweep", dist=MIX, n_grid=(40, 80, 160, 320),
              trials=3, master_seed=5), (1, 2)),
        ("error_ratio",
         dict(study="error_ratio", spec=SPEC_1D, n_grid=(100, 1000),
              m_grid=(1, 10, 100), master_seed=5), (1, 2)),
    ]
    details = []
    ok = True
    for name, kwargs, worker_counts in runs:
        dirs = []
        for workers in worker_counts:
            out = tmp_path / f"{name}_w{workers}"
            result = run_study(ExperimentConfig(workers=workers, **kwargs))
            io.write_study(result, out)
            dirs.append(out)
        files = sorted(
            os.path.relpath(os.path.join(root, f), dirs[0])
            for root, _, fs in os.walk(dirs[0]) for f in fs
        )
        same = all(
            (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()
            for rel in files
        ) and files
        ok &= bool(same)
        details.append(f"{name}: {len(files)} files identical "
                       f"across workers {worker_counts}")
    _report("criterion 9 (worker-count determinism)", ok, "; ".join(details))
