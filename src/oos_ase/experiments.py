"""Seeded Monte-Carlo studies: CLT scatter, convergence-rate sweep, and the
analytic error-ratio curves.

A study is a frozen ExperimentConfig, validated once when it is built, and
a fold over its trial records. Both Monte-Carlo studies run their trials
through one runner, `_run_trials`: it calls the study's trial function on
each key, last key first (a rate sweep's largest graphs), and returns the
records in key order. Every trial derives its own counter-based RNG
substream from (master_seed, trial key), so results are byte-identical no
matter how many workers run them or in which order they finish. With
workers > 1 the trials run in that many forked processes. Each process
runs its own BLAS thread pool, so set OPENBLAS_NUM_THREADS=1 when workers
fill the cores; on Python >= 3.12, forking a process that has live BLAS
threads emits a DeprecationWarning. A platform without fork refuses
workers > 1. Studies never abort on a failed trial; failures are recorded
and reported in the summary, and the summary itself is a pure fold over the
trial records (recomputable from the persisted records alone).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .align import aligned_error, procrustes
from .embedding import ase
from .errors import ConfigError, OosAseError
from .model import (
    MAX_ORDER,
    LatentDistribution,
    LatentMatrix,
    sample_adjacency,
    sample_latents,
    sample_oos_edges,
)
from .oos import DEFAULT_EPS, check_eps, lls_oos, ml_oos
from .theory import ClassifySpec, chi2_quantile, error_ratio_curve, sigma_clt


def _grid(name, values):
    """values as a tuple of ints, each >= 1 and strictly increasing."""
    grid = tuple(int(v) for v in values)
    if any(v < 1 for v in grid):
        raise ConfigError(f"{name} entries must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{name} must be strictly increasing")
    return grid


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    study: str
    dist: LatentDistribution | None = None
    spec: ClassifySpec | None = None
    n_grid: tuple[int, ...] = ()
    trials: int = 1
    epsilon: float = DEFAULT_EPS
    master_seed: int = 0
    workers: int = 1
    wbar: np.ndarray | None = None  # None: draw w-bar from F each trial
    m_grid: tuple[int, ...] = ()

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}")
        object.__setattr__(self, "n_grid", _grid("n_grid", self.n_grid))
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if (self.workers > 1
                and "fork" not in multiprocessing.get_all_start_methods()):
            raise ConfigError("workers > 1 needs the fork start method, "
                              "which this platform lacks")
        check_eps(self.epsilon)  # the CLI passes --eps to every study
        if self.study == "error_ratio":
            if self.spec is None:
                raise ConfigError("error_ratio study needs a ClassifySpec")
            if not self.n_grid:
                raise ConfigError("error_ratio study needs n_grid")
            m_grid = _grid("m_grid", self.m_grid) or tuple(range(1, 101)) + tuple(
                int(v) for v in np.unique(np.logspace(2.1, 4, 40).astype(int)))
            object.__setattr__(self, "m_grid", m_grid)
        else:
            if self.dist is None:
                raise ConfigError(f"{self.study} study needs a LatentDistribution")
            if self.study in ("clt_ls", "clt_ml") and len(self.n_grid) != 1:
                raise ConfigError("CLT studies use a single n")
            if self.study == "rate_sweep" and len(self.n_grid) < 4:
                raise ConfigError("rate sweep needs at least 4 grid points")
            if self.n_grid[0] < self.dist.dimension:  # no trial could embed
                raise ConfigError(f"n_grid entries must be >= the "
                                  f"dimension {self.dist.dimension}")
            if self.n_grid[-1] > MAX_ORDER:  # the largest graph drawn
                raise ConfigError(f"n_grid entries must be <= {MAX_ORDER}")
            if self.wbar is not None:
                object.__setattr__(self, "wbar",
                                   np.asarray(self.wbar, dtype=float).ravel())
                self.dist.edge_probabilities(self.wbar)  # fail before trials


@dataclass(eq=False)
class TrialRecord:
    trial: int
    n: int
    method: str
    status: str  # "ok" or the error class name
    wbar: np.ndarray | None = None
    w: np.ndarray | None = None  # raw estimate, embedding frame
    rotation: np.ndarray | None = None  # d x d, estimate frame -> truth frame
    aligned_error: float | None = None
    message: str = ""


@dataclass
class StudyResult:
    config: ExperimentConfig
    records: list[TrialRecord]
    summary: dict
    plotdata: dict[str, tuple[list[str], list[list]]]  # name -> (header, rows)


def _substream(master_seed, *key):
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


# (trial, cfg) of the study whose workers are being forked; they inherit
# it. One study forks at a time: forking a threaded process is unsafe.
_job = None


def _call_job(key):
    trial, cfg = _job
    return trial(cfg, key)


def _run_trials(cfg, trial, keys):
    """Every record of trial(cfg, key) for the keys, in key order.

    The keys go out last first, so with a rate sweep's increasing grid the
    trials left when workers run out of keys are the short ones. With
    cfg.workers > 1 they go to forked processes, which inherit trial and
    cfg through `_job`, so only keys and records are pickled.
    """
    global _job
    keys = list(keys)[::-1]
    if cfg.workers == 1:
        groups = [trial(cfg, k) for k in keys]
    else:
        _job = (trial, cfg)
        with ProcessPoolExecutor(min(cfg.workers, len(keys)),
                                 multiprocessing.get_context("fork")) as pool:
            groups = list(pool.map(_call_job, keys))
    return [r for group in groups[::-1] for r in group]


def _run_trial(cfg, index, n, rng, wbar, methods):
    """One trial: draw a graph and a vertex, embed the graph and align it to
    the truth by Procrustes, then place the vertex by each method in turn.

    wbar=None draws the vertex's position from F along with the in-sample
    ones (the n+1 draws of the mixture-of-normals picture). One record per
    method: a failed simulation fails every record with its message, a
    failed placement only its own.
    """
    def failed(method, exc):
        return TrialRecord(trial=index, n=n, method=method,
                           status=type(exc).__name__, message=str(exc))

    try:
        if wbar is not None:
            lat = sample_latents(cfg.dist, n, rng)
        else:
            lat_all = sample_latents(cfg.dist, n + 1, rng)
            lat, wbar = LatentMatrix(rows=lat_all.rows[:n]), lat_all.rows[n]
        emb = ase(sample_adjacency(lat, rng), cfg.dist.dimension)
        avec = sample_oos_edges(lat, wbar, rng)
        rot = procrustes(emb.positions, lat.rows)
    except OosAseError as exc:
        return [failed(m, exc) for m in methods]
    records = []
    for method in methods:
        try:
            if method == "LS":
                est = lls_oos(emb, avec)
            else:
                est = ml_oos(emb, avec, eps=cfg.epsilon)
            records.append(TrialRecord(
                trial=index, n=n, method=method, status="ok", wbar=wbar,
                w=est.w, rotation=rot.rotation,
                aligned_error=aligned_error(est, rot, wbar),
            ))
        except OosAseError as exc:
            records.append(failed(method, exc))
    return records


def _clt_trial(cfg, index):
    method = "LS" if cfg.study == "clt_ls" else "ML"
    rng = _substream(cfg.master_seed, index)
    return _run_trial(cfg, index, cfg.n_grid[0], rng, cfg.wbar, (method,))


def summarize_clt(cfg, records):
    """Per-atom empirical moments and ellipse-coverage fractions.

    Records are grouped by the atom nearest their w-bar, and every record
    of a group shares that w-bar: the atom itself when w-bar is drawn from
    F, cfg.wbar when it is fixed. Each group is centred on its w-bar, which
    it records as "wbar", with the covariance Sigma(w-bar) / n.

    Pure fold over the records: everything here is recomputable from the
    persisted trial rows plus the study configuration.
    """
    n = cfg.n_grid[0]
    d = cfg.dist.dimension
    q68 = chi2_quantile(0.68, d)
    q95 = chi2_quantile(0.95, d)
    ok = [r for r in records if r.status == "ok"]
    by_atom = {}
    for r in ok:
        idx = cfg.dist.atom_index(r.wbar)
        by_atom.setdefault(idx, []).append(r)
    atoms = []
    inside68 = inside95 = 0
    for idx in sorted(by_atom):
        atom = cfg.dist.points[idx]
        wbar = by_atom[idx][0].wbar
        cov_theory = sigma_clt(cfg.dist, wbar) / n
        aligned = np.array([r.rotation.T @ r.w for r in by_atom[idx]])
        dev = aligned - wbar
        maha = np.einsum("ij,ij->i", dev @ np.linalg.inv(cov_theory), dev)
        in68 = int(np.count_nonzero(maha <= q68))
        in95 = int(np.count_nonzero(maha <= q95))
        inside68 += in68
        inside95 += in95
        entry = {
            "atom": [float(v) for v in atom],
            "wbar": [float(v) for v in wbar],
            "count": len(by_atom[idx]),
            "mean": [float(v) for v in aligned.mean(axis=0)],
            "coverage68": in68 / len(by_atom[idx]),
            "coverage95": in95 / len(by_atom[idx]),
        }
        if len(by_atom[idx]) > 1:
            emp = np.cov(aligned, rowvar=False, ddof=1)
            entry["cov"] = [[float(v) for v in row] for row in np.atleast_2d(emp)]
        atoms.append(entry)
    failures = len(records) - len(ok)
    return {
        "study": cfg.study,
        "n": n,
        "trials": len(records),
        "failures": failures,
        "failure_rate": failures / len(records) if records else 0.0,
        "coverage68": inside68 / len(ok) if ok else None,
        "coverage95": inside95 / len(ok) if ok else None,
        "atoms": atoms,
    }


def _run_clt_study(cfg):
    """CLT scatter study: one graph + one OOS vertex per trial, aligned by
    that trial's Procrustes rotation against the true latent positions."""
    records = _run_trials(cfg, _clt_trial, range(cfg.trials))
    summary = summarize_clt(cfg, records)
    rows = [
        [cfg.dist.atom_index(r.wbar)] + [v for v in (r.rotation.T @ r.w)]
        for r in records
        if r.status == "ok"
    ]
    header = ["atom"] + [f"w_{j}" for j in range(cfg.dist.dimension)]
    return StudyResult(cfg, records, summary, {"clt_scatter": (header, rows)})


def _rate_trial(cfg, key):
    ni, index = key
    rng = _substream(cfg.master_seed, ni, index)
    # rate sweeps fix w-bar to one atom to keep trial variance down
    wbar = cfg.wbar if cfg.wbar is not None else cfg.dist.points[0]
    return _run_trial(cfg, index, cfg.n_grid[ni], rng, wbar, ("LS", "ML"))


def summarize_rate(cfg, records):
    """Median aligned error per (n, method) and the log-log slope per method."""
    per_n = []
    slopes = {}
    for method in ("LS", "ML"):
        ns, medians = [], []
        for n in cfg.n_grid:
            errs = [
                r.aligned_error
                for r in records
                if r.status == "ok" and r.method == method and r.n == n
            ]
            if errs:
                ns.append(n)
                medians.append(float(np.median(errs)))
        for n, med in zip(ns, medians):
            per_n.append({"n": n, "method": method, "median_error": med})
        if len(ns) >= 2 and all(m > 0 for m in medians):
            slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
        else:
            slope = None
        slopes[method] = slope
    failures = sum(1 for r in records if r.status != "ok")
    return {
        "study": cfg.study,
        "n_grid": list(cfg.n_grid),
        "trials": cfg.trials,
        "failures": failures,
        "failure_rate": failures / len(records) if records else 0.0,
        "per_n": per_n,
        "slope_ls": slopes["LS"],
        "slope_ml": slopes["ML"],
    }


def _run_rate_sweep(cfg):
    """Convergence-rate sweep: both estimators on the same graph per trial,
    median aligned error per n, and the fitted log-log slope."""
    keys = [(ni, t) for ni in range(len(cfg.n_grid)) for t in range(cfg.trials)]
    records = _run_trials(cfg, _rate_trial, keys)
    summary = summarize_rate(cfg, records)
    rows = [
        [e["n"], e["method"], e["median_error"]] for e in summary["per_n"]
    ]
    return StudyResult(
        cfg, records, summary,
        {"rate_medians": (["n", "method", "median_error"], rows)},
    )


def _run_error_ratio(cfg):
    """Analytic error-ratio curves (no simulation): one curve per n."""
    curves = {str(n): [[m, r] for m, r in error_ratio_curve(cfg.spec, n, cfg.m_grid)]
              for n in cfg.n_grid}
    summary = {
        "study": cfg.study,
        "spec": {"lam": cfg.spec.lam, "p": cfg.spec.p, "q": cfg.spec.q},
        "n_grid": list(cfg.n_grid),
        "m_grid": list(cfg.m_grid),
        "curves": curves,
    }
    plotdata = {f"ratio_n{n}": (["m", "ratio"], rows) for n, rows in curves.items()}
    return StudyResult(cfg, [], summary, plotdata)


# Each study's runner by name, and so the studies ExperimentConfig accepts.
STUDIES = {"clt_ls": _run_clt_study, "clt_ml": _run_clt_study,
           "rate_sweep": _run_rate_sweep, "error_ratio": _run_error_ratio}


def run_study(cfg):
    """Run the study cfg names; the one entry point for every study."""
    return STUDIES[cfg.study](cfg)
