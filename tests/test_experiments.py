import dataclasses
import multiprocessing

import numpy as np
import pytest

import oos_ase.experiments as experiments
from oos_ase import (
    ClassifySpec,
    ConfigError,
    DegenerateSpectrumError,
    ExperimentConfig,
    LatentDistribution,
    NonConvergenceError,
    error_ratio_curve,
    run_study,
)
from oos_ase.experiments import _substream, summarize_clt

MIX = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])
SPEC = ClassifySpec(lam=0.4, p=0.6, q=0.61)


def _records_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (ra.trial, ra.n, ra.method, ra.status, ra.message) != (
            rb.trial, rb.n, rb.method, rb.status, rb.message
        ):
            return False
        for fa, fb in ((ra.wbar, rb.wbar), (ra.w, rb.w), (ra.rotation, rb.rotation)):
            if (fa is None) != (fb is None):
                return False
            if fa is not None and not np.array_equal(fa, fb):
                return False
        if ra.aligned_error != rb.aligned_error:  # bit equality, not approx
            return False
    return True


def test_config_validation(monkeypatch):
    with pytest.raises(ConfigError, match="unknown study"):
        ExperimentConfig(study="bogus")
    with pytest.raises(ConfigError, match="n_grid entries must be <= 20000"):
        ExperimentConfig(study="rate_sweep", dist=MIX,
                         n_grid=(100, 200, 400, 20001))
    with pytest.raises(ConfigError, match="single n"):
        ExperimentConfig(study="clt_ls", dist=MIX, n_grid=(50, 100), trials=2)
    with pytest.raises(ConfigError, match="strictly increasing"):
        ExperimentConfig(study="rate_sweep", dist=MIX, n_grid=(50, 50, 100, 200))
    with pytest.raises(ConfigError, match="at least 4"):
        ExperimentConfig(study="rate_sweep", dist=MIX, n_grid=(50, 100, 200))
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(study="clt_ls", dist=MIX, n_grid=(50,), trials=0)
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        ExperimentConfig(study="clt_ls", dist=MIX, n_grid=(50,), workers=0)
    with pytest.raises(ConfigError, match="ClassifySpec"):
        ExperimentConfig(study="error_ratio", n_grid=(100,))
    with pytest.raises(ConfigError, match="error_ratio study needs n_grid"):
        ExperimentConfig(study="error_ratio", spec=SPEC)
    with pytest.raises(ConfigError, match="LatentDistribution"):
        ExperimentConfig(study="clt_ls", n_grid=(50,))
    for m_grid in ((0,), (-5,), (1, 0, 2)):
        with pytest.raises(ConfigError, match="m_grid entries must be >= 1"):
            ExperimentConfig(study="error_ratio", spec=SPEC, n_grid=(100,),
                             m_grid=m_grid)
    for m_grid in ((3, 1, 3), (1, 2, 2)):
        with pytest.raises(ConfigError, match="m_grid must be strictly increasing"):
            ExperimentConfig(study="error_ratio", spec=SPEC, n_grid=(100,),
                             m_grid=m_grid)
    # no trial can embed MIX in 2 dimensions with fewer than 2 vertices
    for study, n_grid in (("clt_ls", (1,)), ("clt_ml", (1,)),
                          ("rate_sweep", (1, 10, 20, 40))):
        with pytest.raises(ConfigError, match=">= the dimension 2"):
            ExperimentConfig(study=study, dist=MIX, n_grid=n_grid)
    ExperimentConfig(study="clt_ls", dist=MIX, n_grid=(2,))
    # worker processes are forked; without fork only one worker runs
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    with pytest.raises(ConfigError, match="fork start method"):
        ExperimentConfig(study="clt_ls", dist=MIX, n_grid=(50,), workers=2)
    ExperimentConfig(study="clt_ls", dist=MIX, n_grid=(50,), workers=1)


def test_config_is_validated_once_and_frozen():
    # a field set after validation skipped every check: n_grid = (10**12,)
    # ended in a 7.28 TiB MemoryError, an unknown study in a KeyError
    cfg = ExperimentConfig(study="clt_ls", dist=MIX, n_grid=(50,), trials=2,
                           wbar=[[0.2], [0.7]])
    for field, value in (("n_grid", (10**12,)), ("study", "bogus")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
    # the normalized fields hold what validation checked
    assert cfg.n_grid == (50,) and cfg.study == "clt_ls"
    assert cfg.wbar.shape == (2,)
    assert ExperimentConfig(study="error_ratio", spec=SPEC, n_grid=[100],
                            m_grid=[1, 5]).m_grid == (1, 5)


def test_substreams_are_keyed_and_reproducible():
    a = _substream(7, 3).random(5)
    b = _substream(7, 3).random(5)
    c = _substream(7, 4).random(5)
    d = _substream(8, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_clt_study_deterministic_and_worker_invariant():
    def cfg(workers):
        return ExperimentConfig(
            study="clt_ls", dist=MIX, n_grid=(60,), trials=10,
            master_seed=42, workers=workers,
        )

    r1 = run_study(cfg(1))
    r2 = run_study(cfg(1))
    r4 = run_study(cfg(4))
    assert _records_equal(r1.records, r2.records)
    assert _records_equal(r1.records, r4.records)
    assert r1.summary == r4.summary

    # a rate sweep hands its keys out largest n first; three workers on
    # five keys still give the records in key order
    rate = [run_study(ExperimentConfig(
        study="rate_sweep", dist=MIX, n_grid=(30, 40, 50, 60, 70), trials=1,
        master_seed=42, workers=workers)) for workers in (1, 3)]
    assert _records_equal(rate[0].records, rate[1].records)
    assert rate[0].summary == rate[1].summary
    assert [(r.n, r.method) for r in rate[1].records] == [
        (n, m) for n in (30, 40, 50, 60, 70) for m in ("LS", "ML")]


def test_worker_processes_end_and_pass_trial_exceptions_on(monkeypatch):
    cfg = ExperimentConfig(study="clt_ls", dist=MIX, n_grid=(40,), trials=4,
                           master_seed=3, workers=2)
    assert run_study(cfg).summary["failures"] == 0
    assert multiprocessing.active_children() == []

    # a trial error that is no OosAseError is a fault, not a failed trial:
    # it stops the study and reaches the caller as it was raised
    real = experiments._clt_trial

    def crashing(cfg, index):
        if index == 2:
            raise ValueError(f"synthetic crash in trial {index}")
        return real(cfg, index)

    monkeypatch.setattr(experiments, "_clt_trial", crashing)
    with pytest.raises(ValueError, match="^synthetic crash in trial 2$"):
        run_study(cfg)
    assert multiprocessing.active_children() == []


def test_clt_summary_is_pure_fold_of_records():
    cfg = ExperimentConfig(
        study="clt_ls", dist=MIX, n_grid=(60,), trials=12, master_seed=5
    )
    result = run_study(cfg)
    assert summarize_clt(cfg, result.records) == result.summary
    assert result.summary["trials"] == 12
    assert result.summary["failures"] == 0
    counts = [a["count"] for a in result.summary["atoms"]]
    assert sum(counts) == 12
    assert len(result.plotdata["clt_scatter"][1]) == 12
    for a in result.summary["atoms"]:
        assert 0.0 <= a["coverage68"] <= 1.0
        assert 0.0 <= a["coverage95"] <= 1.0
        # w-bar is drawn from F, so each group is centred on its atom
        assert a["wbar"] == a["atom"]


def test_clt_summary_centres_a_fixed_wbar_between_the_atoms():
    # w-bar = 0.5 is no atom; centring on the nearest atom, with that
    # atom's Sigma, gave a coverage95 of 0.0 here
    dist = LatentDistribution(1, [((0.2,), 0.5), ((0.8,), 0.5)])
    cfg = ExperimentConfig(study="clt_ls", dist=dist, n_grid=(500,),
                           trials=100, master_seed=0, wbar=[0.5])
    summary = run_study(cfg).summary
    assert summary["failures"] == 0
    assert 0.85 <= summary["coverage95"] <= 1.0
    assert len(summary["atoms"]) == 1
    # the group is labelled by its nearest atom but records its w-bar
    assert summary["atoms"][0]["atom"] == [0.2]
    assert summary["atoms"][0]["wbar"] == [0.5]
    assert abs(summary["atoms"][0]["mean"][0] - 0.5) < 0.01


def test_config_rejects_a_wbar_no_trial_can_use():
    dist = LatentDistribution(1, [((0.2,), 0.5), ((0.8,), 0.5)])
    for study, grid in (("clt_ls", (50,)), ("rate_sweep", (50, 60, 70, 80))):
        with pytest.raises(ConfigError, match="w-bar dimension 2 does not "
                                              "match distribution dimension 1"):
            ExperimentConfig(study=study, dist=dist, n_grid=grid, wbar=[0.5, 0.5])
        # 0.8 * 2.0 = 1.6 is no edge probability, nor is NaN
        for bad in ([2.0], [-0.5], [float("nan")]):
            with pytest.raises(ConfigError, match=r"outside \[0, 1\]"):
                ExperimentConfig(study=study, dist=dist, n_grid=grid, wbar=bad)
    # the boundary is allowed: 0.8 * 1.25 = 1.0
    ExperimentConfig(study="clt_ls", dist=dist, n_grid=(50,), wbar=[1.25])


def test_clt_study_draws_wbar_from_mixture_by_default():
    cfg = ExperimentConfig(
        study="clt_ls", dist=MIX, n_grid=(50,), trials=40, master_seed=11
    )
    result = run_study(cfg)
    atoms = {MIX.atom_index(r.wbar) for r in result.records}
    assert atoms == {0, 1}

    fixed = ExperimentConfig(
        study="clt_ls", dist=MIX, n_grid=(50,), trials=8, master_seed=11,
        wbar=MIX.points[0],
    )
    for r in run_study(fixed).records:
        assert np.array_equal(r.wbar, MIX.points[0])


def test_rate_sweep_structure_and_medians():
    cfg = ExperimentConfig(
        study="rate_sweep", dist=MIX, n_grid=(40, 80, 160, 320), trials=6,
        master_seed=17,
    )
    result = run_study(cfg)
    assert len(result.records) == 2 * 4 * 6  # methods x grid x trials
    s = result.summary
    assert {e["method"] for e in s["per_n"]} == {"LS", "ML"}
    assert len(s["per_n"]) == 8
    assert all(e["median_error"] > 0 for e in s["per_n"])
    assert s["slope_ls"] is not None and s["slope_ml"] is not None
    # errors shrink from the smallest to the largest n for both methods
    for method in ("LS", "ML"):
        meds = {e["n"]: e["median_error"] for e in s["per_n"]
                if e["method"] == method}
        assert meds[320] < meds[40]


def test_failed_trials_are_recorded_not_raised(monkeypatch):
    calls = {"count": 0}
    real = experiments.lls_oos

    def flaky(emb, a):
        calls["count"] += 1
        if calls["count"] % 4 == 0:
            raise NonConvergenceError("synthetic failure for testing")
        return real(emb, a)

    monkeypatch.setattr(experiments, "lls_oos", flaky)
    cfg = ExperimentConfig(
        study="clt_ls", dist=MIX, n_grid=(50,), trials=8, master_seed=23
    )
    result = run_study(cfg)
    failed = [r for r in result.records if r.status != "ok"]
    assert len(result.records) == 8
    assert len(failed) == 2
    assert all(r.status == "NonConvergenceError" for r in failed)
    assert all("synthetic" in r.message for r in failed)
    assert result.summary["failures"] == 2
    assert result.summary["failure_rate"] == pytest.approx(0.25)
    # coverage statistics come from the surviving trials only
    assert sum(a["count"] for a in result.summary["atoms"]) == 6


def test_rate_sweep_failures_fail_only_the_records_they_touch(monkeypatch):
    cfg = ExperimentConfig(
        study="rate_sweep", dist=MIX, n_grid=(30, 40, 50, 60), trials=2,
        master_seed=29,
    )

    def failing_ml(emb, a, eps):
        raise NonConvergenceError("synthetic ML failure")

    # a failed ML solve leaves the LS record of the same trial intact
    monkeypatch.setattr(experiments, "ml_oos", failing_ml)
    result = run_study(cfg)
    assert len(result.records) == 2 * 4 * 2
    for r in result.records:
        if r.method == "LS":
            assert r.status == "ok" and r.aligned_error is not None
        else:
            assert r.status == "NonConvergenceError"
            assert r.message == "synthetic ML failure" and r.w is None
    assert result.summary["failures"] == 8
    assert result.summary["slope_ls"] is not None
    assert result.summary["slope_ml"] is None

    # a failed simulation fails both records with the same message
    def failing_sample(lat, rng):
        raise DegenerateSpectrumError(f"synthetic failure at n={len(lat.rows)}")

    monkeypatch.setattr(experiments, "sample_adjacency", failing_sample)
    result = run_study(cfg)
    assert len(result.records) == 2 * 4 * 2
    for ls, ml in zip(result.records[::2], result.records[1::2]):
        assert (ls.method, ml.method) == ("LS", "ML")
        assert (ls.trial, ls.n) == (ml.trial, ml.n)
        assert ls.status == ml.status == "DegenerateSpectrumError"
        assert ls.message == ml.message == f"synthetic failure at n={ls.n}"
    assert result.summary["failures"] == 16


def test_error_ratio_matches_direct_curve_call():
    cfg = ExperimentConfig(
        study="error_ratio", spec=SPEC, n_grid=(100, 1000),
        m_grid=(1, 2, 10, 100),
    )
    result = run_study(cfg)
    for n in (100, 1000):
        direct = [[m, r] for m, r in error_ratio_curve(SPEC, n, (1, 2, 10, 100))]
        assert result.summary["curves"][str(n)] == direct
        assert result.plotdata[f"ratio_n{n}"][1] == direct
    assert result.records == []


def test_error_ratio_default_m_grid():
    cfg = ExperimentConfig(study="error_ratio", spec=SPEC, n_grid=(100,))
    assert cfg.m_grid[:3] == (1, 2, 3)
    assert cfg.m_grid[99] == 100
    assert max(cfg.m_grid) == 10_000
    assert list(cfg.m_grid) == sorted(set(cfg.m_grid))


def test_run_study_dispatch():
    cfg = ExperimentConfig(
        study="clt_ls", dist=MIX, n_grid=(40,), trials=2, master_seed=1
    )
    assert run_study(cfg).summary["study"] == "clt_ls"
    cfg = ExperimentConfig(study="error_ratio", spec=SPEC, n_grid=(100,),
                           m_grid=(1, 5))
    assert run_study(cfg).summary["study"] == "error_ratio"
