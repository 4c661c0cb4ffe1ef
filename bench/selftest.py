"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the root of a checkout. First every workload runs at the tiny
size, untraced and traced, and must finish with correct results, no failed
operation and every metric BENCHMARK.json names. Then each checker gets a
genuine output of the program, which it must accept, and corrupted copies
(a perturbed estimate, a flipped edge bit, a broken curve, ...), each of
which it must reject. Exits 0 when everything holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from oos_ase import (align, embedding, experiments, io, model, oos,  # noqa: E402
                     theory)

FAILURES = []


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}",
          flush=True)
    if not ok:
        FAILURES.append(name)


def accepts(name, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except CheckError as exc:
        report(f"{name}: genuine output accepted", False, str(exc))
        return
    report(f"{name}: genuine output accepted", True)


def rejects(name, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except CheckError as exc:
        report(f"{name}: rejected", True, str(exc))
        return
    report(f"{name}: rejected", False, "the checker accepted it")


def tiny_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w["name"], "--seed", "3", "--seconds", "1", "--trace",
                 str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                report(f"{w['name']} trace {trace}", False, proc.stderr[-500:])
                continue
            names = {m["name"] for m in bench[key]}
            values = [m["value"] for m in result["metrics"].values()]
            ok = (proc.returncode == 0 and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0
                  and set(result["metrics"]) == names
                  and all(math.isfinite(v) for v in values)
                  and (trace or all(v > 0 for v in values)))
            report(f"{w['name']} trace {trace} at the tiny size", ok,
                   f"{result['attempted']} operations")


def placement_checks():
    dist = io.read_distribution(os.path.join(ROOT, "presets", "mixture_2d.json"))
    points, weights = checks.load_preset(
        os.path.join(ROOT, "presets", "mixture_2d.json"))
    n, m = 800, 200
    rng = model.as_generator(5)
    lat = model.sample_latents(dist, n, rng)
    emb = embedding.ase(model.sample_adjacency(lat, rng), 2)
    held = model.sample_latents(dist, m, rng).rows
    a = np.array([model.sample_oos_edges(lat, w, rng).a for w in held])
    pos = emb.positions
    w_ls = np.array([oos.lls_oos(emb, e).w for e in a])
    ml = [oos.ml_oos(emb, e, eps=0.05) for e in a]
    w_ml = np.array([e.w for e in ml])
    obj = np.array([e.objective for e in ml])

    accepts("LS vs lstsq", checks.check_ls, pos, a, w_ls)
    bad = w_ls.copy()
    bad[7, 1] += 1e-8
    rejects("LS estimate perturbed by 1e-8", checks.check_ls, pos, a, bad)

    accepts("ML box and objective", checks.check_ml, pos, a, w_ml, obj, 0.05)
    # push one estimate to where some X_i^T w falls below eps
    p = pos @ w_ml[3]
    i = int(np.argmin(p))
    step = (p[i] - 0.05 + 1e-6) / float(pos[i] @ pos[i])
    bad = w_ml.copy()
    bad[3] -= step * pos[i]
    rejects("ML estimate moved out of the eps-box", checks.check_ml,
            pos, a, bad, obj, 0.05)
    bad_obj = obj.copy()
    bad_obj[11] *= 1 + 1e-6
    rejects("ML objective off by 1e-6 relative", checks.check_ml,
            pos, a, w_ml, bad_obj, 0.05)

    rot = checks.procrustes_svd(pos, lat.rows)
    prog = align.procrustes(pos, lat.rows).rotation
    report("procrustes equals the SVD solution",
           float(np.max(np.abs(rot - prog))) <= 1e-9)
    errors = w_ls @ rot - held
    sigmas = [checks.sigma(points, weights, w) for w in held]
    accepts("LS error against trace Sigma", checks.check_clt_trace,
            errors, sigmas, n)
    rejects("LS errors doubled", checks.check_clt_trace, 2 * errors, sigmas, n)
    rejects("LS estimates paired with the wrong vertices",
            checks.check_clt_trace, w_ls[::-1] @ rot - held, sigmas, n)


def study_checks(tmp):
    dist = io.read_distribution(os.path.join(ROOT, "presets", "mixture_2d.json"))
    points, weights = checks.load_preset(
        os.path.join(ROOT, "presets", "mixture_2d.json"))
    n = 400
    cfg = experiments.ExperimentConfig(
        study="clt_ls", dist=dist, n_grid=(n,), trials=200, master_seed=9,
        wbar=dist.points[0])
    out = os.path.join(tmp, "clt")
    io.write_study(experiments.run_study(cfg), out)
    rows = checks.read_trials(os.path.join(out, "trials.csv"), 2)
    accepts("trials.csv aligned errors", checks.check_trial_rows, rows)
    rows[4]["reported"] *= 1.001
    rejects("aligned_error column altered", checks.check_trial_rows, rows)
    errors = np.array([r["error"] for r in rows])
    sig = checks.sigma(points, weights, points[0])
    accepts("clt covariance vs Sigma", checks.check_covariance, errors, n, sig)
    rejects("clt errors scaled by 2", checks.check_covariance,
            2 * errors, n, sig)
    rejects("clt errors with coordinates swapped", checks.check_covariance,
            errors[:, ::-1] * [1, -1], n, sig)
    rejects("clt errors 25 % too large", checks.check_covariance,
            1.25 * errors, n, sig)

    grid = (100, 200, 400, 800, 1600)
    trials = 16  # enough for the window to exclude slopes 0 and -1
    cfg = experiments.ExperimentConfig(
        study="rate_sweep", dist=dist, n_grid=grid, trials=trials,
        master_seed=4, workers=2)
    res = experiments.run_study(cfg)
    for method in ("LS", "ML"):
        med = [np.median([r.aligned_error for r in res.records
                          if r.method == method and r.n == nn]) for nn in grid]
        accepts(f"{method} rate slope", checks.check_slope, grid, med, trials)
        rejects(f"{method} errors that do not shrink with n",
                checks.check_slope, grid, [med[0]] * len(grid), trials)
        rejects(f"{method} errors shrinking like 1/n", checks.check_slope,
                grid, [med[0] * grid[0] / nn for nn in grid], trials)


def file_checks(tmp):
    dist = io.read_distribution(os.path.join(ROOT, "presets", "mixture_2d.json"))
    rng = model.as_generator(2)
    adj = model.sample_adjacency(model.sample_latents(dist, 300, rng), rng)
    path = os.path.join(tmp, "graph.txt")
    again = os.path.join(tmp, "again.txt")
    io.write_edge_list(adj, path)
    io.write_edge_list(io.read_edge_list(path), again)
    with open(path, "rb") as fh:
        original = fh.read()
    with open(again, "rb") as fh:
        accepts("edge list rewrite", checks.check_rewrite, original, fh.read())
    bits = adj.triu_bits().copy()
    bits[123] ^= 1
    io.write_edge_list(model.AdjacencyMatrix(adj.n, bits), again)
    with open(again, "rb") as fh:
        rejects("edge list with one edge bit flipped", checks.check_rewrite,
                original, fh.read())

    spec = theory.ClassifySpec.from_distribution(io.read_distribution(
        os.path.join(ROOT, "presets", "classify_1d.json")))
    curve = theory.error_ratio_curve(spec, 1000, list(range(1, 60)))
    ms = [m for m, _ in curve]
    ratios = [r for _, r in curve]
    accepts("error-ratio curve", checks.check_ratio_curve, ms, ratios)
    rejects("curve not exactly 1 at m = 1", checks.check_ratio_curve,
            ms, [ratios[0] * (1 - 1e-12)] + ratios[1:])
    broken = list(ratios)
    broken[30] = broken[28]
    rejects("curve that rises once", checks.check_ratio_curve, ms, broken)


def stall_filter_checks():
    """Set-up leaves out at most STALL_MAX vertices, and only for the known
    stall; every other ml_oos failure counts as a failed placement."""
    import workloads
    from oos_ase.errors import FeasibilityError, NonConvergenceError

    n = 300

    def stall(grad):
        return NonConvergenceError("no convergence", iterations=500,
                                   grad_norm=grad)

    report("a stall just above the tolerance is the known fault",
           workloads.known_stall(stall(1.1e-8 * n), n))
    report("a stall far from the tolerance is not",
           not workloads.known_stall(stall(1e-3), n))
    report("an infeasible start is not",
           not workloads.known_stall(FeasibilityError("empty box"), n))

    dist = io.read_distribution(os.path.join(ROOT, "presets", "mixture_2d.json"))
    genuine = oos.ml_oos
    for name, error in (("known stall", stall(1.1e-8 * n)),
                        ("solver error", FeasibilityError("empty box"))):
        def broken(*args, **kwargs):
            raise error
        oos.ml_oos = broken
        try:
            place = workloads.Placements(dist, n, 10, 1, 2)
            counter = workloads.Counter()
            place.run(counter)
        finally:
            oos.ml_oos = genuine
        left = 0 if name == "solver error" else workloads.STALL_MAX
        report(f"ml_oos failing on every vertex ({name}): "
               f"{left} left out, the rest counted as failed",
               len(place.left_out) == left
               and counter.failed == 10 - left
               and counter.attempted == 3 * (10 - left),
               f"{len(place.left_out)} left out, "
               f"{counter.failed}/{counter.attempted} failed")


def main():
    tmp = os.path.join(HERE, "out", "selftest")
    os.makedirs(tmp, exist_ok=True)
    tiny_runs()
    placement_checks()
    stall_filter_checks()
    study_checks(tmp)
    file_checks(tmp)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
