"""Benchmark of oos-ase: Monte-Carlo studies, out-of-sample placement and
the file pipeline.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Set-up (imports, preset load, input
generation, warm-up) runs in this process and, untraced, twice more in fresh
processes; `setup_s` is the median of the three. Then rounds of the
workload's operations repeat until --seconds have passed, each round's
outputs are checked, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics plus the tracing overhead. A record of the
run (metrics, operation counts, machine, versions, thread settings, git sha)
goes to bench/out/runs/, and the spans of a traced run to bench/out/traces/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NAMES = ("clt-study", "oos-place", "cli-files", "rate-sweep")
ONE_BLAS_THREAD = {"rate-sweep"}  # these run one trial worker per core
SETUP_PROCESSES = 2  # fresh processes that repeat the set-up
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's inputs")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used by the run itself)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads(workload):
    """BLAS threads: 1 where trial workers fill the cores, else one per
    core (OpenBLAS's own default), set before numpy is imported."""
    threads = "1" if workload in ONE_BLAS_THREAD else str(nproc())
    for var in BLAS_VARS:
        os.environ[var] = threads
    os.environ.pop("OOS_ASE_WORKERS", None)
    return int(threads)


def git_sha():
    """HEAD's sha, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(blas_threads, workers):
    import numpy as np
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"][
                "blas"]["version"]
        except Exception:  # the config layout differs between releases
            return "unknown"

    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": blas_threads,
        "trial_workers": workers,
        "git_sha": git_sha(),
    }


def import_program():
    """Import numpy, scipy and the package; returns the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads  # noqa: F401  (numpy, scipy, oos_ase and the checks)
    return time.perf_counter() - t0


def setup_in_fresh_process(args):
    """One more set-up, timed inside a new interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def write_json(path, doc, indent=1):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(ROOT, "src", "oos_ase", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "presets"))):
        print(f"error: no oos-ase source tree (src/oos_ase, presets) under "
              f"{ROOT}", file=sys.stderr)
        return 2
    blas_threads = pin_threads(args.workload)
    import_s = import_program()

    import spans
    import workloads
    from checks import CheckError

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = os.path.join(OUT, "work", tag + ("_setup" if args.setup_only
                                               else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.size,
                                            workdir, nproc())

    tracer = None
    setup_layers = None
    if args.trace:
        tracer = spans.Tracer([m for name, m in sys.modules.items()
                               if name.split(".")[0] == "oos_ase"])
        tracer.install()
    t0 = time.perf_counter()
    wl.setup()
    setup = [import_s + time.perf_counter() - t0]
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()
        setup_layers = spans.layer_totals(setup_spans)
    wl.notes["ml_left_out"] = wl.place.left_out
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0]}))
        return 0
    if not args.trace:
        setup += [setup_in_fresh_process(args) for _ in range(SETUP_PROCESSES)]

    # Rounds until the time is up. Round 0 warms up what the first pass
    # through the program fills lazily (allocator arenas, BLAS buffers and
    # threads at full size): it is checked but not timed. A traced run then
    # alternates traced (odd) and untraced (even) rounds, so the overhead is
    # measured under equal load.
    min_rounds = 3 if args.trace else 2
    plain, traced, round_layers, span_log = [], [], [], []
    correct, message = True, ""
    start = time.perf_counter()
    k = 0
    try:
        while k < min_rounds or time.perf_counter() - start < args.seconds:
            on = bool(tracer) and k % 2 == 1
            if on:
                tracer.install()
            try:
                timings = wl.work(k)
            finally:
                if on:
                    tracer.uninstall()
            if on:
                batch = tracer.take()
                round_layers.append(spans.layer_totals(batch))
                span_log += [s.to_row(k) for s in batch]
                traced.append(timings)
            elif k > 0:
                plain.append(timings)
            wl.check(k)
            k += 1
        wl.finish()
    except CheckError as exc:
        correct, message = False, str(exc)

    # a run whose checks failed may stop before it has every figure
    complete = correct and plain and (traced or not args.trace)
    e2e = wl.metrics(plain) if complete else {}
    e2e["setup_s"] = statistics.median(setup)
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {"trials_per_s": "1/s", "ls_per_s": "1/s", "ml_per_s": "1/s",
             "pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    if not complete:
        metrics = {}
    elif not args.trace:
        metrics = {name: {"value": e2e[name], "unit": units[name]}
                   for name in units}
    else:
        metrics, overhead = layer_metrics(wl, setup_layers, round_layers,
                                          plain, traced)
        write_json(os.path.join(OUT, "traces", tag + ".json"), {
            "workload": args.workload, "seed": args.seed,
            "fields": spans.Span.FIELDS,
            "setup_spans": [s.to_row(None) for s in setup_spans],
            "spans": span_log, "overhead": overhead,
        }, indent=None)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "correct": correct, "check_failure": message,
        "attempted": wl.counter.attempted, "failed": wl.counter.failed,
        "operations": wl.counter.to_json(), "rounds": k, "notes": wl.notes,
        "setup_runs_s": setup, "import_s": import_s,
        "round_timings": plain, "traced_round_timings": traced,
        "end_to_end": e2e, "metrics": metrics,
        "environment": environment(blas_threads, wl.workers),
    }
    write_json(os.path.join(OUT, "runs", tag + ".json"), record)
    if not correct:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": wl.counter.attempted,
                      "failed": wl.counter.failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(wl, setup_layers, round_layers, plain, traced):
    """Per-layer figures for one set-up plus one round (the set-up's total
    plus the median over traced rounds), and the tracing overhead."""
    import spans

    metrics = {}
    for name, (_, qty, unit) in spans.LAYER_METRICS.items():
        per_round = statistics.median(r[name] for r in round_layers)
        if qty == "peak_mb":
            value = max(setup_layers[name], per_round)
        else:
            value = setup_layers[name] + per_round
        metrics[name] = {"value": value, "unit": unit}
    metrics["experiments.worker_busy"] = {
        "value": statistics.median(r["experiments.worker_busy"]
                                   for r in round_layers),
        "unit": "ratio"}
    metrics["oos.ml_oos.left_out"] = {"value": len(wl.place.left_out),
                                      "unit": "count"}
    untraced, with_trace = wl.metrics(plain), wl.metrics(traced)
    overhead = {name: {"untraced": untraced[name], "traced": with_trace[name],
                       "traced_minus_untraced": with_trace[name] - untraced[name]}
                for name in untraced}
    base = untraced["pipeline_s"]
    diff = overhead["pipeline_s"]["traced_minus_untraced"]
    metrics["trace.overhead_s"] = {"value": diff, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * diff / base, "unit": "%"}
    return metrics, overhead


if __name__ == "__main__":
    sys.exit(main())
