"""The four benchmark workloads.

Each workload has a set-up (inputs and warm-up), a round of timed work that
the run repeats until its time is up, checks of each round's outputs, and
final checks over everything the run produced. Rounds of one run always do
the same operations, so the share of failed operations does not depend on
how many rounds fit.

The program is driven through its public API and through `cli.main`, as a
user runs it. Module attributes are looked up at call time (`oos.lls_oos`,
not a local import), so the traced mode sees the benchmark's own calls too.
"""

import contextlib
import csv
import io as _textio
import json
import os
import shutil
import time
import traceback

import numpy as np
import scipy.optimize

import checks
from oos_ase import align, cli, embedding, io, model, oos
from oos_ase.errors import NonConvergenceError, OosAseError

EPS = 0.05  # ML constraint margin: the CLI default

SIZES = {
    "full": {
        "clt-study": {"n": 1000, "trials": 10, "probe": 150, "ls_repeat": 10},
        "oos-place": {"n": 4000, "m": 1000, "ls_repeat": 5},
        "cli-files": {"n": 2000, "ratio_n": "100,1000,10000", "probe": 150,
                      "ls_repeat": 10},
        "rate-sweep": {"grid": (100, 200, 400, 800, 1600), "trials": 5,
                       "probe": 150, "ls_repeat": 10},
    },
    # the self-test's size: every code path, a second or two per workload
    "tiny": {
        "clt-study": {"n": 200, "trials": 3, "probe": 5, "ls_repeat": 2},
        "oos-place": {"n": 400, "m": 30, "ls_repeat": 2},
        "cli-files": {"n": 300, "ratio_n": "100,1000", "probe": 5,
                      "ls_repeat": 2},
        "rate-sweep": {"grid": (100, 200, 400, 800), "trials": 2, "probe": 5,
                       "ls_repeat": 2},
    },
}


def derive(seed, *key):
    """A 32-bit seed for the program, derived from the run seed and a key."""
    state = np.random.SeedSequence([seed, *key]).generate_state(1)
    return int(state[0])


def run_cli(argv):
    """cli.main(argv) -> (exit code, wall seconds, captured stdout)."""
    buf = _textio.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback: the command failed, the run goes on
        traceback.print_exc()
        rc = 1
    return rc, time.perf_counter() - t0, buf.getvalue()


def warm_linprog():
    """First call into scipy's HiGHS linear programming (the ML solver's
    Chebyshev-centre start), so its one-time cost falls into set-up."""
    scipy.optimize.linprog([-1.0], A_ub=[[1.0]], b_ub=[1.0], method="highs")


def total(rounds, key):
    return sum(r[key] for r in rounds)


class Counter:
    """Operations attempted and failed, by kind."""

    def __init__(self):
        self.kinds = {}

    def add(self, kind, attempted, failed=0):
        a, f = self.kinds.get(kind, (0, 0))
        self.kinds[kind] = (a + attempted, f + failed)

    @property
    def attempted(self):
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self):
        return sum(f for _, f in self.kinds.values())

    def to_json(self):
        return {k: {"attempted": a, "failed": f}
                for k, (a, f) in sorted(self.kinds.items())}


STALL_MAX = 3  # held-out vertices one set-up may leave out
STALL_GRAD = 2.0  # a known stall ends within this factor of the tolerance


def known_stall(exc, n):
    """ml_oos's known fault: w stops moving with the projected gradient
    just above the default tolerance 1e-8 n, and the iterations run out
    (seen at 1.11 and 1.10 times the tolerance)."""
    return (isinstance(exc, NonConvergenceError)
            and exc.grad_norm is not None
            and exc.grad_norm <= STALL_GRAD * 1e-8 * n)


class Placements:
    """One sampled graph, its embedding, and m held-out vertices drawn
    from F with their edge vectors. `run()` places every vertex with
    lls_oos (ls_repeat passes over the vertices, since one LS call takes
    microseconds) and once with ml_oos, and times the two loops.

    Set-up places every vertex with ml_oos once. ml_oos has one known
    fault: it can stall just short of its tolerance and run out its
    iterations (about one vertex in 5000 at n = 4000), so whether a seed
    meets it is chance. Set-up leaves out at most STALL_MAX vertices that
    fail that way (`known_stall`), so that the failed share does not depend
    on the seed; they are listed in `left_out`. Every other vertex stays,
    whatever ml_oos does on it: one that raises in set-up raises again in
    every round and counts as a failed placement there."""

    def __init__(self, dist, n, m, seed, ls_repeat):
        if not 1 <= ls_repeat <= m:
            raise ValueError("ls_repeat must lie in [1, m]")
        rng = model.as_generator(seed)
        lat = model.sample_latents(dist, n, rng)
        adj = model.sample_adjacency(lat, rng)
        self.emb = embedding.ase(adj, dist.dimension)
        held = model.sample_latents(dist, m, rng)
        edges = [model.sample_oos_edges(lat, w, rng) for w in held.rows]
        keep, self.left_out = [], []
        for k, e in enumerate(edges):
            try:
                oos.ml_oos(self.emb, e, eps=EPS)
            except OosAseError as exc:
                if known_stall(exc, n) and len(self.left_out) < STALL_MAX:
                    self.left_out.append({"vertex": k, "message": str(exc)})
                    continue
            keep.append(k)
        self.edges = [edges[k] for k in keep]
        self.x = lat.rows
        self.wbar = held.rows[keep]
        self.ls_repeat = ls_repeat
        self.first = None
        self.pending = []  # results of runs not checked yet

    def run(self, counter):
        """Returns (LS seconds, ML seconds). The LS passes alternate with
        slices of the ML pass, so both are timed across the whole run of
        the loop rather than in one block each."""
        emb, edges = self.emb, self.edges
        ls_s = ml_s = 0.0
        ml = []
        for part in np.array_split(np.arange(len(edges)), self.ls_repeat):
            t0 = time.perf_counter()
            ls = [oos.lls_oos(emb, e) for e in edges]
            t1 = time.perf_counter()
            for k in part:
                try:
                    ml.append(oos.ml_oos(emb, edges[k], eps=EPS))
                except OosAseError:
                    ml.append(None)
            t2 = time.perf_counter()
            ls_s += t1 - t0
            ml_s += t2 - t1
        failed = sum(est is None for est in ml)
        counter.add("placements", (self.ls_repeat + 1) * len(edges), failed)
        self.pending.append((ls, ml))
        return ls_s, ml_s

    def check(self):
        """The first run's estimates against lstsq, the eps-box and the
        recomputed objective; later runs must repeat them bit for bit."""
        for ls, ml in self.pending:
            self._check(ls, ml)
        self.pending = []

    def _check(self, ls, ml):
        w_ls = np.array([e.w for e in ls])
        ok = [k for k, e in enumerate(ml) if e is not None]
        w_ml = np.array([ml[k].w for k in ok])
        obj = np.array([ml[k].objective for k in ok])
        if self.first is None:
            a = np.array([e.a for e in self.edges])
            pos = self.emb.positions
            checks.check_ls(pos, a, w_ls)
            if ok:
                checks.check_ml(pos, a[ok], w_ml, obj, EPS)
            self.first = (w_ls, ok, w_ml, obj)
            return
        f_ls, f_ok, f_ml, f_obj = self.first
        if not (np.array_equal(w_ls, f_ls) and ok == f_ok
                and np.array_equal(w_ml, f_ml) and np.array_equal(obj, f_obj)):
            raise checks.CheckError("placements differ between rounds")


class Workload:
    name = None

    def __init__(self, root, seed, size, workdir, nproc):
        self.root = root
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.workdir = workdir
        self.nproc = nproc
        self.counter = Counter()
        self.notes = {}  # recorded with the run

    @property
    def workers(self):
        return 1

    def preset(self, name):
        return os.path.join(self.root, "presets", name)

    def setup(self):
        raise NotImplementedError

    def work(self, k):
        """Round k's timed operations; returns its timings."""
        raise NotImplementedError

    def check(self, k):
        """Checks of round k's outputs (untimed, untraced)."""

    def finish(self):
        """Checks over every round of the run."""

    def metrics(self, rounds):
        raise NotImplementedError


class CltStudy(Workload):
    """`experiment --study clt-ls` at n = 1000, w-bar fixed to atom 0,
    one worker: the shape of acceptance criterion 5. Before and after the
    study, each round places a fixed set of held-out vertices into the
    warm-up embedding (the probe behind ls_per_s and ml_per_s)."""

    name = "clt-study"

    def setup(self):
        s = self.size
        self.spec = self.preset("mixture_2d.json")
        points, weights = checks.load_preset(self.spec)
        self.sig = checks.sigma(points, weights, points[0])
        dist = io.read_distribution(self.spec)
        self.place = Placements(dist, s["n"], s["probe"], derive(self.seed, 0),
                                s["ls_repeat"])
        warm_linprog()
        self.errors = []

    def work(self, k):
        s = self.size
        out = os.path.join(self.workdir, "study")
        ls1, ml1 = self.place.run(self.counter)
        rc, wall, _ = run_cli([
            "experiment", "--study", "clt-ls", "--spec", self.spec,
            "--n", s["n"], "--trials", s["trials"],
            "--seed", derive(self.seed, 1, k), "--wbar-atom", 0,
            "--workers", 1, "--out", out,
        ])
        self.rc = rc
        ls2, ml2 = self.place.run(self.counter)
        return {"study": wall, "ls": ls1 + ls2, "ml": ml1 + ml2}

    def check(self, k):
        trials = self.size["trials"]
        if self.rc != 0:
            self.counter.add("trials", trials, trials)
        else:
            rows = checks.read_trials(
                os.path.join(self.workdir, "study", "trials.csv"), 2)
            checks.check_trial_rows(rows)
            bad = sum(r["status"] != "ok" for r in rows)
            self.counter.add("trials", trials, bad + trials - len(rows))
            self.errors += [r["error"] for r in rows if r["status"] == "ok"]
        self.place.check()

    def finish(self):
        emp, trace = checks.check_covariance(np.array(self.errors),
                                             self.size["n"], self.sig)
        self.notes["covariance"] = {"trials": len(self.errors),
                                    "n_cov": emp.tolist(),
                                    "sigma": self.sig.tolist(),
                                    "trace_test": trace}

    def metrics(self, rounds):
        s = self.size
        k, m = len(rounds), len(self.place.edges)
        return {
            "trials_per_s": k * s["trials"] / total(rounds, "study"),
            "ls_per_s": 2 * k * m * s["ls_repeat"] / total(rounds, "ls"),
            "ml_per_s": 2 * k * m / total(rounds, "ml"),
            "pipeline_s": total(rounds, "study") / k,
        }


class OosPlace(Workload):
    """One fixed n = 4000 embedding from set-up; each round places the
    same m held-out vertices with LS and with ML."""

    name = "oos-place"

    def setup(self):
        s = self.size
        spec = self.preset("mixture_2d.json")
        self.points, self.weights = checks.load_preset(spec)
        dist = io.read_distribution(spec)
        self.place = Placements(dist, s["n"], s["m"], derive(self.seed, 0),
                                s["ls_repeat"])
        warm_linprog()

    def work(self, k):
        ls_wall, ml_wall = self.place.run(self.counter)
        return {"ls": ls_wall, "ml": ml_wall}

    def check(self, k):
        self.place.check()

    def finish(self):
        pl = self.place
        t0 = time.perf_counter()
        rot = align.procrustes(pl.emb.positions, pl.x).rotation
        self.align_s = time.perf_counter() - t0
        own = checks.procrustes_svd(pl.emb.positions, pl.x)
        if not np.max(np.abs(rot - own)) <= 1e-9:
            raise checks.CheckError("procrustes differs from the SVD solution")
        w_ls = pl.first[0]
        errors = w_ls @ own - pl.wbar  # row k is R^T w_k - wbar_k
        sigmas = [checks.sigma(self.points, self.weights, w) for w in pl.wbar]
        got, target = checks.check_clt_trace(errors, sigmas, self.size["n"])
        self.notes["ls_error"] = {"n_mean_sq": got, "trace_sigma": target,
                                  "procrustes_s": self.align_s}

    def metrics(self, rounds):
        k, m, rep = len(rounds), len(self.place.edges), self.size["ls_repeat"]
        ls, ml = total(rounds, "ls"), total(rounds, "ml")
        return {
            "trials_per_s": k * m / (ls / rep + ml),
            "ls_per_s": k * m * rep / ls,
            "ml_per_s": k * m / ml,
            "pipeline_s": (ls + ml) / k,
        }


class CliFiles(Workload):
    """sample -> embed -> oos ls -> oos ml at n = 2000, then the analytic
    ratio study, all through cli.main with files in between. Before and
    after the commands, each round places a fixed set of held-out vertices
    into an n = 2000 warm-up embedding: one `oos` command takes a few
    milliseconds, too short to time on its own."""

    name = "cli-files"
    COMMANDS = ("sample", "embed", "oos_ls", "oos_ml", "ratio")

    def setup(self):
        s = self.size
        self.spec = self.preset("mixture_2d.json")
        self.ratio_spec = self.preset("classify_1d.json")
        checks.load_preset(self.spec)
        dist = io.read_distribution(self.spec)
        io.read_distribution(self.ratio_spec)
        self.place = Placements(dist, s["n"], s["probe"], derive(self.seed, 0),
                                s["ls_repeat"])
        warm_linprog()

    def work(self, k):
        d = os.path.join(self.workdir, "pipeline")
        shutil.rmtree(d, ignore_errors=True)
        emb = os.path.join(d, "embedding")
        oos_args = ["oos", "--embedding", emb,
                    "--edges", os.path.join(d, "oos_edges.csv"), "--method"]
        argvs = [
            ["sample", "--spec", self.spec, "--n", self.size["n"],
             "--seed", derive(self.seed, 1, k), "--out", d],
            ["embed", "--graph", os.path.join(d, "graph.txt"), "--dim", 2,
             "--out", emb],
            oos_args + ["ls"],
            oos_args + ["ml"],
            ["experiment", "--study", "ratio", "--spec", self.ratio_spec,
             "--n", self.size["ratio_n"], "--out", os.path.join(d, "ratio")],
        ]
        ls1, ml1 = self.place.run(self.counter)
        timings, self.results = {}, {}
        for name, argv in zip(self.COMMANDS, argvs):
            rc, wall, stdout = run_cli(argv)
            timings[name] = wall
            self.results[name] = (rc, stdout)
        ls2, ml2 = self.place.run(self.counter)
        return {"commands": timings, "ls": ls1 + ls2, "ml": ml1 + ml2}

    def check(self, k):
        self.place.check()
        d = os.path.join(self.workdir, "pipeline")
        failed = sum(rc != 0 for rc, _ in self.results.values())
        self.counter.add("commands", len(self.COMMANDS), failed)
        if failed:
            return
        if k == 0:  # the rewrite costs two passes over a 7.7 MB file
            graph = os.path.join(d, "graph.txt")
            again = os.path.join(self.workdir, "graph_rewritten.txt")
            io.write_edge_list(io.read_edge_list(graph), again)
            with open(graph, "rb") as a, open(again, "rb") as b:
                checks.check_rewrite(a.read(), b.read())
        pos = np.loadtxt(os.path.join(d, "embedding.csv"), delimiter=",",
                         ndmin=2)
        a = np.loadtxt(os.path.join(d, "oos_edges.csv"), ndmin=1)[None, :]
        ls = json.loads(self.results["oos_ls"][1])
        ml = json.loads(self.results["oos_ml"][1])
        checks.check_ls(pos, a, np.array([ls["w"]]))
        checks.check_ml(pos, a, np.array([ml["w"]]),
                        [ml["diagnostics"]["objective"]], EPS)
        for n in self.size["ratio_n"].split(","):
            path = os.path.join(d, "ratio", "plotdata", f"ratio_n{n}.csv")
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            checks.check_ratio_curve([int(m) for m, _ in rows],
                                     [float(r) for _, r in rows])

    def metrics(self, rounds):
        s, k, m = self.size, len(rounds), len(self.place.edges)
        cmds = [r["commands"] for r in rounds]
        # a trial: one graph plus one held-out vertex, placed by both methods
        trial = sum(c["sample"] + c["embed"] + c["oos_ls"] + c["oos_ml"]
                    for c in cmds)
        return {
            "trials_per_s": k / trial,
            "ls_per_s": 2 * k * m * s["ls_repeat"] / total(rounds, "ls"),
            "ml_per_s": 2 * k * m / total(rounds, "ml"),
            "pipeline_s": sum(sum(c.values()) for c in cmds) / k,
        }


class RateSweep(Workload):
    """`experiment --study rate` over n = 100..1600 with one trial worker
    per core and BLAS pinned to one thread. Before and after the study,
    each round places a fixed set of held-out vertices into an n = 1600
    warm-up embedding."""

    name = "rate-sweep"

    @property
    def workers(self):
        return self.nproc

    def setup(self):
        s = self.size
        self.spec = self.preset("mixture_2d.json")
        checks.load_preset(self.spec)
        dist = io.read_distribution(self.spec)
        self.place = Placements(dist, s["grid"][-1], s["probe"],
                                derive(self.seed, 0), s["ls_repeat"])
        warm_linprog()
        self.errors = {}  # (method, n) -> aligned error norms

    def work(self, k):
        s = self.size
        ls1, ml1 = self.place.run(self.counter)
        rc, wall, _ = run_cli([
            "experiment", "--study", "rate", "--spec", self.spec,
            "--n", ",".join(str(n) for n in s["grid"]),
            "--trials", s["trials"], "--seed", derive(self.seed, 1, k),
            "--workers", self.workers,
            "--out", os.path.join(self.workdir, "study"),
        ])
        self.rc = rc
        ls2, ml2 = self.place.run(self.counter)
        return {"study": wall, "ls": ls1 + ls2, "ml": ml1 + ml2}

    def check(self, k):
        s = self.size
        trials = s["trials"] * len(s["grid"])
        if self.rc != 0:
            self.counter.add("trials", trials, trials)
        else:
            rows = checks.read_trials(
                os.path.join(self.workdir, "study", "trials.csv"), 2)
            checks.check_trial_rows(rows)
            # a trial is one graph with an LS and an ML record; it fails
            # when either record is not ok or missing
            good = {(r["n"], r["trial"]) for r in rows if r["status"] == "ok"}
            bad = {(r["n"], r["trial"]) for r in rows if r["status"] != "ok"}
            self.counter.add("trials", trials, trials - len(good - bad))
            for r in rows:
                if r["status"] == "ok":
                    key = (r["method"], r["n"])
                    self.errors.setdefault(key, []).append(
                        float(np.linalg.norm(r["error"])))
        self.place.check()

    def finish(self):
        grid = self.size["grid"]
        for method in ("LS", "ML"):
            errs = [self.errors.get((method, n), []) for n in grid]
            count = min(len(e) for e in errs)
            if count == 0:
                raise checks.CheckError(f"no successful {method} trials")
            slope = checks.check_slope(grid, [np.median(e) for e in errs],
                                       count)
            self.notes[f"slope_{method}"] = {"slope": slope,
                                             "trials_per_n": count}

    def metrics(self, rounds):
        s = self.size
        k, m = len(rounds), len(self.place.edges)
        return {
            "trials_per_s": k * s["trials"] * len(s["grid"])
            / total(rounds, "study"),
            "ls_per_s": 2 * k * m * s["ls_repeat"] / total(rounds, "ls"),
            "ml_per_s": 2 * k * m / total(rounds, "ml"),
            "pipeline_s": total(rounds, "study") / k,
        }


WORKLOADS = {w.name: w for w in (CltStudy, OosPlace, CliFiles, RateSweep)}
