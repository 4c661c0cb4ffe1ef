"""Span tracing for the traced benchmark mode.

The tracer wraps public functions of `oos_ase` at every module attribute
through which they are reached (the defining module and each module that
imported the name), so calls made by the program itself are traced. Each
call records a span: name, start, end, parent span, trial id and thread,
plus extras (iterations, bytes written, tracemalloc peak). Spans stay in
memory; the benchmark writes them out when the run ends.
"""

import itertools
import os
import threading
import time
import tracemalloc

import numpy as np

from oos_ase import (align, cli, embedding, experiments, io, linalg, model,
                     oos, theory)

# (module, attribute, span name, options). "peak" spans measure the
# tracemalloc peak inside the call.
TARGETS = [
    (model, "sample_latents", "model.sample_latents", ()),
    (model, "sample_adjacency", "model.sample_adjacency", ("peak",)),
    (model, "sample_oos_edges", "model.sample_oos_edges", ()),
    (model.AdjacencyMatrix, "to_dense", "model.to_dense", ("peak",)),
    (linalg, "top_eigs", "linalg.top_eigs", ("peak",)),
    (embedding, "ase", "embedding.ase", ()),
    (oos, "lls_oos", "oos.lls_oos", ()),
    (oos, "ml_oos", "oos.ml_oos", ("ml",)),
    (align, "procrustes", "align.procrustes", ()),
    (experiments, "run_study", "experiments.run_study", ("fanout",)),
    (experiments, "_clt_trial", "experiments.trial", ("trial",)),
    (experiments, "_rate_trial", "experiments.trial", ("trial",)),
    (io, "write_edge_list", "io.write_edge_list", ("bytes",)),
    (io, "read_edge_list", "io.read_edge_list", ()),
    (io, "write_embedding", "io.write_embedding", ()),
    (io, "read_embedding", "io.read_embedding", ()),
    (io, "read_edge_vector", "io.read_edge_vector", ()),
    (io, "write_study", "io.write_study", ("bytes",)),
    (theory, "error_ratio_curve", "theory.error_ratio_curve", ()),
    (theory, "classify_error", "theory.classify_error", ()),
    (theory, "sigma_clt", "theory.sigma_clt", ()),
    (cli, "cmd_sample", "cli.sample", ()),
    (cli, "cmd_embed", "cli.embed", ()),
    (cli, "cmd_oos", "cli.oos", ()),
    (cli, "cmd_experiment", "cli.experiment", ()),
]


def _path_bytes(path):
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Span:
    __slots__ = ("id", "name", "t0", "t1", "parent", "trial", "thread",
                 "extra", "base", "peak")
    FIELDS = ("round", "id", "name", "t0", "t1", "parent", "trial", "thread",
              "extra")

    def to_row(self, round_index):
        """The span as a list in FIELDS order (round None: set-up)."""
        return [round_index, self.id, self.name, self.t0, self.t1,
                self.parent, self.trial, self.thread, self.extra]


class Tracer:
    """Install with `install()`, remove with `uninstall()`; `take()` hands
    over the spans recorded since the last call."""

    def __init__(self, modules):
        self.modules = modules  # every module whose globals may hold a target
        self.spans = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._fanout = None  # open run_study span: parent of worker threads
        self._lock = threading.Lock()
        self._peak_open = []  # open "peak" spans, folded on every reset
        self._patches = []

    # -- installation -------------------------------------------------
    def install(self):
        for owner, attr, name, opts in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, opts)
            holders = [owner] + [m for m in self.modules
                                 if m is not owner
                                 and getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    # -- spans --------------------------------------------------------
    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self, name, trial=None):
        stack = self._stack()
        span = Span()
        span.id = next(self._ids)
        span.name = name
        span.parent = stack[-1].id if stack else self._fanout
        span.trial = trial if trial is not None else (
            stack[-1].trial if stack else None)
        span.thread = threading.get_ident()
        span.extra = {}
        span.peak = None
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _peak_start(self, span):
        with self._lock:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            cur, peak = tracemalloc.get_traced_memory()
            for other in self._peak_open:
                other.peak = max(other.peak, peak)
            tracemalloc.reset_peak()
            span.base = cur
            span.peak = cur
            self._peak_open.append(span)

    def _peak_end(self, span):
        with self._lock:
            _, peak = tracemalloc.get_traced_memory()
            for other in self._peak_open:
                other.peak = max(other.peak, peak)
            self._peak_open.remove(span)
            span.extra["peak_mb"] = (span.peak - span.base) / 2**20
            if not self._peak_open:
                tracemalloc.stop()

    def _wrap(self, fn, name, opts):
        tracer = self

        def traced(*args, **kwargs):
            extra = {}
            if "ml" in opts:
                # LS start outside the eps-box: ml_oos then needs the
                # Chebyshev-centre start (a linear program)
                emb, a = args[0], args[1]
                eps = kwargs.get("eps", args[2] if len(args) > 2 else 0.05)
                avec = getattr(a, "a", a)
                p = emb.positions @ ((emb.eig.vectors.T @ np.asarray(
                    avec, dtype=float)) / np.sqrt(emb.eig.values))
                extra["box_start"] = int(min(p.min() - eps,
                                             1.0 - eps - p.max()) <= 0.0)
            trial = None
            if "trial" in opts:
                key = args[1]
                trial = "-".join(str(int(k)) for k in np.atleast_1d(key))
            span = tracer._open(name, trial)
            span.extra = extra
            if "fanout" in opts:
                tracer._fanout = span.id
            if "peak" in opts:
                tracer._peak_start(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                if "peak" in opts:
                    tracer._peak_end(span)
                if "fanout" in opts:
                    tracer._fanout = None
                tracer._close(span)
            if "ml" in opts:
                span.extra["iterations"] = int(out.iterations)
            if "bytes" in opts:
                span.extra["bytes"] = _path_bytes(args[1])
            if "fanout" in opts:
                span.extra["workers"] = int(args[0].workers)
            return out

        return traced


def self_times(spans):
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for t0, t1 in sorted(children.get(s.id, [])):
            t0, t1 = max(t0, end), min(t1, s.t1)
            if t1 > t0:
                covered += t1 - t0
                end = t1
        out[s.id] = (s.t1 - s.t0) - covered
    return out


# Per-layer metrics: name -> (span name, quantity, unit).
LAYER_METRICS = {
    "model.sample_latents.s": ("model.sample_latents", "s", "s"),
    "model.sample_adjacency.s": ("model.sample_adjacency", "s", "s"),
    "model.sample_adjacency.peak_mb": ("model.sample_adjacency", "peak_mb", "MB"),
    "model.sample_oos_edges.s": ("model.sample_oos_edges", "s", "s"),
    "model.to_dense.s": ("model.to_dense", "s", "s"),
    "model.to_dense.peak_mb": ("model.to_dense", "peak_mb", "MB"),
    "linalg.top_eigs.s": ("linalg.top_eigs", "s", "s"),
    "linalg.top_eigs.calls": ("linalg.top_eigs", "calls", "count"),
    "linalg.top_eigs.peak_mb": ("linalg.top_eigs", "peak_mb", "MB"),
    "embedding.ase.self_s": ("embedding.ase", "self_s", "s"),
    "oos.lls_oos.s": ("oos.lls_oos", "s", "s"),
    "oos.lls_oos.calls": ("oos.lls_oos", "calls", "count"),
    "oos.ml_oos.s": ("oos.ml_oos", "s", "s"),
    "oos.ml_oos.calls": ("oos.ml_oos", "calls", "count"),
    "oos.ml_oos.iterations": ("oos.ml_oos", "iterations", "count"),
    "oos.ml_oos.box_starts": ("oos.ml_oos", "box_start", "count"),
    "align.procrustes.s": ("align.procrustes", "s", "s"),
    "align.procrustes.calls": ("align.procrustes", "calls", "count"),
    "experiments.run_study.self_s": ("experiments.run_study", "self_s", "s"),
    "io.write_edge_list.s": ("io.write_edge_list", "s", "s"),
    "io.write_edge_list.bytes": ("io.write_edge_list", "bytes", "bytes"),
    "io.read_edge_list.s": ("io.read_edge_list", "s", "s"),
    "io.write_embedding.s": ("io.write_embedding", "s", "s"),
    "io.read_embedding.s": ("io.read_embedding", "s", "s"),
    "io.read_edge_vector.s": ("io.read_edge_vector", "s", "s"),
    "io.write_study.s": ("io.write_study", "s", "s"),
    "io.write_study.bytes": ("io.write_study", "bytes", "bytes"),
    "theory.error_ratio_curve.s": ("theory.error_ratio_curve", "s", "s"),
    "theory.classify_error.calls": ("theory.classify_error", "calls", "count"),
    "theory.sigma_clt.calls": ("theory.sigma_clt", "calls", "count"),
    "cli.sample.self_s": ("cli.sample", "self_s", "s"),
    "cli.embed.self_s": ("cli.embed", "self_s", "s"),
    "cli.oos.self_s": ("cli.oos", "self_s", "s"),
    "cli.experiment.self_s": ("cli.experiment", "self_s", "s"),
}


def layer_totals(spans):
    """Per-layer metric totals over one batch of spans (a set-up or one
    round). Times and counts add up; peak_mb is the largest peak."""
    selfs = self_times(spans)
    out = {name: 0.0 for name in LAYER_METRICS}
    out["experiments.worker_busy"] = 0.0
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    for metric, (span_name, qty, _) in LAYER_METRICS.items():
        group = by_name.get(span_name, [])
        if qty == "s":
            val = sum(s.t1 - s.t0 for s in group)
        elif qty == "self_s":
            val = sum(selfs[s.id] for s in group)
        elif qty == "calls":
            val = len(group)
        elif qty == "peak_mb":
            val = max((s.extra["peak_mb"] for s in group), default=0.0)
        else:
            val = sum(s.extra[qty] for s in group)
        out[metric] = float(val)
    studies = by_name.get("experiments.run_study", [])
    trials = by_name.get("experiments.trial", [])
    capacity = sum((s.t1 - s.t0) * s.extra["workers"] for s in studies)
    if capacity > 0:
        busy = sum(t.t1 - t.t0 for t in trials)
        out["experiments.worker_busy"] = busy / capacity
    return out
