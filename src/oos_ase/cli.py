"""Command-line interface.

Subcommands: sample, embed, oos, experiment. Exit codes: 0 success,
2 configuration error, 3 numerical degeneracy, 4 solver failure, 5 I/O.
`experiment --workers N` (default 1) runs the trials in N forked processes,
largest graphs first, and writes the same bytes for every N. Each process
runs its own BLAS thread pool, so run with OPENBLAS_NUM_THREADS=1 when
N > 1; on Python >= 3.12, forking a process that has live BLAS threads
emits a DeprecationWarning. A platform without fork exits with 2 for N > 1.
"""

import argparse
import json
import os
import sys

from . import io
from .embedding import ase
from .errors import ConfigError, OosAseError, SolverError
from .experiments import ExperimentConfig, run_study
from .model import (MAX_ORDER, as_generator, sample_adjacency,
                    sample_latents, sample_oos_edges)
from .oos import DEFAULT_EPS, check_eps, lls_oos, ml_oos
from .theory import ClassifySpec


def _int_list(text):
    """argparse type of a comma list of integers."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma list of integers: {text!r}") from None


def cmd_sample(args):
    """Sample a graph, its latent positions, and one out-of-sample vertex."""
    dist = io.read_distribution(args.spec)
    if not 1 <= args.n <= MAX_ORDER:
        raise ConfigError(f"--n must be >= 1 and <= {MAX_ORDER}")
    os.makedirs(args.out, exist_ok=True)
    rng = as_generator(args.seed)
    lat_all = sample_latents(dist, args.n + 1, rng)
    rows, wbar = lat_all.rows[:args.n], lat_all.rows[args.n]
    adj = sample_adjacency(rows, rng)
    oos_edges = sample_oos_edges(rows, wbar, rng)
    io.write_edge_list(adj, os.path.join(args.out, "graph.txt"))
    io.write_matrix_csv(rows, os.path.join(args.out, "latents.csv"))
    io.write_edge_vector(oos_edges, os.path.join(args.out, "oos_edges.csv"))
    io.write_matrix_csv(wbar[None, :], os.path.join(args.out, "oos_truth.csv"))
    return 0


def cmd_embed(args):
    adj = io.read_edge_list(args.graph)
    emb = ase(adj, args.dim)
    io.write_embedding(emb, args.out + ".csv", args.out + ".json")
    return 0


def cmd_oos(args):
    emb = io.read_embedding(args.embedding + ".csv", args.embedding + ".json")
    edges = io.read_edge_vector(args.edges)
    check_eps(args.eps)  # one --eps rule for both methods
    if args.method == "ls":
        est = lls_oos(emb, edges)
    else:
        est = ml_oos(emb, edges, eps=args.eps)
    print(io.estimate_json(est))
    return 0


_STUDY_NAMES = {
    "clt-ls": "clt_ls",
    "clt-ml": "clt_ml",
    "rate": "rate_sweep",
    "ratio": "error_ratio",
}


def cmd_experiment(args):
    dist = io.read_distribution(args.spec)
    if args.wbar_atom is not None and not 0 <= args.wbar_atom < dist.n_atoms:
        raise ConfigError(f"--wbar-atom {args.wbar_atom} out of range")
    cfg = ExperimentConfig(
        study=_STUDY_NAMES[args.study], dist=dist,
        # only the ratio study reads a ClassifySpec, which needs two atoms
        spec=ClassifySpec.from_distribution(dist) if args.study == "ratio" else None,
        n_grid=args.n, trials=args.trials, epsilon=args.eps,
        master_seed=args.seed, workers=args.workers,
        wbar=None if args.wbar_atom is None else dist.points[args.wbar_atom],
        m_grid=args.m_grid or (),
    )
    result = run_study(cfg)
    io.write_study(result, args.out)
    print(io.json_text(result.summary))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oos-ase",
        description="Spectral embedding of random dot product graphs with "
        "out-of-sample extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a graph plus one OOS vertex")
    p.add_argument("--spec", required=True, help="distribution spec JSON")
    p.add_argument("--n", type=int, required=True, help="in-sample vertex count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("embed", help="spectral embedding of an edge list")
    p.add_argument("--graph", required=True, help="edge list file")
    p.add_argument("--dim", type=int, required=True, help="embedding dimension")
    p.add_argument("--out", required=True,
                   help="output prefix (writes <out>.csv and <out>.json)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("oos", help="out-of-sample estimate from an embedding")
    p.add_argument("--embedding", required=True,
                   help="embedding prefix (expects <prefix>.csv and <prefix>.json)")
    p.add_argument("--edges", required=True, help="edge vector file")
    p.add_argument("--method", required=True, choices=["ls", "ml"])
    p.add_argument("--eps", type=float, default=DEFAULT_EPS,
                   help=f"ML constraint margin (default {DEFAULT_EPS})")
    p.set_defaults(func=cmd_oos)

    p = sub.add_parser("experiment", help="run a Monte-Carlo study")
    p.add_argument("--study", required=True, choices=sorted(_STUDY_NAMES))
    p.add_argument("--spec", required=True, help="distribution spec JSON")
    p.add_argument("--n", type=_int_list, required=True,
                   help="vertex count, or comma list for rate/ratio grids")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--workers", type=int, default=1,
                   help="trial worker processes, forked, largest graphs "
                   "first; output is the same for every count (default 1; "
                   "use OPENBLAS_NUM_THREADS=1 above 1)")
    p.add_argument("--wbar-atom", type=int, default=None,
                   help="fix the OOS vertex to this atom (default: draw from F; "
                   "rate sweeps default to atom 0)")
    p.add_argument("--m-grid", type=_int_list, default=None,
                   help="comma list of m values for the ratio study")
    p.add_argument("--out", required=True, help="study output directory")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        last = getattr(exc, "last_w", None)
        if last is not None:
            diag["last_w"] = [float(v) for v in last]
            diag["iterations"] = exc.iterations
            diag["grad_norm"] = exc.grad_norm
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return exc.exit_code
    except OosAseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
