"""File formats. Everything round-trips byte-identically: floats are
written with 17 significant digits (exact for IEEE doubles), rows are
ordered deterministically, and JSON is dumped with sorted keys.
"""

import csv
import json
import os
import re
from contextlib import contextmanager
from itertools import islice

import numpy as np

from .embedding import Embedding
from .errors import ConfigError, FileFormatError
from .experiments import TrialRecord
from .linalg import SIGN_CONVENTION, EigenPairs
from .model import AdjacencyMatrix, EdgeVector, LatentDistribution

EDGE_HEADER = "oos-ase graph n="

# Largest graph order read_edge_list accepts. The header is checked before
# anything is allocated. At this order the graph's bit buffer of n(n-1)/2
# bytes takes 200 MB, and embedding the graph builds a dense n x n float64
# matrix of 3.2 GB. The header does not bound the reader's other memory:
# it parses the body into int64 pairs, 16 bytes per edge line, in
# proportion to the file (an edge line takes at least 4 bytes).
MAX_ORDER = 20_000

# Whitespace as np.loadtxt splits on it: what str.isspace calls space,
# except the line break.
_SPACE = r"[^\S\n]"
# An edge line holds two integers that fit in int64 and may go on after a
# space; a blank line holds nothing else. The pattern finds the first line
# that is neither. It runs only after the parser has failed, to name it.
_INT = r"[+-]?0*[0-9]{1,18}"
_BAD_EDGE_LINE = re.compile(
    rf"^(?!{_SPACE}*(?:{_INT}{_SPACE}+{_INT}(?:{_SPACE}.*)?)?$).*", re.M
)
_DATA_LINE = re.compile(rf"^{_SPACE}*\S.*", re.M)


def fmt(x):
    """Canonical decimal form of a float: 17 significant digits."""
    return format(float(x), ".17g")


@contextmanager
def _text_file(path, error=FileFormatError, **kwargs):
    """open(path) for reading; bytes that do not decode raise `error`."""
    try:
        with open(path, **kwargs) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: undecodable bytes ({exc.reason})") from None


# ---------------------------------------------------------------- graphs

def write_edge_list(adj, path):
    """Header line, then one line "i j" per edge, in the order of edges().
    Each vertex name is formatted once; a row's lines are one join."""
    pairs = adj.edges()
    names = np.array([str(v) for v in range(adj.n)], dtype=object)
    rows = np.split(names[pairs[:, 1]],
                    np.searchsorted(pairs[:, 0], np.arange(1, adj.n)))
    with open(path, "w") as fh:
        fh.write(f"{EDGE_HEADER}{adj.n}\n")
        for i, js in enumerate(rows):
            if js.size:
                fh.write(f"{i} " + f"\n{i} ".join(js) + "\n")


def read_edge_list(path):
    with _text_file(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(EDGE_HEADER):
            raise FileFormatError(f"{path}: missing graph header")
        try:
            n = int(header[len(EDGE_HEADER):])
        except ValueError:
            raise FileFormatError(f"{path}: bad order in header {header!r}")
        if not 1 <= n <= MAX_ORDER:
            raise FileFormatError(
                f"{path}: order {n} in header outside [1, {MAX_ORDER}]"
            )
        start = fh.tell()
        pairs = np.empty((0, 2), dtype=np.int64)
        # loadtxt warns when it finds no data; this stops at the first line
        # that has some
        if any(not line.isspace() for line in fh):
            fh.seek(start)
            try:
                pairs = np.loadtxt(fh, dtype=np.int64, usecols=(0, 1),
                                   ndmin=2, comments=None)
            except ValueError as exc:  # a UnicodeDecodeError recurs below
                lineno, line = _body_line(fh, start, _BAD_EDGE_LINE)
                if lineno is None:
                    raise FileFormatError(f"{path}: bad edge list ({exc})")
                raise FileFormatError(f"{path}:{lineno}: bad edge line {line!r}")
        i, j = pairs[:, 0], pairs[:, 1]
        ok = (0 <= i) & (i < j) & (j < n)
        if not ok.all():
            k = int(np.argmin(ok))
            lineno, _ = _body_line(fh, start, _DATA_LINE, k)
            raise FileFormatError(
                f"{path}:{lineno}: edge ({i[k]},{j[k]}) out of range for n={n}"
            )
    return AdjacencyMatrix.from_edges(n, pairs)


def _body_line(fh, start, pattern, k=0):
    """(line number, text) of the k-th match of pattern in the body of the
    edge list fh, which starts at `start`, or (None, None)."""
    fh.seek(start)
    text = fh.read()
    match = next(islice(pattern.finditer(text), k, None), None)
    if match is None:
        return None, None
    return text.count("\n", 0, match.start()) + 2, match[0]


# --------------------------------------------------------------- matrices

def write_matrix_csv(m, path):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_matrix_csv(path):
    rows = []
    with _text_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: bad numeric row")
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise FileFormatError(f"{path}: empty or ragged matrix")
    m = np.asarray(rows)
    if not np.isfinite(m).all():
        raise FileFormatError(f"{path}: non-finite value in matrix")
    return m


def write_edge_vector(e, path):
    bits = e.a if isinstance(e, EdgeVector) else np.asarray(e)
    with open(path, "w") as fh:
        for b in bits:
            fh.write(f"{int(b)}\n")


def read_edge_vector(path):
    bits = []
    with _text_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line not in ("0", "1"):
                raise FileFormatError(f"{path}:{lineno}: edge bits must be 0 or 1")
            bits.append(int(line))
    return EdgeVector(a=np.asarray(bits, dtype=np.uint8))


# -------------------------------------------------------------- embeddings

def write_embedding(emb, csv_path, sidecar_path):
    write_matrix_csv(emb.positions, csv_path)
    sidecar = {
        "d": emb.d,
        "eigenvalues": [float(v) for v in emb.eig.values],
        "sign_convention": SIGN_CONVENTION,
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_embedding(csv_path, sidecar_path):
    positions = read_matrix_csv(csv_path)
    try:
        with _text_file(sidecar_path) as fh:
            sidecar = json.load(fh)
        values = np.asarray(sidecar["eigenvalues"], dtype=float)
        d = int(sidecar["d"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{sidecar_path}: bad embedding sidecar ({exc})")
    if positions.shape[1] != d or values.shape != (d,):
        raise FileFormatError(f"{sidecar_path}: dimension mismatch with positions")
    if not (np.isfinite(values).all() and np.all(values > 0)):
        raise FileFormatError(
            f"{sidecar_path}: eigenvalues must be positive and finite"
        )
    try:
        eig = EigenPairs(values=values, vectors=positions / np.sqrt(values))
        return Embedding(positions=positions, eig=eig,
                         source_order=positions.shape[0])
    except ConfigError as exc:
        raise FileFormatError(
            f"{csv_path}, {sidecar_path}: not an embedding ({exc})"
        ) from None


# ----------------------------------------------------- distribution specs

def read_distribution(path):
    try:
        with _text_file(path, ConfigError) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})")
    if not isinstance(raw, dict) or "dimension" not in raw or "atoms" not in raw:
        raise ConfigError(f"{path}: spec needs 'dimension' and 'atoms' fields")
    if not isinstance(raw["atoms"], list):
        raise ConfigError(f"{path}: 'atoms' must be a list")
    atoms = []
    for k, atom in enumerate(raw["atoms"]):
        if not isinstance(atom, dict) or "point" not in atom or "weight" not in atom:
            raise ConfigError(f"{path}: atom {k} needs 'point' and 'weight'")
        atoms.append((atom["point"], atom["weight"]))
    try:
        return LatentDistribution(raw["dimension"], atoms)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # a field's type
        raise ConfigError(f"{path}: malformed spec ({exc})") from None


# -------------------------------------------------------------- estimates

def estimate_json(est):
    doc = {
        "method": est.method,
        "w": [float(v) for v in est.w],
        "diagnostics": {
            "iterations": est.iterations,
            "grad_norm": est.grad_norm,
            "active_constraints": est.active_constraints,
        },
    }
    if est.objective is not None:
        doc["diagnostics"]["objective"] = est.objective
    return json.dumps(doc, sort_keys=True, indent=2)


# ----------------------------------------------------------- study output

def _vec_fields(vec, d):
    if vec is None:
        return [""] * d
    return [fmt(v) for v in np.asarray(vec).ravel()[:d]]


def write_trials_csv(records, d, path):
    """TrialRecords to CSV. A record holds no timings, so reruns with
    different worker counts stay byte-identical."""
    header = (
        ["trial", "n", "method", "status", "aligned_error"]
        + [f"wbar_{j}" for j in range(d)]
        + [f"w_{j}" for j in range(d)]
        + [f"rot_{i}{j}" for i in range(d) for j in range(d)]
        + ["message"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in records:
            row = [
                r.trial,
                r.n,
                r.method,
                r.status,
                fmt(r.aligned_error) if r.aligned_error is not None else "",
            ]
            row += _vec_fields(r.wbar, d)
            row += _vec_fields(r.w, d)
            row += _vec_fields(r.rotation, d * d)
            row.append(r.message)
            writer.writerow(row)


def read_trials_csv(path, d):
    records = []
    with _text_file(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "trial":
            raise FileFormatError(f"{path}: missing trials header")
        width = 6 + 2 * d + d * d
        for row in reader:
            if len(row) != width:
                raise FileFormatError(
                    f"{path}:{reader.line_num}: expected {width} fields, "
                    f"got {len(row)}"
                )
            trial, n, method, status, err = row[:5]
            off = 5
            wbar = row[off:off + d]
            w = row[off + d:off + 2 * d]
            rot = row[off + 2 * d:off + 2 * d + d * d]
            message = row[off + 2 * d + d * d]
            ok = status == "ok"
            try:
                records.append(TrialRecord(
                    trial=int(trial),
                    n=int(n),
                    method=method,
                    status=status,
                    wbar=np.asarray([float(v) for v in wbar]) if ok else None,
                    w=np.asarray([float(v) for v in w]) if ok else None,
                    rotation=np.asarray([float(v) for v in rot]).reshape(d, d)
                    if ok else None,
                    aligned_error=float(err) if err else None,
                    message=message,
                ))
            except ValueError:
                raise FileFormatError(f"{path}:{reader.line_num}: bad trial row")
    return records


def write_summary_json(summary, path):
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_plotdata_csv(header, rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])


def write_study(result, outdir):
    """Persist a StudyResult: trials.csv, summary.json, plotdata/*.csv."""
    os.makedirs(outdir, exist_ok=True)
    if result.records:
        write_trials_csv(result.records, result.config.dist.dimension,
                         os.path.join(outdir, "trials.csv"))
    write_summary_json(result.summary, os.path.join(outdir, "summary.json"))
    plotdir = os.path.join(outdir, "plotdata")
    os.makedirs(plotdir, exist_ok=True)
    for name in sorted(result.plotdata):
        header, rows = result.plotdata[name]
        write_plotdata_csv(header, rows, os.path.join(plotdir, f"{name}.csv"))
