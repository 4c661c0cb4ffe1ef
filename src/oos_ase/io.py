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
# matrix of 3.2 GB. The header does not bound the reader's other memory,
# which grows with the file (an edge line takes at least 4 bytes): it holds
# the file's bytes, once, their int64 pairs, 16 bytes per edge line, and
# the temporaries of one block of lines.
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

# Edge lists are written this many lines at a time, and read in windows of
# 8 bytes per line of it, about 15 000 lines of a graph of order 2000.
# Blocks this small keep the parser's temporaries in cache; neither size
# changes a result.
_EDGE_BLOCK = 2**14
# The token delimiters of an edge line in the writer's layout, " " and
# "\n", read as one uint16.
_LINE_DELIMS = np.frombuffer(b" \n", dtype=np.uint16)[0]
# An int64 holds every number of 18 decimal digits.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)


def write_edge_list(adj, path):
    """Header line, then one line "i j" per edge, in the order of edges().

    Each vertex has two NUL-padded 8-byte codes, its name followed by " "
    and by "\n"; a block of lines is the codes of its edges, gathered,
    with the NUL bytes dropped. A name has at most 7 digits: an order of
    10^7 would take 6 TB of packed bits.
    """
    n = adj.n
    pairs = adj.edges()
    names = np.arange(n).astype("S8").view(np.uint8).reshape(n, 8)
    codes = np.stack((names, names))
    codes[:, np.arange(n), np.count_nonzero(names, axis=1)] = [
        [ord(" ")], [ord("\n")]]
    codes = codes.view(np.uint64).reshape(2, n)
    lines = np.empty((min(_EDGE_BLOCK, len(pairs)), 2), dtype=np.uint64)
    with open(path, "wb") as fh:
        fh.write(f"{EDGE_HEADER}{n}\n".encode())
        for start in range(0, len(pairs), _EDGE_BLOCK):
            block = pairs[start:start + _EDGE_BLOCK]
            out = lines[:len(block)]
            np.take(codes[0], block[:, 0], out=out[:, 0])
            np.take(codes[1], block[:, 1], out=out[:, 1])
            text = out.view(np.uint8).reshape(-1)
            fh.write(text[text != 0])


def read_edge_list(path):
    """Graph of an edge list: the header line, then one line per edge.

    The header is checked, as text, before anything is allocated. The
    body then takes one of two routes, chosen by the file's bytes alone:

    - a file of ASCII bytes with no "\r", whose body is in exactly the
      layout of write_edge_list (lines of two tokens of 1-18 digits, one
      space between them, each ended by "\n"), is parsed from its bytes
      by whole-array byte operations, a block of lines at a time
      (_parse_edge_lines);
    - any other body is read as text, where "\r\n" and a lone "\r" end
      a line like "\n", by np.loadtxt (_load_edge_lines), which also
      takes blank lines, tabs and other spaces, signs and tokens after
      the pair, and names the first line it cannot read.

    Both routes give the same pairs where both apply, and share the range
    check, whose error names the line of the first bad pair.
    """
    with _text_file(path) as fh:
        line = fh.readline()
        header = line.rstrip("\n")
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
        with open(path, "rb") as raw:
            data = raw.read()
        pairs = None
        # ASCII bytes with no "\r" read as text unchanged, so the header
        # line takes as many bytes as characters
        if data.isascii() and b"\r" not in data:
            pairs = _parse_edge_lines(data, len(line))
        del data  # the loadtxt route reads the file again, as text
        if pairs is None:
            pairs = _load_edge_lines(fh, start, path)
        i, j = pairs[:, 0], pairs[:, 1]
        ok = (0 <= i) & (i < j) & (j < n)
        if not ok.all():
            k = int(np.argmin(ok))
            lineno, _ = _body_line(fh, start, _DATA_LINE, k)
            raise FileFormatError(
                f"{path}:{lineno}: edge ({i[k]},{j[k]}) out of range for n={n}"
            )
    return AdjacencyMatrix.from_edges(n, pairs)


def _parse_edge_lines(data, start):
    """(m, 2) int64 pairs of the edge-list body that starts at byte
    `start` of `data`, or None if the body is not in the writer's layout.

    The pairs array is made once, from the count of line breaks; each
    window of at most 8 * _EDGE_BLOCK bytes, cut after a line break, is
    checked and parsed with a few temporaries of its own size.
    """
    if len(data) > start and not data.endswith(b"\n"):
        return None
    pairs = np.empty((data.count(b"\n", start), 2), dtype=np.int64)
    values = pairs.reshape(-1)
    raw = np.frombuffer(data, dtype=np.uint8)
    done = 0
    while start < raw.size:
        stop = data.rfind(b"\n", start, start + 8 * _EDGE_BLOCK) + 1
        if stop == 0:  # a line longer than any in the layout
            return None
        block = raw[start:stop]
        # every byte is a digit, or a space or line break ending a token;
        # those two are the bytes below "0", and they must alternate
        end = np.flatnonzero(block < ord("0"))
        if (block.max() > ord("9") or end.size % 2
                or not np.all(block[end].view(np.uint16) == _LINE_DELIMS)):
            return None
        width = np.diff(end, prepend=-1)
        width -= 1
        if not (width.min() >= 1 and width.max() <= _MAX_DIGITS):
            return None
        values[done:done + end.size] = _token_values(block, end, width)
        done += end.size
        start = stop
    return pairs


def _token_values(block, end, width):
    """Values of the decimal tokens of `block` that end before the
    positions `end` and have `width` digits, summed a place at a time."""
    values = np.zeros(end.size, dtype=np.int64)
    at = end - 1
    for place in range(int(width.max())):
        # where a token is shorter, `at` has left it (or the block, which
        # "clip" allows) and the digit counts zero
        digit = block.take(at, mode="clip")
        digit -= ord("0")
        digit *= width > place
        # int64 by dtype: numpy 1.x would keep uint8 for a small power
        values += np.multiply(digit, _POW10[place], dtype=np.int64)
        at -= 1
    return values


def _load_edge_lines(fh, start, path):
    """(m, 2) int64 pairs of any body np.loadtxt reads, from the text file
    fh whose body starts at `start`; FileFormatError names the first line
    it cannot read."""
    fh.seek(start)
    # loadtxt warns when it finds no data; this stops at the first line
    # that has some
    if not any(not line.isspace() for line in fh):
        return np.empty((0, 2), dtype=np.int64)
    fh.seek(start)
    try:
        return np.loadtxt(fh, dtype=np.int64, usecols=(0, 1), ndmin=2,
                          comments=None)
    except ValueError as exc:
        lineno, line = _body_line(fh, start, _BAD_EDGE_LINE)
        if lineno is None:
            raise FileFormatError(f"{path}: bad edge list ({exc})")
        raise FileFormatError(f"{path}:{lineno}: bad edge line {line!r}")


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
