"""File formats. Every format with a reader round-trips byte-identically,
and the study outputs, which have none, rerun byte-identically: floats are
written with 17 significant digits (exact for IEEE doubles), rows are
ordered deterministically, and JSON is dumped with sorted keys.
"""

import csv
import json
import os
from contextlib import contextmanager

import numpy as np

from .embedding import Embedding
from .errors import ConfigError, FileFormatError
from .linalg import SIGN_CONVENTION, EigenPairs
from .model import MAX_ORDER, AdjacencyMatrix, EdgeVector, LatentDistribution

EDGE_HEADER = "oos-ase graph n="


def fmt(x):
    """Canonical decimal form of a float: 17 significant digits."""
    return format(float(x), ".17g")


def json_text(obj):
    """Text of every JSON document the program writes: keys sorted, indent 2."""
    return json.dumps(obj, sort_keys=True, indent=2)


def write_json(obj, path):
    """json_text(obj) as the file at path, ending in a newline."""
    with open(path, "w") as fh:
        fh.write(json_text(obj) + "\n")


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
# An int64 holds every number of 18 decimal digits.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
# The pre-pass's byte map, applied once "\r\n" is "\n": a "\r" left ends a
# line, and any other ASCII byte that str.isspace calls space becomes " ".
_SPACES = bytes(c for c in range(128)
                if chr(c).isspace() and c not in b"\r\n")
_PREPASS = bytes.maketrans(b"\r" + _SPACES, b"\n" + b" " * len(_SPACES))


def write_edge_list(adj, path):
    """Header line, then one line "i j" per edge, in the order of edges().

    Each vertex has two NUL-padded 8-byte codes, its name followed by " "
    and by "\n"; a block of lines is the codes of its edges, gathered,
    with the NUL bytes dropped by bytes.translate. A name has at most 7
    digits: an order of 10^7 would take 6 TB of packed bits.
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
            fh.write(out.tobytes().translate(None, b"\0"))


def read_edge_list(path):
    """Graph of an edge list: the header line, then one line per edge.

    The body's grammar: a line ends at "\n", "\r\n" or a lone "\r", and
    any other character that str.isspace calls space separates tokens. A
    blank line is skipped. On any other line the first two tokens are the
    edge, each [+-]?[0-9]+ with at most 18 significant digits, and the
    rest is ignored. The file's bytes are read once, and the header is
    checked before anything sized by it is allocated. A FileFormatError
    names the first line that is neither blank nor an edge line, or else
    the line of the first edge outside 0 <= i < j < n.
    """
    with _text_file(path, mode="rb") as fh:
        data = fh.read()
        if not data.isascii():
            data.decode()  # bytes that do not decode fail before any line
        stop = data.find(b"\n") % (len(data) + 1)  # -1, no "\n", is the end
        cr = data.find(b"\r", 0, stop)
        header = data[:stop if cr < 0 else cr].decode()
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
        # the body starts after the header's "\n", "\r\n" or lone "\r"
        start = stop + 1 if cr in (-1, stop - 1) else cr + 1
        values, lines = [np.empty(0, dtype=np.int64)], []
        lineno = 2  # the header is line 1
        while start < len(data):
            # whole lines, at most 8 * _EDGE_BLOCK bytes unless one is longer
            stop = (data.rfind(b"\n", start, start + 8 * _EDGE_BLOCK) + 1
                    or data.find(b"\n", start) + 1 or len(data))
            v, at, count = _edge_window(data, start, stop, lineno, path)
            values.append(v)
            lines.append(at)
            lineno += count
            start = stop
    del data
    pairs = np.concatenate(values).reshape(-1, 2)
    del values
    try:
        return AdjacencyMatrix.from_edges(n, pairs)
    except ConfigError:  # an edge out of range: name the first one's line
        i, j = pairs[:, 0], pairs[:, 1]
        k = int(np.argmin((0 <= i) & (i < j) & (j < n)))
        raise FileFormatError(
            f"{path}:{np.concatenate(lines)[k]}: edge ({i[k]},{j[k]}) "
            f"out of range for n={n}") from None


def _edge_window(data, start, stop, lineno, path):
    """The edge values of the window data[start:stop] of whole lines, the
    first of which is line `lineno`; their line numbers; and the window's
    count of lines.

    A window of digits, " " and "\n"s alone is parsed as it is, any other
    after _prepass. Its tokens are the runs between separators. In the
    layout of write_edge_list, "i j" on every line, they pair up in order;
    otherwise the cumulative count of "\n"s gives each token's line.
    """
    block = raw = np.frombuffer(data, dtype=np.uint8, count=stop - start,
                                offset=start)
    sep = np.flatnonzero(block < ord("0"))
    kind = block[sep]
    newline = kind == ord("\n")
    count = np.count_nonzero(newline)
    plain = (block[-1] == ord("\n") and block.max() <= ord("9")
             and np.count_nonzero(kind == ord(" ")) == kind.size - count)
    if not plain:
        block = np.frombuffer(_prepass(data[start:stop]), dtype=np.uint8)
        sep = np.flatnonzero((block == ord(" ")) | (block == ord("\n")))
        newline = block[sep] == ord("\n")
        count = np.count_nonzero(newline)
    width = np.diff(sep, prepend=-1)
    width -= 1
    if sep.size == 2 * count and newline[1::2].all() and width.min() > 0:
        at = range(lineno, lineno + count)
        alone = newline[0::2]  # a first token that ends its line
    else:
        line = np.cumsum(newline)
        line -= newline
        token = width > 0
        sep, width, line = sep[token], width[token], line[token]
        # first[t]: token t is the first of its line, and so is one past
        # the last
        first = np.ones(sep.size + 1, dtype=bool)
        first[1:-1] = line[1:] != line[:-1]
        firsts = np.flatnonzero(first[:-1])
        at = line[firsts] + lineno
        alone = first[firsts + 1]
        seconds = np.minimum(firsts + 1, sep.size - 1)
        pick = np.stack((firsts, seconds), axis=1).reshape(-1)
        sep, width = sep[pick], width[pick]
    values, ok = _token_values(block, sep, width, plain)
    ok = ok[0::2] & ok[1::2] & ~alone
    if not ok.all():
        k = int(at[int(np.argmin(ok))])
        text = bytes(raw).decode().replace("\r\n", "\n").replace("\r", "\n")
        line = text.split("\n")[k - lineno]
        cut = f"... ({len(line)} characters)" if len(line) > 80 else ""
        raise FileFormatError(f"{path}:{k}: bad edge line {line[:80]!r}{cut}")
    return values, at, count


def _prepass(window):
    """The bytes of a window with every separator made a " " and every
    line end a "\n" ("\r\n" becomes one), ending in "\n"."""
    if not window.isascii():
        text = window.decode()
        window = text.translate({ord(c): " " for c in set(text) - {"\r", "\n"}
                                 if c.isspace()}).encode()
    window = window.replace(b"\r\n", b"\n").translate(_PREPASS)
    return window if window.endswith(b"\n") else window + b"\n"


def _token_values(block, end, width, plain):
    """Values of the tokens of `block` that end before the positions `end`
    and take `width` bytes, and which of them are [+-]?[0-9]+ with at most
    _MAX_DIGITS significant digits. A plain block holds no byte but
    digits, " " and "\n". Digits are summed a place at a time, never more
    than _MAX_DIGITS places."""
    ok = np.ones(end.size, dtype=bool)
    if not plain:
        lead = block[end - width]
        negative = lead == ord("-")
        width = width - (negative | (lead == ord("+")))
        ok &= width > 0
    places = int(width.max(initial=0))
    if places > _MAX_DIGITS:  # zeros are all a token holds before its last 18
        long = np.flatnonzero(width > _MAX_DIGITS)
        cut = np.stack((end[long] - width[long], end[long] - _MAX_DIGITS),
                       axis=1).reshape(-1)
        ok[long] &= ~np.logical_or.reduceat(block != ord("0"), cut)[::2]
        width = np.minimum(width, _MAX_DIGITS)
        places = _MAX_DIGITS
    values = np.zeros(end.size, dtype=np.int64)
    top = np.zeros(end.size, dtype=np.uint8)
    at = end - 1
    for place in range(places):
        # where a token is shorter, `at` has left it (or the block, which
        # "clip" allows) and the digit counts zero
        digit = block.take(at, mode="clip")
        digit -= ord("0")
        digit *= width > place
        if not plain:  # any byte but a digit is above 9 once "0" is taken
            np.maximum(top, digit, out=top)
        # int64 by dtype, not by the promotion of uint8 digits
        values += np.multiply(digit, _POW10[place], dtype=np.int64)
        at -= 1
    if not plain:
        ok &= top <= 9
        np.negative(values, out=values, where=negative)
    return values, ok


# --------------------------------------------------------------- matrices

def write_matrix_csv(m, path):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    # one format call for the whole file; each field as fmt writes it
    row = ",".join(["{:.17g}"] * m.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write((row * m.shape[0]).format(*m.ravel().tolist()))


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
    write_json(sidecar, sidecar_path)


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
        return Embedding(eig=eig)
    except ConfigError as exc:
        raise FileFormatError(
            f"{csv_path}, {sidecar_path}: not an embedding ({exc})"
        ) from None


# ----------------------------------------------------- distribution specs

def _is_number(value):
    """Whether value is a JSON number as json.load returns one: an int
    (not a bool) or a float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_distribution(path):
    """The LatentDistribution of a JSON spec. Its "dimension" must be a
    JSON integer, and each atom's "point" a list of JSON numbers and its
    "weight" a JSON number: a string, boolean or null is refused, and so
    is a dimension such as 2.0 or 2.9."""
    try:
        with _text_file(path, ConfigError) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})")
    if not isinstance(raw, dict) or "dimension" not in raw or "atoms" not in raw:
        raise ConfigError(f"{path}: spec needs 'dimension' and 'atoms' fields")
    if not isinstance(raw["dimension"], int) or isinstance(raw["dimension"], bool):
        raise ConfigError(f"{path}: 'dimension' must be an integer")
    if not isinstance(raw["atoms"], list):
        raise ConfigError(f"{path}: 'atoms' must be a list")
    atoms = []
    for k, atom in enumerate(raw["atoms"]):
        if not isinstance(atom, dict) or "point" not in atom or "weight" not in atom:
            raise ConfigError(f"{path}: atom {k} needs 'point' and 'weight'")
        point, weight = atom["point"], atom["weight"]
        if not (isinstance(point, list) and all(map(_is_number, point))):
            raise ConfigError(f"{path}: atom {k} 'point' must be a list of numbers")
        if not _is_number(weight):
            raise ConfigError(f"{path}: atom {k} 'weight' must be a number")
        atoms.append((point, weight))
    try:
        return LatentDistribution(raw["dimension"], atoms)
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:  # ragged, or beyond a float
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
    return json_text(doc)


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
    write_json(result.summary, os.path.join(outdir, "summary.json"))
    plotdir = os.path.join(outdir, "plotdata")
    os.makedirs(plotdir, exist_ok=True)
    for name in sorted(result.plotdata):
        header, rows = result.plotdata[name]
        write_plotdata_csv(header, rows, os.path.join(plotdir, f"{name}.csv"))
