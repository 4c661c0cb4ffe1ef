"""Fuzz tests for the file readers.

Whatever bytes a reader is given, it returns a valid object or raises
FileFormatError (exit 5) or ConfigError (exit 2); any other exception would
reach the CLI user as a traceback. The edge-list reader is also checked
against the per-line parser it replaced, kept here as the reference.
"""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oos_ase import io
from oos_ase.embedding import Embedding
from oos_ase.errors import ConfigError, FileFormatError
from oos_ase.model import AdjacencyMatrix, EdgeVector, LatentDistribution

from dense import from_dense

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture
def workdir(tmp_path):
    """A valid embedding (n = 3, d = 2) to pair with fuzzed sidecars and
    matrices, and a scratch file path."""
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    values = np.array([4.0, 1.0])
    csv_path, side_path = tmp_path / "emb.csv", tmp_path / "emb.json"
    io.write_matrix_csv(vectors * np.sqrt(values), csv_path)
    side_path.write_text(json.dumps({"d": 2, "eigenvalues": values.tolist(),
                                     "sign_convention": "max-entry-positive"}))
    return tmp_path


def _read_embedding_csv(path):
    return io.read_embedding(path, os.path.join(os.path.dirname(path),
                                                "emb.json"))


def _read_embedding_sidecar(path):
    return io.read_embedding(os.path.join(os.path.dirname(path), "emb.csv"),
                             path)


READERS = {
    "read_edge_list": (io.read_edge_list, AdjacencyMatrix),
    "read_matrix_csv": (io.read_matrix_csv, np.ndarray),
    "read_edge_vector": (io.read_edge_vector, EdgeVector),
    "read_embedding_csv": (_read_embedding_csv, Embedding),
    "read_embedding_sidecar": (_read_embedding_sidecar, Embedding),
    "read_distribution": (io.read_distribution, LatentDistribution),
}


@pytest.mark.parametrize("name", sorted(READERS))
@FUZZ
@given(data=st.binary(max_size=300))
@example(data=b"\xff")
@example(data=b"")
def test_reader_arbitrary_bytes(workdir, name, data):
    reader, kind = READERS[name]
    path = workdir / "fuzzed"
    path.write_bytes(data)
    try:
        out = reader(str(path))
    except (FileFormatError, ConfigError):
        return
    assert isinstance(out, kind)


# JSON documents shaped like the two JSON inputs, with fields of any type
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["point", "weight", "x"]), inner,
                      max_size=3),
    max_leaves=8,
)


@FUZZ
@given(doc=st.fixed_dictionaries({}, optional={
    "dimension": _JSON, "atoms": _JSON | st.lists(
        st.fixed_dictionaries({"point": _JSON, "weight": _JSON}), max_size=3),
}))
@example(doc={"dimension": 1, "atoms": 5})
@example(doc={"dimension": "x", "atoms": [{"point": [0.5], "weight": 1.0}]})
def test_read_distribution_arbitrary_json(workdir, doc):
    path = workdir / "spec.json"
    path.write_text(json.dumps(doc))
    try:
        out = io.read_distribution(str(path))
    except ConfigError:
        return
    assert isinstance(out, LatentDistribution)


@FUZZ
@given(doc=st.fixed_dictionaries({}, optional={"d": _JSON,
                                               "eigenvalues": _JSON}))
@example(doc={"d": 2, "eigenvalues": 5})
@example(doc={"d": 2, "eigenvalues": "ab"})
@example(doc={"d": 1e300, "eigenvalues": [4.0, 1.0]})
def test_read_embedding_arbitrary_sidecar_json(workdir, doc):
    path = workdir / "side.json"
    path.write_text(json.dumps(doc))
    try:
        out = _read_embedding_sidecar(str(path))
    except (FileFormatError, ConfigError):
        return
    assert isinstance(out, Embedding)


def _reference_read_edge_list(text, n):
    """The per-line parser read_edge_list used before it parsed in bulk,
    on the body text: the graph, or None where it raised FileFormatError."""
    bits = np.zeros((n, n), dtype=np.uint8)
    for line in text.split("\n"):
        parts = line.split()
        if not parts:
            continue
        try:
            i, j = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            return None
        if not 0 <= i < j < n:
            return None
        bits[i, j] = 1
    return from_dense(bits + bits.T)


# bodies made mostly of what edge lines hold, with some of what they must not
_BODY = st.text(alphabet=st.sampled_from(
    list("0123456789") * 4 + list("  \t\n\n\n") + list("+-.#x\r\x0c\xa0\x00")
), max_size=200)


@FUZZ
@given(n=st.integers(1, 12), body=_BODY)
@example(n=5, body="0 1\n\n 3 4 x y\r\n0 1\n")
@example(n=5, body="0 12345678901234567890\n")
@example(n=5, body="0 1\n+1 +2\n-0 3\n0001 0002\n")
@example(n=5, body="0\u30001\n1\x852\n2\x1c3\n3\x0b4\n")
@example(n=5, body="0 1 \x00\n")
@example(n=5, body="0 1\x00\n")
@example(n=5, body="+ 1\n")
@example(n=5, body="-0 1\n" + "0" * 29 + "2 3\n1 4")
def test_read_edge_list_body_matches_reference(workdir, n, body):
    path = workdir / "g.txt"
    path.write_bytes(f"{io.EDGE_HEADER}{n}\n{body}".encode())
    # text mode reads "\r\n" and a lone "\r" as a line break
    want = _reference_read_edge_list(
        body.replace("\r\n", "\n").replace("\r", "\n"), n
    )
    try:
        got = io.read_edge_list(str(path))
    except FileFormatError as exc:
        assert want is None
        # every rejection names the line
        assert str(exc).startswith(f"{path}:")
        assert str(exc)[len(f"{path}:"):].split(":")[0].isdigit()
        return
    assert got == want


def _pad_first_token(line, digits):
    token = re.match(rb"[0-9]*", line)[0]
    return token.rjust(digits, b"0") + line[len(token):]


# Edits of one line of a body in the writer's layout; "lone cr" and "no
# final newline" edit the line ends.
_EDITS = {
    "cr": lambda line: line + b"\r",  # the line ends "\r\n"
    "tab": lambda line: line.replace(b" ", b"\t"),
    "plus": lambda line: b"+" + line,
    "minus": lambda line: b"-" + line,
    "leading space": lambda line: b" " + line,
    "third token": lambda line: line + b" 7",
    "blank line": lambda line: b"\n" + line,
    "nbsp": lambda line: line.replace(b" ", "\xa0".encode()),
    "ideographic space": lambda line: line.replace(b" ", "\u3000".encode()),
    "nel": lambda line: line.replace(b" ", "\x85".encode()),
    "vt": lambda line: line.replace(b" ", b"\x0b"),
    "nul after": lambda line: line + b" \x00",
    "nul in pair": lambda line: line + b"\x00",
    "letter": lambda line: line + b"x",
    "18 digits": lambda line: _pad_first_token(line, 18),
    "19 digits padded": lambda line: _pad_first_token(line, 19),
    "30 digits padded": lambda line: _pad_first_token(line, 30),
    "19 digits": lambda line: line.split(b" ")[0] + b" " + b"9" * 19,
    "out of range": lambda line: b" ".join(line.split(b" ")[::-1]),
}
_SAME_GRAPH = {"cr", "lone cr", "tab", "plus", "leading space",
               "third token", "blank line", "nbsp", "ideographic space",
               "nel", "vt", "nul after", "18 digits", "19 digits padded",
               "30 digits padded", "no final newline"}


def _reference_error(text, n):
    """(line, phrase) of the error the reader must raise on the body text,
    the header being line 1, or None. The first line that is neither blank
    nor two integers of at most 18 significant digits wins over the first
    edge out of range."""
    out_of_range = None
    for lineno, line in enumerate(text.split("\n"), start=2):
        parts = line.split()[:2]
        if not parts:
            continue
        if len(parts) < 2 or max(len(p.lstrip("+-").lstrip("0"))
                                 for p in parts) > 18:
            return lineno, "bad edge line"
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            return lineno, "bad edge line"
        if out_of_range is None and not 0 <= i < j < n:
            out_of_range = lineno, "edge"
    return out_of_range


@FUZZ
@given(n=st.sampled_from([1, 2, 10, 11, 100, 101]),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       seed=st.integers(0, 2**16),
       edits=st.lists(st.tuples(
           st.sampled_from(["lone cr", "no final newline", *_EDITS]),
           st.integers(0, 10**6)), max_size=2))
def test_edge_list_reader_matches_reference_on_edited_writer_files(
        workdir, n, density, seed, edits):
    """A writer's file with no, one or two edits reads as the reference
    parser reads it: the same graph, or an error that names the line the
    reference finds first."""
    rng = np.random.default_rng(seed)
    adj = AdjacencyMatrix(n, rng.random(n * (n - 1) // 2) < density)
    path = workdir / "g.txt"
    io.write_edge_list(adj, path)
    header, body = path.read_bytes().split(b"\n", 1)
    same_graph = all(edit in _SAME_GRAPH for edit, _ in edits)
    if edits:
        lines = body.split(b"\n")[:-1]
        if not lines:  # an edge to edit, which n = 1 cannot hold
            lines, same_graph = [b"0 1"], False
        ends = [b"\n"] * len(lines)
        for edit, at in edits:
            k = at % len(lines)
            if edit in _EDITS:
                lines[k] = _EDITS[edit](lines[k])
            elif edit == "lone cr":
                ends[k] = b"\r"
            else:
                ends[-1] = b""
        if len({at % len(lines) for _, at in edits}) < len(edits):
            same_graph = False  # two edits of a line can make a bad one
        body = b"".join(line + end for line, end in zip(lines, ends))
        path.write_bytes(header + b"\n" + body)
    text = body.decode().replace("\r\n", "\n").replace("\r", "\n")
    got = _read_or_message(path)
    error = _reference_error(text, n)
    if error is None:
        assert got == _reference_read_edge_list(text, n)
    else:
        lineno, phrase = error
        assert isinstance(got, str)
        assert got.startswith(f"{path}:{lineno}: {phrase}")
    if same_graph:
        assert got == adj


def _read_or_message(path):
    try:
        return io.read_edge_list(str(path))
    except FileFormatError as exc:
        return str(exc)
