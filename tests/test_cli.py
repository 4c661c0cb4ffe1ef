"""File-format and command-line tests.

Every writer is checked for byte-identical write -> read -> write
round-trips, every reader for its failure modes, and the CLI for its
exit-code contract: 0 success, 2 config, 3 degeneracy, 4 solver, 5 I/O.
"""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import oos_ase.cli as cli
import oos_ase.experiments as experiments
import oos_ase.oos as oos
from oos_ase import io
from oos_ase.cli import build_parser, main
from oos_ase.embedding import ase
from oos_ase.errors import ConfigError, FileFormatError
from oos_ase.experiments import STUDIES, ExperimentConfig, TrialRecord
from oos_ase.model import (
    MAX_ORDER,
    AdjacencyMatrix,
    LatentDistribution,
    as_generator,
    sample_adjacency,
    sample_latents,
    sample_oos_edges,
)
from oos_ase.oos import lls_oos, ml_oos
from oos_ase.theory import ClassifySpec, error_ratio_curve

from dense import from_dense

MIX = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])
MIX_SPEC = {"dimension": 2, "atoms": [{"point": [0.2, 0.7], "weight": 0.4},
                                      {"point": [0.65, 0.3], "weight": 0.6}]}

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PRESET_DIR = os.path.join(REPO_ROOT, "presets")


def _sample_fixture(n, seed):
    """Graph + latents + one OOS vertex, same draw order as `cli sample`."""
    rng = as_generator(seed)
    lat = sample_latents(MIX, n + 1, rng)
    rows, wbar = lat.rows[:n], lat.rows[n]
    adj = sample_adjacency(rows, rng)
    edges = sample_oos_edges(rows, wbar, rng)
    return adj, rows, wbar, edges


# ------------------------------------------------------------ round trips


def test_edge_list_round_trip_bytes(tmp_path):
    adj, _, _, _ = _sample_fixture(60, 11)
    p1, p2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
    io.write_edge_list(adj, p1)
    back = io.read_edge_list(p1)
    assert back.n == adj.n
    assert back == adj
    io.write_edge_list(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_edge_list_read_errors(tmp_path):
    path = tmp_path / "g.txt"

    path.write_text("not a graph\n0 1\n")
    with pytest.raises(FileFormatError, match="missing graph header"):
        io.read_edge_list(path)

    path.write_text("oos-ase graph n=abc\n")
    with pytest.raises(FileFormatError, match="bad order in header"):
        io.read_edge_list(path)

    path.write_text("oos-ase graph n=4\n0 x\n")
    with pytest.raises(FileFormatError, match="bad edge line"):
        io.read_edge_list(path)

    path.write_text("oos-ase graph n=4\n3 1\n")
    with pytest.raises(FileFormatError, match="out of range"):
        io.read_edge_list(path)

    path.write_text("oos-ase graph n=4\n0 7\n")
    with pytest.raises(FileFormatError, match="out of range"):
        io.read_edge_list(path)

    # each rejection names the file and the line, counting the header as
    # line 1 and blank lines too
    body = "0 1\n\n  \n1 2\n"  # lines 2-5 are fine
    for line, phrase in (
        ("# a comment", "bad edge line"),
        ("3", "bad edge line"),
        ("1.0 2", "bad edge line"),
        ("0 12345678901234567890", "bad edge line"),
        ("1 1000000000000000000", "bad edge line"),  # 19 digits
        ("0 1\x00", "bad edge line"),
        ("+ 1", "bad edge line"),
        ("0 1_0", "bad edge line"),
        ("0 \u0663", "bad edge line"),  # an Arabic-Indic digit
        ("0 1 2 3 4 5 6 7 8 9 x", None),
        ("0 1 \x00", None),
        ("-0 1", None),
        ("0" * 29 + "1 2", None),
        ("0\u30001", None),  # ideographic space
        ("0\x851", None),  # next line
        ("0\x1c1", None),  # file separator
        ("0\x0b1", None),  # vertical tab
        ("-1 2", r"edge \(-1,2\) out of range"),
        ("2 2", r"edge \(2,2\) out of range"),
        ("3 1", r"edge \(3,1\) out of range"),
        ("1 4", r"edge \(1,4\) out of range"),
    ):
        path.write_text(f"oos-ase graph n=4\n{body}{line}\n2 3\n")
        if phrase is None:
            assert io.read_edge_list(path).edges().tolist() == [
                [0, 1], [1, 2], [2, 3]]
            continue
        with pytest.raises(FileFormatError,
                           match=f"^{re.escape(str(path))}:6: {phrase}"):
            io.read_edge_list(path)


def _per_edge_edge_list(adj):
    """The edge-list writer's former per-edge loop, kept as its oracle."""
    out = f"{io.EDGE_HEADER}{adj.n}\n"
    for i, j in adj.edges():
        out += f"{i} {j}\n"
    return out.encode()


# Edges whose vertex names cross every digit width of a graph of order
# 10 001, where the writer's name codes change length.
NAME_WIDTH_EDGES = [(0, 9), (9, 10), (10, 99), (99, 100), (100, 9999),
                    (9999, 10000), (0, 10000)]


@pytest.mark.parametrize("n", [1, 2, 7, 10, 11, 100, 101, 1000, 10_001])
def test_edge_list_writer_matches_per_edge_loop(tmp_path, n):
    size = n * (n - 1) // 2
    rng = np.random.default_rng(n)
    if n > 1000:  # a sparse graph only: the others have 10^7 edges or more
        graphs = {"name widths": AdjacencyMatrix.from_edges(
            n, NAME_WIDTH_EDGES)}
    else:
        graphs = {name: AdjacencyMatrix(n, bits) for name, bits in {
            "empty": np.zeros(size, dtype=bool),
            "complete": np.ones(size, dtype=bool),
            "half": rng.random(size) < 0.5,
            "sparse": rng.random(size) < 0.01,
        }.items()}
    for name, adj in graphs.items():
        path = tmp_path / f"{name}.txt"
        io.write_edge_list(adj, path)
        assert path.read_bytes() == _per_edge_edge_list(adj), name
        assert io.read_edge_list(path) == adj, name


def test_edge_list_reader_parses_the_writers_layout_without_loadtxt(
        tmp_path):
    adj, _, _, _ = _sample_fixture(1000, 4)
    path = tmp_path / "g.txt"
    io.write_edge_list(adj, path)
    assert io.read_edge_list(path) == adj


def test_edge_list_block_route_sums_every_digit_place_in_int64(tmp_path):
    # names past 255 and up to 18 digits: a digit times a power of ten
    # must not be summed in the uint8 of the file's bytes
    path = tmp_path / "g.txt"
    path.write_bytes(b"oos-ase graph n=600\n256 599\n300 500\n")
    assert io.read_edge_list(path).edges().tolist() == [[256, 599],
                                                       [300, 500]]
    path.write_bytes(b"oos-ase graph n=3\n0 1\n1 987654321098765432\n")
    with pytest.raises(FileFormatError, match=(
            r":3: edge \(1,987654321098765432\) out of range for n=3$")):
        io.read_edge_list(path)


@pytest.mark.parametrize("head_end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_edge_list_line_ends(tmp_path, head_end, end):
    # "\r\n" and a lone "\r" end a line like "\n", the header's too
    path = tmp_path / "g.txt"
    path.write_bytes(f"oos-ase graph n=3{head_end}0 1{end}{end}1 2".encode())
    assert io.read_edge_list(path).edges().tolist() == [[0, 1], [1, 2]]
    path.write_bytes(f"oos-ase graph n=3{head_end}0 1{end}{end}1 x{end}"
                     .encode())
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}:4: "
                       "bad edge line '1 x'$"):
        io.read_edge_list(path)


@pytest.mark.parametrize("line", [b"1" * 2**20, b"0 " + b"7" * 2**20],
                         ids=["one token", "long second token"])
def test_edge_list_megabyte_token_fails_fast(tmp_path, line):
    # a token's digits are summed over at most 18 places, however long,
    # and the error quotes the line's first 80 characters only
    path = tmp_path / "g.txt"
    path.write_bytes(b"oos-ase graph n=3\n0 1\n" + line + b"\n")
    t0 = time.perf_counter()
    with pytest.raises(FileFormatError, match=r":3: bad edge line '[01]") as exc:
        io.read_edge_list(path)
    assert time.perf_counter() - t0 < 2.0
    message = str(exc.value).removeprefix(str(path))
    assert len(message) < 200
    assert message.endswith(f"... ({len(line)} characters)")


def test_edge_list_reader_accepts_loose_layout(tmp_path):
    # blank and space-only lines, CRLF and lone CR line ends, tabs,
    # tokens after the pair, a repeated edge, no final line break
    path = tmp_path / "g.txt"
    path.write_bytes(b"oos-ase graph n=5\r\n\r\n0 1\r\n \t\n"
                     b"1\t3 extra tokens 7\n2 4\r1 3\n\n0 1")
    got = io.read_edge_list(path)
    assert got.n == 5
    assert got.edges().tolist() == [[0, 1], [1, 3], [2, 4]]


@pytest.mark.parametrize("body", ["", "\n", "\n  \n\t\n"])
def test_edge_list_empty_body_reads_without_warning(tmp_path, body):
    path = tmp_path / "g.txt"
    path.write_text(f"oos-ase graph n=3\n{body}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = io.read_edge_list(path)
    assert got == AdjacencyMatrix(3, np.zeros(3, dtype=bool))


def test_matrix_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 3)) * np.array([1e-12, 1.0, 1e9])
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    io.write_matrix_csv(m, p1)
    back = io.read_matrix_csv(p1)
    # 17 significant decimal digits are exact for IEEE doubles
    assert np.array_equal(back, m)
    io.write_matrix_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_matrix_csv_read_errors(tmp_path):
    path = tmp_path / "m.csv"

    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(FileFormatError, match="bad numeric row"):
        io.read_matrix_csv(path)

    path.write_text("")
    with pytest.raises(FileFormatError, match="empty or ragged"):
        io.read_matrix_csv(path)

    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FileFormatError, match="empty or ragged"):
        io.read_matrix_csv(path)

    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"1.0,2.0\n3.0,{bad}\n")
        with pytest.raises(FileFormatError, match="non-finite value"):
            io.read_matrix_csv(path)


def test_edge_vector_round_trip(tmp_path):
    _, _, _, edges = _sample_fixture(40, 3)
    p1, p2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    io.write_edge_vector(edges, p1)
    back = io.read_edge_vector(p1)
    assert np.array_equal(back.a, edges.a)
    io.write_edge_vector(back, p2)
    assert p1.read_bytes() == p2.read_bytes()

    p1.write_text("0\n2\n")
    with pytest.raises(FileFormatError, match="edge bits must be 0 or 1"):
        io.read_edge_vector(p1)


def test_embedding_round_trip(tmp_path):
    adj, _, _, _ = _sample_fixture(80, 21)
    emb = ase(adj, 2)
    c1, s1 = tmp_path / "e1.csv", tmp_path / "e1.json"
    c2, s2 = tmp_path / "e2.csv", tmp_path / "e2.json"
    io.write_embedding(emb, c1, s1)
    back = io.read_embedding(c1, s1)
    assert np.array_equal(back.positions, emb.positions)
    assert np.array_equal(back.eig.values, emb.eig.values)
    # vectors are reconstructed as positions / sqrt(values); the division
    # can differ from the stored factors in the last ulp
    assert np.allclose(back.eig.vectors, emb.eig.vectors, atol=1e-15)
    io.write_embedding(back, c2, s2)
    assert c1.read_bytes() == c2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()


def test_embedding_sidecar_errors(tmp_path):
    adj, _, _, _ = _sample_fixture(30, 2)
    emb = ase(adj, 2)
    cpath, spath = tmp_path / "e.csv", tmp_path / "e.json"
    io.write_embedding(emb, cpath, spath)

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(FileFormatError, match="bad embedding sidecar"):
        io.read_embedding(cpath, bad)

    bad.write_text(json.dumps({"d": 2}))
    with pytest.raises(FileFormatError, match="bad embedding sidecar"):
        io.read_embedding(cpath, bad)

    bad.write_text(json.dumps({"d": 3, "eigenvalues": [4.0, 2.0, 1.0]}))
    with pytest.raises(FileFormatError, match="dimension mismatch"):
        io.read_embedding(cpath, bad)

    for values in ([4.0, -1.0], [4.0, float("nan")], [float("inf"), 1.0]):
        bad.write_text(json.dumps({"d": 2, "eigenvalues": values}))
        with pytest.raises(FileFormatError,
                           match="eigenvalues must be positive and finite"):
            io.read_embedding(cpath, bad)


def test_distribution_round_trip(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(MIX_SPEC))
    back = io.read_distribution(path)
    assert back.dimension == 2
    assert np.array_equal(back.points, MIX.points)
    assert np.array_equal(back.weights, MIX.weights)


def test_distribution_read_errors(tmp_path):
    path = tmp_path / "d.json"

    path.write_text("{ nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        io.read_distribution(path)

    path.write_text(json.dumps({"atoms": []}))
    with pytest.raises(ConfigError, match="'dimension' and 'atoms'"):
        io.read_distribution(path)

    path.write_text(json.dumps({"dimension": 1, "atoms": [{"point": [0.5]}]}))
    with pytest.raises(ConfigError, match="atom 0 needs"):
        io.read_distribution(path)

    # a field of the wrong JSON type is refused, never converted: before,
    # a dimension of 2.9 ran as 2, and "2" or a weight "0.4" as numbers
    for field, value, message in _WRONG_TYPES:
        path.write_text(json.dumps(_spec_with(field, value)))
        with pytest.raises(ConfigError, match=message):
            io.read_distribution(path)


# (field, value, message) of a mixture_2d spec with one field of the wrong
# JSON type; the field is "dimension", or "weight" or "point" of atom 0, or
# "coordinate", the first entry of atom 0's point.
_WRONG_TYPES = [
    ("dimension", value, "'dimension' must be an integer")
    for value in (2.9, 2.0, "2", True, None)
] + [
    ("weight", value, "atom 0 'weight' must be a number")
    for value in ("0.4", True, None, [0.4])
] + [
    ("coordinate", value, "atom 0 'point' must be a list of numbers")
    for value in ("0.2", True, None, [0.2])
] + [
    ("point", value, "atom 0 'point' must be a list of numbers")
    for value in (0.2, "0.2, 0.7", None)
]


def _spec_with(field, value):
    """MIX_SPEC with one field set to value (see _WRONG_TYPES)."""
    spec = json.loads(json.dumps(MIX_SPEC))
    atom = spec["atoms"][0]
    if field == "dimension":
        spec["dimension"] = value
    elif field == "coordinate":
        atom["point"][0] = value
    else:
        atom[field] = value
    return spec


def test_trials_csv_round_trip(tmp_path):
    """Records to the exact bytes of trials.csv: the header, 17 significant
    digits per float, empty fields for what a failed record lacks, and its
    message quoted where it holds a comma."""
    records = [
        TrialRecord(
            trial=0, n=50, method="LS", status="ok",
            wbar=np.array([0.2, 0.7]), w=np.array([0.25, 0.68]),
            rotation=np.eye(2), aligned_error=0.4375, message="",
        ),
        TrialRecord(
            trial=1, n=50, method="ML", status="failed",
            wbar=None, w=None, rotation=None, aligned_error=None,
            message="did not converge, iteration limit",
        ),
    ]
    path = tmp_path / "trials.csv"
    io.write_trials_csv(records, 2, path)
    assert path.read_bytes() == (
        b"trial,n,method,status,aligned_error,wbar_0,wbar_1,w_0,w_1,"
        b"rot_00,rot_01,rot_10,rot_11,message\n"
        b"0,50,LS,ok,0.4375,0.20000000000000001,0.69999999999999996,"
        b"0.25,0.68000000000000005,1,0,0,1,\n"
        b'1,50,ML,failed,,,,,,,,,,"did not converge, iteration limit"\n'
    )


def _bytes_with_ff(text, at):
    """text encoded, with a byte that is not UTF-8 inserted at offset at."""
    raw = text.encode()
    return raw[:at] + b"\xff" + raw[at:]


@pytest.mark.parametrize("reader, text, at, error", [
    (io.read_edge_list, "oos-ase graph n=3\n0 1\n", 4, FileFormatError),
    (io.read_edge_list, "oos-ase graph n=3\n0 1\n1 2\n", 23, FileFormatError),
    (io.read_edge_list, "oos-ase graph n=3\nx\n1 2", 22, FileFormatError),
    (io.read_matrix_csv, "1.0,2.0\n3.0,4.0\n", 9, FileFormatError),
    (io.read_edge_vector, "0\n1\n", 2, FileFormatError),
    (io.read_distribution, '{"dimension": 1}', 3, ConfigError),
], ids=["edge_list_header", "edge_list_body", "edge_list_after_bad_line",
        "matrix_csv", "edge_vector", "distribution"])
def test_readers_reject_undecodable_bytes(tmp_path, reader, text, at, error):
    path = tmp_path / "f"
    path.write_bytes(_bytes_with_ff(text, at))
    with pytest.raises(error, match="undecodable bytes") as exc:
        reader(path)
    assert type(exc.value) is error


def test_read_embedding_rejects_undecodable_sidecar(tmp_path):
    adj, _, _, _ = _sample_fixture(30, 2)
    cpath, spath = tmp_path / "e.csv", tmp_path / "e.json"
    io.write_embedding(ase(adj, 2), cpath, spath)
    spath.write_bytes(_bytes_with_ff(spath.read_text(), 5))
    with pytest.raises(FileFormatError, match="undecodable bytes"):
        io.read_embedding(cpath, spath)


def test_estimate_json_shape(tmp_path):
    adj, _, _, edges = _sample_fixture(120, 8)
    emb = ase(adj, 2)
    ls_doc = json.loads(io.estimate_json(lls_oos(emb, edges)))
    assert ls_doc["method"] == "LS"
    assert len(ls_doc["w"]) == 2
    assert "objective" not in ls_doc["diagnostics"]
    ml_doc = json.loads(io.estimate_json(ml_oos(emb, edges)))
    assert ml_doc["method"] == "ML"
    assert "objective" in ml_doc["diagnostics"]
    assert ml_doc["diagnostics"]["iterations"] >= 1


# ------------------------------------------------------------------- CLI


def _write_mix_spec(tmp_path):
    spec = tmp_path / "mix.json"
    spec.write_text(json.dumps(MIX_SPEC))
    return str(spec)


def test_cli_pipeline_matches_library(tmp_path, capsys):
    """sample -> embed -> oos must add nothing beyond the library calls:
    the printed estimate equals estimate_json of the library run on the
    same files, byte for byte."""
    spec = _write_mix_spec(tmp_path)
    out = tmp_path / "run"
    rc = main(["sample", "--spec", spec, "--n", "300", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    for name in ("graph.txt", "latents.csv", "oos_edges.csv", "oos_truth.csv"):
        assert (out / name).exists()

    prefix = str(out / "embedding")
    rc = main(["embed", "--graph", str(out / "graph.txt"), "--dim", "2",
               "--out", prefix])
    assert rc == 0
    capsys.readouterr()

    rc = main(["oos", "--embedding", prefix, "--edges",
               str(out / "oos_edges.csv"), "--method", "ls"])
    assert rc == 0
    printed = capsys.readouterr().out

    emb = io.read_embedding(prefix + ".csv", prefix + ".json")
    edges = io.read_edge_vector(out / "oos_edges.csv")
    assert printed == io.estimate_json(lls_oos(emb, edges)) + "\n"

    rc = main(["oos", "--embedding", prefix, "--edges",
               str(out / "oos_edges.csv"), "--method", "ml", "--eps", "0.05"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed == io.estimate_json(ml_oos(emb, edges, eps=0.05)) + "\n"

    # sanity: the LS estimate is near the held-out truth
    truth = io.read_matrix_csv(out / "oos_truth.csv")[0]
    w = np.asarray(json.loads(printed)["w"])
    assert np.linalg.norm(np.abs(w) - np.abs(truth)) < 0.5


def test_cli_sample_deterministic(tmp_path):
    spec = _write_mix_spec(tmp_path)
    names = ("graph.txt", "latents.csv", "oos_edges.csv", "oos_truth.csv")
    for rep in ("a", "b"):
        assert main(["sample", "--spec", spec, "--n", "500", "--seed", "7",
                     "--out", str(tmp_path / rep)]) == 0
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    # a different seed must actually change the draw
    assert main(["sample", "--spec", spec, "--n", "500", "--seed", "8",
                 "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "graph.txt").read_bytes() != \
        (tmp_path / "c" / "graph.txt").read_bytes()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dimension": 2,
        "atoms": [
            {"point": [0.2, 0.7], "weight": 0.5},
            {"point": [0.65, 0.3], "weight": 0.6},
        ],
    }))
    rc = main(["sample", "--spec", str(bad), "--n", "10",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "weights must sum to 1" in capsys.readouterr().err

    spec = _write_mix_spec(tmp_path)
    rc = main(["sample", "--spec", spec, "--n", "0",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "--n must be >= 1" in capsys.readouterr().err

    # a spec field of the wrong JSON type exits with 2 before any output
    typed = tmp_path / "typed.json"
    for field, value, message in _WRONG_TYPES:
        typed.write_text(json.dumps(_spec_with(field, value)))
        rc = main(["sample", "--spec", str(typed), "--n", "10",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    # a NaN weight is no weight, in sampling and in studies alike
    nan_spec = tmp_path / "nan.json"
    nan_spec.write_text(json.dumps({
        "dimension": 2,
        "atoms": [
            {"point": [0.2, 0.7], "weight": float("nan")},
            {"point": [0.65, 0.3], "weight": 0.6},
        ],
    }))
    for cmd in (["sample", "--n", "10"],
                ["experiment", "--study", "clt-ls", "--n", "50",
                 "--trials", "2"]):
        rc = main(cmd + ["--spec", str(nan_spec), "--out", str(tmp_path / "y")])
        assert rc == 2
        assert "weights must be positive" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()

    # every study takes --eps, so every study refuses a bad one before
    # any trial runs
    ratio_spec = os.path.join(PRESET_DIR, "classify_1d.json")
    for study, n, path in (("clt-ml", "50", spec), ("clt-ls", "50", spec),
                           ("rate", "20,30,40,50", spec),
                           ("ratio", "100", ratio_spec)):
        for eps in ("0.7", "nan"):
            rc = main(["experiment", "--study", study, "--spec", path,
                       "--n", n, "--trials", "2", "--eps", eps,
                       "--out", str(tmp_path / "z")])
            assert rc == 2
            assert "eps must lie in (0, 1/2)" in capsys.readouterr().err
            assert not (tmp_path / "z").exists()

    # m counts held-out vertices, and no trial embeds fewer vertices than
    # the spec's dimension
    mix_2d = os.path.join(PRESET_DIR, "mixture_2d.json")
    for args, message in (
        (["ratio", "--spec", ratio_spec, "--n", "100", "--m-grid", "0"],
         "m_grid entries must be >= 1"),
        (["ratio", "--spec", ratio_spec, "--n", "100", "--m-grid", "-5"],
         "m_grid entries must be >= 1"),
        (["ratio", "--spec", ratio_spec, "--n", "100", "--m-grid", "3,1,3"],
         "m_grid must be strictly increasing"),
        (["clt-ls", "--spec", mix_2d, "--n", "1", "--trials", "3"],
         "n_grid entries must be >= the dimension 2"),
    ):
        rc = main(["experiment", "--study"] + args + ["--out",
                                                      str(tmp_path / "z")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "z").exists()


def test_cli_missing_input_exit_5(tmp_path, capsys):
    """A missing input is the OS error, naming the path, with exit 5; no
    command has made its output by then."""
    spec = _write_mix_spec(tmp_path)
    run = tmp_path / "run"
    assert main(["sample", "--spec", spec, "--n", "40", "--out",
                 str(run)]) == 0
    assert main(["embed", "--graph", str(run / "graph.txt"), "--dim", "2",
                 "--out", str(run / "embedding")]) == 0
    capsys.readouterr()
    absent = str(tmp_path / "absent")
    out = tmp_path / "out"
    oos = ["oos", "--method", "ls", "--embedding"]
    for argv, missing in (
        (["sample", "--spec", absent, "--n", "10", "--out", str(out)], absent),
        (["embed", "--graph", absent, "--dim", "2", "--out", str(out)],
         absent),
        (oos + [absent, "--edges", str(run / "oos_edges.csv")],
         absent + ".csv"),
        (oos + [str(run / "embedding"), "--edges", absent], absent),
        (["experiment", "--study", "clt-ls", "--spec", absent, "--n", "50",
          "--trials", "2", "--out", str(out)], absent),
    ):
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert "No such file or directory" in err and missing in err
        assert sorted(os.listdir(tmp_path)) == ["mix.json", "run"]
    os.remove(run / "embedding.json")
    assert main(oos + [str(run / "embedding"), "--edges",
                       str(run / "oos_edges.csv")]) == 5
    assert str(run / "embedding.json") in capsys.readouterr().err


@pytest.mark.parametrize("order", ["1000000000000", "-3", "0"])
def test_cli_embed_header_order_out_of_range_exit_5(tmp_path, capsys, order):
    # refused from the header alone, before a bit buffer of n(n-1)/2 bytes
    # is allocated
    gpath = tmp_path / "g.txt"
    gpath.write_text(f"oos-ase graph n={order}\n0 1\n")
    rc = main(["embed", "--graph", str(gpath), "--dim", "1",
               "--out", str(tmp_path / "e")])
    assert rc == 5
    assert f"order {order} in header outside [1, {io.MAX_ORDER}]" in (
        capsys.readouterr().err
    )


def _no_sampling(*args, **kwargs):
    raise AssertionError("latent positions drawn")


@pytest.mark.parametrize("order", ["20001", "1000000000000"])
def test_cli_sample_order_above_max_exit_2(tmp_path, capsys, monkeypatch,
                                           order):
    """An order above MAX_ORDER, which read_edge_list would refuse, is
    refused before the output directory is made or anything is drawn.
    Before, 10^12 made the directory and then failed on a 4 TiB array."""
    monkeypatch.setattr(cli, "sample_latents", _no_sampling)
    spec = _write_mix_spec(tmp_path)
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        rc = main(["sample", "--spec", spec, "--n", order, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert f"--n must be >= 1 and <= {MAX_ORDER}" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 2**20


def test_cli_study_order_above_max_exit_2(tmp_path, capsys, monkeypatch):
    """Each n of a study that samples graphs is at most MAX_ORDER, checked
    before any trial; the ratio study samples none and takes any n."""
    monkeypatch.setattr(experiments, "sample_latents", _no_sampling)
    mix_2d = os.path.join(PRESET_DIR, "mixture_2d.json")
    out = tmp_path / "z"
    for study, n in (("rate", "100,200,400,20001"), ("clt-ls", "20001"),
                     ("clt-ml", "3000000")):
        rc = main(["experiment", "--study", study, "--spec", mix_2d,
                   "--n", n, "--trials", "1", "--out", str(out)])
        assert rc == 2
        assert (f"n_grid entries must be <= {MAX_ORDER}"
                in capsys.readouterr().err)
        assert not out.exists()
    # the bound itself is accepted
    ExperimentConfig(study="clt_ls", dist=MIX, n_grid=(MAX_ORDER,))
    ratio_spec = os.path.join(PRESET_DIR, "classify_1d.json")
    assert main(["experiment", "--study", "ratio", "--spec", ratio_spec,
                 "--n", "100000", "--m-grid", "1,10", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["n_grid"] == [100000]


def test_default_eps_is_one_constant():
    """ml_oos, ExperimentConfig and both commands that take --eps read
    their default from oos.DEFAULT_EPS."""
    assert inspect.signature(ml_oos).parameters["eps"].default is oos.DEFAULT_EPS
    assert ExperimentConfig.__dataclass_fields__["epsilon"].default \
        is oos.DEFAULT_EPS
    parser = build_parser()
    args = parser.parse_args(["oos", "--embedding", "e", "--edges", "a",
                              "--method", "ml"])
    assert args.eps is oos.DEFAULT_EPS
    args = parser.parse_args(["experiment", "--study", "ratio", "--spec", "s",
                              "--n", "100", "--out", "o"])
    assert args.eps is oos.DEFAULT_EPS


def test_cli_studies_are_the_study_table():
    """Every study the CLI names has a runner in experiments.STUDIES, and
    every runner a CLI name."""
    assert sorted(cli._STUDY_NAMES.values()) == sorted(STUDIES)


def test_cli_undecodable_input_exit_codes(tmp_path, capsys):
    """A byte that does not decode is a bad file (exit 5), or a bad spec
    (exit 2, as for invalid JSON), never a traceback."""
    spec = _write_mix_spec(tmp_path)
    out = tmp_path / "run"
    assert main(["sample", "--spec", spec, "--n", "40", "--seed", "1",
                 "--out", str(out)]) == 0
    graph, emb = out / "graph.txt", str(out / "embedding")
    assert main(["embed", "--graph", str(graph), "--dim", "2",
                 "--out", emb]) == 0
    oos = ["oos", "--embedding", emb, "--edges", str(out / "oos_edges.csv"),
           "--method", "ls"]
    assert main(oos) == 0
    capsys.readouterr()

    text = graph.read_text()
    for at in (3, len(text) - 2):  # in the header, in the last edge line
        bad = tmp_path / f"graph{at}.txt"
        bad.write_bytes(_bytes_with_ff(text, at))
        assert main(["embed", "--graph", str(bad), "--dim", "2",
                     "--out", str(tmp_path / "e")]) == 5
        assert "undecodable bytes" in capsys.readouterr().err

    for name in ("embedding.csv", "embedding.json", "oos_edges.csv"):
        path = out / name
        good = path.read_bytes()
        path.write_bytes(_bytes_with_ff(good.decode(), 2))
        assert main(oos) == 5, name
        assert "undecodable bytes" in capsys.readouterr().err
        path.write_bytes(good)

    bad_spec = tmp_path / "bad_spec.json"
    bad_spec.write_bytes(_bytes_with_ff(open(spec).read(), 5))
    assert main(["experiment", "--study", "clt-ls", "--spec", str(bad_spec),
                 "--n", "50", "--trials", "1",
                 "--out", str(tmp_path / "study")]) == 2
    assert "undecodable bytes" in capsys.readouterr().err


def test_cli_oos_nonfinite_embedding_exit_5(tmp_path, capsys):
    adj, _, _, edges = _sample_fixture(40, 3)
    base = str(tmp_path / "e")
    io.write_embedding(ase(adj, 2), base + ".csv", base + ".json")
    io.write_edge_vector(edges, tmp_path / "a.csv")
    lines = (tmp_path / "e.csv").read_text().splitlines()
    lines[7] = "nan,nan"
    (tmp_path / "e.csv").write_text("\n".join(lines) + "\n")
    rc = main(["oos", "--embedding", base, "--edges", str(tmp_path / "a.csv"),
               "--method", "ls"])
    assert rc == 5
    assert "non-finite value" in capsys.readouterr().err


def test_cli_oos_corrupt_embedding_exit_5(tmp_path, capsys):
    # files that parse but break the embedding's invariants are corrupt
    # files (5), not a bad configuration (2)
    adj, _, _, edges = _sample_fixture(50, 3)
    base = str(tmp_path / "e")
    io.write_edge_vector(edges, tmp_path / "a.csv")
    argv = ["oos", "--embedding", base, "--edges", str(tmp_path / "a.csv"),
            "--method", "ls"]

    io.write_embedding(ase(adj, 2), base + ".csv", base + ".json")
    sidecar = json.loads((tmp_path / "e.json").read_text())
    sidecar["eigenvalues"].reverse()
    (tmp_path / "e.json").write_text(json.dumps(sidecar))
    assert main(argv) == 5
    assert "eigenvalues must be sorted descending" in capsys.readouterr().err

    io.write_embedding(ase(adj, 2), base + ".csv", base + ".json")
    positions = io.read_matrix_csv(base + ".csv")
    positions[0] *= 2.0
    io.write_matrix_csv(positions, base + ".csv")
    assert main(argv) == 5
    assert "not orthonormal" in capsys.readouterr().err


def test_cli_embed_degenerate_exit_3(tmp_path, capsys):
    # a single edge has spectrum {+1, -1}: no second positive eigenvalue
    adj = from_dense(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    gpath = tmp_path / "tiny.txt"
    io.write_edge_list(adj, gpath)
    rc = main(["embed", "--graph", str(gpath), "--dim", "2",
               "--out", str(tmp_path / "e")])
    assert rc == 3
    assert capsys.readouterr().err != ""


def test_cli_embed_edgeless_graph_exit_3(tmp_path, capsys):
    # a header-only file is an edgeless graph, refused before the n x n
    # operand is filled or any eigensolver runs
    gpath = tmp_path / "empty.txt"
    gpath.write_text("oos-ase graph n=3000\n")
    argv = ["embed", "--graph", str(gpath), "--out", str(tmp_path / "e")]
    assert main(argv + ["--dim", "2"]) == 3
    assert "min eigenvalue 0.000e+00" in capsys.readouterr().err
    assert main(argv + ["--dim", "0"]) == 2
    assert "embedding dimension 0 out of range for order 3000" in (
        capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["empty.txt"]


def test_cli_usage_errors(tmp_path, capsys):
    # argparse reports usage problems itself with exit status 2
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--graph", "g.txt", "--out", "e"])  # missing --dim
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["oos", "--embedding", "e", "--edges", "a.csv",
              "--method", "huber"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["sample", "--spec", "s.json", "--n", "5", "--out", "x",
              "--frobulate"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--study", "bogus", "--spec", "s.json",
              "--n", "50", "--out", "x"])
    assert exc.value.code == 2
    capsys.readouterr()

    # a comma list that is not integers is a usage error, not a traceback
    mix_2d = os.path.join(PRESET_DIR, "mixture_2d.json")
    ratio_spec = os.path.join(PRESET_DIR, "classify_1d.json")
    for argv, flag in (
        (["--study", "rate", "--spec", mix_2d, "--n", "abc"], "--n"),
        (["--study", "rate", "--spec", mix_2d, "--n", ","], "--n"),
        (["--study", "ratio", "--spec", ratio_spec, "--n", "100",
          "--m-grid", "x"], "--m-grid"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["experiment"] + argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: not a comma list of integers" in err
    assert not (tmp_path / "x").exists()


def test_cli_infeasible_box_exit_4(tmp_path, capsys):
    """At eps=0.4 the box needs every estimated inner product inside
    [0.4, 0.6]; the mixture's cross products sit near 0.34, so a modest
    sample has no feasible point at all."""
    spec = _write_mix_spec(tmp_path)
    out = tmp_path / "run"
    assert main(["sample", "--spec", spec, "--n", "200", "--seed", "0",
                 "--out", str(out)]) == 0
    prefix = str(out / "emb")
    assert main(["embed", "--graph", str(out / "graph.txt"), "--dim", "2",
                 "--out", prefix]) == 0
    capsys.readouterr()
    rc = main(["oos", "--embedding", prefix, "--edges",
               str(out / "oos_edges.csv"), "--method", "ml", "--eps", "0.4"])
    assert rc == 4
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "FeasibilityError"
    assert "empty" in diag["message"]


@pytest.mark.parametrize("method", ["ls", "ml"])
def test_cli_oos_eps_out_of_range_exit_2(tmp_path, capsys, method):
    """--eps follows one rule whichever method reads it: LS places
    without a margin, yet refuses one outside (0, 1/2) as ML does."""
    spec = _write_mix_spec(tmp_path)
    out = tmp_path / "run"
    assert main(["sample", "--spec", spec, "--n", "100", "--seed", "0",
                 "--out", str(out)]) == 0
    prefix = str(out / "emb")
    assert main(["embed", "--graph", str(out / "graph.txt"), "--dim", "2",
                 "--out", prefix]) == 0
    capsys.readouterr()
    for eps in ("0", "0.5", "0.7"):
        rc = main(["oos", "--embedding", prefix, "--edges",
                   str(out / "oos_edges.csv"), "--method", method,
                   "--eps", eps])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eps must lie in (0, 1/2)" in captured.err


def test_cli_solver_failure_reports_last_iterate(tmp_path, capsys,
                                                 monkeypatch):
    """A solver that stops short exits 4 with one JSON line on stderr that
    carries its last iterate, iteration count and gradient norm."""
    spec = _write_mix_spec(tmp_path)
    out = tmp_path / "run"
    assert main(["sample", "--spec", spec, "--n", "300", "--seed", "0",
                 "--out", str(out)]) == 0
    prefix = str(out / "emb")
    assert main(["embed", "--graph", str(out / "graph.txt"), "--dim", "2",
                 "--out", prefix]) == 0
    capsys.readouterr()
    monkeypatch.setattr(oos, "MAX_ITER", 1)
    rc = main(["oos", "--embedding", prefix, "--edges",
               str(out / "oos_edges.csv"), "--method", "ml"])
    assert rc == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "NonConvergenceError"
    assert len(diag["last_w"]) == 2 and np.all(np.isfinite(diag["last_w"]))
    assert diag["iterations"] == 1
    assert np.isfinite(diag["grad_norm"])


def test_cli_experiment_ratio_matches_theory(tmp_path, capsys):
    """The ratio study is pure plumbing around the analytic curve; the CSV
    values must equal the library output exactly (17-digit round trip)."""
    preset = os.path.join(PRESET_DIR, "classify_1d.json")
    out = tmp_path / "study"
    rc = main(["experiment", "--study", "ratio", "--spec", preset,
               "--n", "100,1000", "--m-grid", "1,10,100",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["study"] == "error_ratio"
    assert summary["n_grid"] == [100, 1000]

    spec = ClassifySpec.from_distribution(io.read_distribution(preset))
    assert (spec.lam, spec.p, spec.q) == (0.4, 0.6, 0.61)
    for n in (100, 1000):
        expected = error_ratio_curve(spec, n, (1, 10, 100))
        with open(out / "plotdata" / f"ratio_n{n}.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "m,ratio"
        got = [line.split(",") for line in lines[1:]]
        assert [(int(m), float(r)) for m, r in got] == list(expected)
    # analytic study: no per-trial records, hence no trials.csv
    assert not (out / "trials.csv").exists()
    assert (out / "summary.json").exists()


def test_cli_experiment_workers_identical(tmp_path, capsys):
    """Same seed, different worker counts: output directories must agree
    byte for byte."""
    spec = _write_mix_spec(tmp_path)
    outs = []
    for tag, workers in (("w1", "1"), ("w2", "2")):
        out = tmp_path / tag
        rc = main(["experiment", "--study", "clt-ls", "--spec", spec,
                   "--n", "50", "--trials", "6", "--seed", "3",
                   "--workers", workers, "--out", str(out)])
        assert rc == 0
        outs.append(out)
    capsys.readouterr()
    files = sorted(
        os.path.relpath(os.path.join(root, f), outs[0])
        for root, _, fs in os.walk(outs[0]) for f in fs
    )
    assert "trials.csv" in files and "summary.json" in files
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_cli_experiment_wbar_atom(tmp_path, capsys):
    spec = _write_mix_spec(tmp_path)
    # every study checks the atom, the ratio study too, which has no use
    # for it
    ratio_spec = os.path.join(PRESET_DIR, "classify_1d.json")
    for study, path, n in (("clt-ls", spec, "50"), ("clt-ml", spec, "50"),
                           ("rate", spec, "20,30,40,50"),
                           ("ratio", ratio_spec, "100")):
        for atom in ("5", "7", "-1"):
            rc = main(["experiment", "--study", study, "--spec", path,
                       "--n", n, "--trials", "2", "--wbar-atom", atom,
                       "--out", str(tmp_path / "x")])
            assert rc == 2
            assert f"--wbar-atom {atom} out of range" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()

    rc = main(["experiment", "--study", "clt-ls", "--spec", spec,
               "--n", "50", "--trials", "3", "--wbar-atom", "0",
               "--seed", "1", "--out", str(tmp_path / "y")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 3


def test_presets_load():
    mix = io.read_distribution(os.path.join(PRESET_DIR, "mixture_2d.json"))
    assert mix.dimension == 2
    assert np.array_equal(mix.points, MIX.points)
    assert np.array_equal(mix.weights, MIX.weights)
    classify = io.read_distribution(os.path.join(PRESET_DIR, "classify_1d.json"))
    spec = ClassifySpec.from_distribution(classify)
    assert (spec.lam, spec.p, spec.q) == (0.4, 0.6, 0.61)


def test_console_script_help():
    # Resolve the [project.scripts] target from pyproject.toml and invoke it
    # the way the generated console script would, so the entry point is
    # checked whether or not the package is installed.
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["oos-ase"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: oos-ase")
    assert "sample" in proc.stdout and "experiment" in proc.stdout


def test_public_names_and_benchmark_trace_targets_resolve(monkeypatch):
    # Every exported name exists, and every function that the benchmark's
    # tracer wraps by name (TARGETS in bench/spans.py) is still there, so
    # a deletion that would break `bench/run.py --trace 1` fails here.
    # The import leaves no bytecode cache under bench/.
    import oos_ase

    missing = [name for name in oos_ase.__all__ if not hasattr(oos_ase, name)]
    assert missing == []
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(REPO_ROOT, "bench"))
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for owner, attr, _, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
