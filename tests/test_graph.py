import io
import os
import sys
import threading
import time

import numpy as np
import pytest

from lppart import graph
from lppart.augment import (FeatureTable, pagerank, read_feature_table, refine_structure,
                            write_feature_table)
from lppart.cli import run
from lppart.coarsen import coarsen, write_coarse_graph
from lppart.generate import GeneratorSpec, generate
from lppart.graph import (GraphFormatError, IdMap, PartitionMap, from_edges, induced_subgraph,
                          load_edge_list, write_edge_list)
from lppart.labelprop import LpParams, edge_retention
from lppart.pipeline import read_partition_file, write_partition_file

from oracles import validate_graph


def _load(text):
    return load_edge_list(io.BytesIO(text.encode()))


def test_load_unweighted_pair_of_edges():
    g, id_map = _load("1\t2\n2\t3\n")
    assert g.node_count == 3
    assert g.edge_count == 2
    assert np.all(g.edge_weights == 1.0)
    assert id_map.external_ids.tolist() == [1, 2, 3]


def test_load_drops_self_loop_but_keeps_node():
    g, id_map = _load("7\t7\t0.5\n")
    assert g.node_count == 1
    assert g.edge_count == 0
    assert id_map.external_ids.tolist() == [7]


def test_load_merges_parallel_edges_by_sum():
    g, _ = _load("1\t2\t0.3\n2\t1\t0.4\n")
    assert g.edge_count == 1
    u, v, w = g.edge_array()
    assert u.tolist() == [0] and v.tolist() == [1]
    assert w[0] == pytest.approx(0.7)


def test_load_ignores_comments_and_blank_lines():
    g, _ = _load("# header\n\n1\t2\n")
    assert g.edge_count == 1


def test_load_reports_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2"):
        _load("1\t2\n1\t2\t3\t4\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        _load("a\tb\n")


def test_load_rejects_bad_weights():
    for bad in ("0", "-1.5", "nan", "inf"):
        with pytest.raises(GraphFormatError, match="weight"):
            _load(f"1\t2\t{bad}\n")


def test_load_empty_input_is_an_error():
    with pytest.raises(GraphFormatError, match="empty"):
        _load("# nothing here\n")


# Loader inputs, written as UTF-8 unless given as bytes.
_LOADER_CASES = {
    "underscore id": "1_0\t2\n",
    "arabic-indic digit id": "\u0663\t2\n",
    "float id": "1.0\t2\n",
    "exponent id": "1e3\t2\n",
    "id 2**63": f"{2**63}\t1\n",
    "exact int64 ids": f"{2**53 + 1}\t{2**63 - 1}\t0.5\n{-2**63}\t{2**53 + 1}\t1.5\n",
    "trailing tab after weight": "1\t2\t0.5\t\n",
    "leading tab": "\t1\t2\n",
    "hex float weight": "1\t2\t0x1p3\n",
    "nan weight": "1\t2\tnan\n",
    "inf weight": "1\t2\tinf\n",
    "overflowing weight": "1\t2\t0.5\n3\t4\t1e400\n",
    "lone carriage return": "1\t2\t0.5\n3\t4\t0.5\r5\t6\t0.5\n",
    "no-break space": "1\u00a0\t2\n",
    "mid-line hash": "1\t2#x\n",
    "hash header": "# Nodes: 3 Edges: 2\n# FromNodeId\tToNodeId\n1\t2\n2\t3\n",
    "two then three columns": "1\t2\n3\t4\t0.5\n",
    "three then two columns": "1\t2\t0.5\n3\t4\n",
    "leading byte order mark": "\ufeff1\t2\n",
    "self-loop on first appearance": "5\t5\n3\t5\n",
    "crlf": "1\t2\t0.5\r\n2\t3\t1.5\r\n",
    "indented comment": "  # comment\n1\t2\n",
    "comments only": "# nothing\n\n",
    "invalid utf-8": b"1\t2\n\xff\t3\n",
}


def _graph_arrays(loaded):
    g, id_map = loaded
    return (g.neighbor_offsets, g.neighbor_targets, g.edge_weights, g.node_values,
            id_map.external_ids)


def _outcome(read):
    """The arrays ``read`` returns as lists, or the type and text of its error."""
    try:
        arrays = read()
    except ValueError as exc:  # GraphFormatError, UnicodeDecodeError and the like
        return type(exc).__name__, str(exc)
    return [a.tolist() for a in arrays]


def _feature_arrays(loaded):
    table, ids = loaded
    return [table.rows, ids]


def _loader_outcome(load):
    return _outcome(lambda: _graph_arrays(load()))


def _assert_fast_path_agrees_with_line_parser(tmp_path, monkeypatch, data, read):
    data = data if isinstance(data, bytes) else data.encode("utf-8")
    # np.loadtxt would gunzip a path named *.gz; the readers read it as plain text
    paths = [tmp_path / "g.tsv", tmp_path / "plain.tsv.gz"]
    for path in paths:
        path.write_bytes(data)
    sources = [lambda: paths[0], lambda: paths[1], lambda: io.BytesIO(data)]

    def outcomes():
        return [_outcome(lambda: read(src())) for src in sources]

    fast = outcomes()
    with monkeypatch.context() as m:
        m.setattr(graph, "_parse_columns", lambda *args: None)
        lines_only = outcomes()
    assert fast == lines_only


# The ids keep their "True-" prefix from when the loader could also drop weights,
# so each case keeps its name in the suite's history.
@pytest.mark.parametrize("name", sorted(_LOADER_CASES), ids=lambda name: f"True-{name}")
def test_loader_agrees_with_line_parser(tmp_path, monkeypatch, name):
    _assert_fast_path_agrees_with_line_parser(
        tmp_path, monkeypatch, _LOADER_CASES[name], lambda src: _graph_arrays(load_edge_list(src)))


# Inputs for the other table readers, keyed by (reader, case).
_TABLE_READERS = {
    "partition": lambda src: [read_partition_file(src, IdMap([1, 2, 10])).assignment],
    "feature table": lambda src: _feature_arrays(read_feature_table(src)),
    # one id per line and no value column, the narrowest table the reader takes
    "node set": lambda src: [graph._read_table(src, graph._read_text(src), ("node id",))[0]],
}
_TABLE_CASES = {
    ("partition", "well formed"): "1\t0\n2\t1\n10\t1\n",
    ("partition", "underscore id"): "1_0\t1\n1\t0\n2\t0\n",
    ("partition", "node id 2**63"): f"1\t0\n2\t0\n{2**63}\t1\n",
    ("partition", "part id 2**63"): f"1\t0\n2\t{2**63}\n10\t0\n",
    ("partition", "float part id"): "1\t0.0\n2\t0\n10\t0\n",
    ("partition", "unknown id"): "1\t0\n2\t0\n7\t1\n",
    ("partition", "repeated id keeps its last part"): "1\t0\n2\t0\n10\t0\n1\t2\n",
    ("partition", "one field"): "1\n2\t0\n10\t0\n",
    ("partition", "three fields"): "1\t0\n2\t0\t3\n10\t0\n",
    ("partition", "not total"): "1\t0\n",
    ("partition", "crlf"): "1\t0\r\n2\t1\r\n10\t0\r\n",
    ("partition", "byte order mark"): "\ufeff1\t0\n2\t0\n10\t0\n",
    ("partition", "mid-line hash"): "1\t2#x\n2\t0\n10\t0\n",
    ("partition", "hash header"): "# Nodes: 3\n# NodeId\tPart\n1\t0\n2\t1\n10\t0\n",
    ("partition", "lone carriage return"): "1\t0\n2\t0\r10\t0\n",
    ("partition", "comments only"): "# nothing\n\n",
    ("feature table", "dim header"): "#dim 2\n7\t0.5\t1.5\n3\t2.0\t-1.0\n",
    ("feature table", "no header"): "7\t0.5\n3\t2.0\n",
    ("feature table", "underscore id"): "1_0\t0.5\n2\t1.5\n",
    ("feature table", "id 2**63"): f"1\t0.5\n{2**63}\t1.5\n",
    ("feature table", "nan value"): "1\t0.5\n2\tnan\n",
    ("feature table", "overflowing value"): "1\t0.5\n2\t1e400\n",
    ("feature table", "ragged row"): "0\t1.0\t2.0\n1\t3.0\n",
    ("feature table", "dim 0"): "#dim 0\n1\n2\n",
    ("feature table", "ids only"): "1\n2\n",
    ("feature table", "dim 0 with a value"): "#dim 0\n1\t2.0\n",
    ("feature table", "repeated id"): "1\t0.5\n2\t0.5\n1\t0.25\n",
    ("feature table", "header after rows"): "1\t0.5\n#dim 1\n2\t1.5\n",
    ("feature table", "mismatched header after rows"): "1\t0.5\n#dim 2\n2\t1.5\n",
    ("feature table", "malformed header"): "#dim x\n1\t0.5\n",
    ("feature table", "crlf"): "#dim 1\r\n1\t0.5\r\n2\t1.5\r\n",
    ("feature table", "byte order mark"): "\ufeff1\t0.5\n2\t1.5\n",
    ("feature table", "mid-line hash"): "1\t2#x\n",
    ("feature table", "hash header"): "# Nodes: 2\n# NodeId\tF\n1\t0.5\n2\t1.5\n",
    ("feature table", "header only"): "#dim 2\n",
    ("node set", "well formed"): "9\n# comment\n3\n9\n",
    ("node set", "underscore id"): "1_0\n2\n",
    ("node set", "id 2**63"): f"1\n{2**63}\n",
    ("node set", "two fields"): "1\n2\t3\n",
    ("node set", "crlf"): "1\r\n2\r\n",
    ("node set", "byte order mark"): "\ufeff1\n2\n",
    ("node set", "mid-line hash"): "1#x\n",
    ("node set", "hash header"): "# Nodes: 2\n# NodeId\n1\n2\n",
    ("node set", "comments only"): "# nothing\n\n",
}


@pytest.mark.parametrize("reader, name", sorted(_TABLE_CASES))
def test_table_readers_agree_with_line_parser(tmp_path, monkeypatch, reader, name):
    _assert_fast_path_agrees_with_line_parser(
        tmp_path, monkeypatch, _TABLE_CASES[reader, name], _TABLE_READERS[reader])


def test_loader_numbers_self_loop_ids_and_keeps_exact_ids(monkeypatch):
    monkeypatch.setattr(graph, "_parse_lines", None)  # both files take the fast path
    g, id_map = _load("5\t5\n3\t5\n")
    assert id_map.external_ids.tolist() == [5, 3]
    assert g.edge_count == 1
    _, id_map = _load(_LOADER_CASES["exact int64 ids"])
    assert id_map.external_ids.tolist() == [2**53 + 1, 2**63 - 1, -2**63]


def test_well_formed_files_skip_the_line_parser(tmp_path, monkeypatch):
    calls = []
    line_parser = graph._parse_lines
    monkeypatch.setattr(graph, "_parse_lines",
                        lambda *args: calls.append(1) or line_parser(*args))
    buf = io.StringIO()
    write_edge_list(generate(GeneratorSpec("random_weighted", (50, 200, 0.1, 1.0), seed=3)), buf)
    for name, text in (("plain.tsv", buf.getvalue()),
                       ("header.tsv", "# generated\n# src\tdst\tweight\n" + buf.getvalue())):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        expected = _loader_outcome(lambda: load_edge_list(path))
        assert _loader_outcome(lambda: _load(text)) == expected
        assert calls == []
    with pytest.raises(GraphFormatError, match="line 2"):
        _load("1\t2\nx\t3\n")
    assert calls == [1]


def test_written_tables_skip_the_line_parser(tmp_path, monkeypatch):
    calls = []
    line_parser = graph._parse_lines
    monkeypatch.setattr(graph, "_parse_lines", lambda *args: calls.append(1) or line_parser(*args))
    rng = np.random.default_rng(4)
    ids = rng.permutation(np.unique(rng.integers(-2**63, 2**63 - 1, 300, dtype=np.int64)))
    ids[:2] = [-2**63, 2**63 - 1]
    id_map = IdMap(ids)
    rows = rng.normal(size=(len(ids), 3)) * 10.0 ** rng.integers(-300, 300, (len(ids), 3))
    parts = PartitionMap(rng.integers(0, 5, len(ids)), 5)
    m = 900
    g = from_edges(len(ids), rng.integers(0, len(ids), m), rng.integers(0, len(ids), m),
                   rng.uniform(0.1, 1.0, m) * 10.0 ** rng.integers(-300, 300, m))
    coarse = coarsen(parts, "node", g)
    edges = tmp_path / "edges.tsv"
    write_edge_list(g, edges, id_map)
    loaded, loaded_ids = load_edge_list(edges)

    def read_table(columns, values):
        return lambda src: list(graph._read_table(src, graph._read_text(src), columns, values))

    writers = {
        "partition": (lambda dest: write_partition_file(parts, id_map, dest),
                      lambda src: [read_partition_file(src, id_map).assignment],
                      [parts.assignment]),
        "feature table": (lambda dest: write_feature_table(FeatureTable(rows), dest, ids=ids),
                          lambda src: _feature_arrays(read_feature_table(src)),
                          [rows, ids]),
        "coarse values": (lambda dest: write_coarse_graph(coarse, io.StringIO(), dest),
                          read_table(("node id", "value"), ("self-loop weight",)),
                          [np.stack([np.arange(parts.num_parts), coarse.graph.node_values], axis=1),
                           coarse.self_loop_weight[:, None]]),
        "pagerank": (lambda dest: run(["pagerank", "--input", str(edges), "--out", str(dest)]),
                     read_table(("node id",), ("score",)),
                     [loaded_ids.external_ids[:, None], pagerank(loaded)[:, None]]),
    }
    for name, (write, read, expected) in writers.items():
        path = tmp_path / f"{name}.tsv"
        write(path)
        for src in (path, io.BytesIO(path.read_bytes())):
            assert [a.tolist() for a in read(src)] == [a.tolist() for a in expected], name
        assert calls == [], name


def _edge_lines(n=40):
    return [f"{i}\t{(7 * i) % n}\t{0.5 + i / 64}" for i in range(n)]


def _join(lines, newline="\n"):
    return "".join(line + newline for line in lines)


def _with_line(lines, lineno, line):
    """``lines`` with ``line`` put in at line number ``lineno`` (from 1)."""
    return lines[:lineno - 1] + [line] + lines[lineno - 1:]


# Edge lists, each with what the forked parse does: "rows" where it parses
# the head and the tail, "failed" where a half fails and the file is parsed
# again serially, "serial" where it leaves the file to the serial parse
# without forking. Line 3 lies in the head of each file, line 30 in the tail.
_FORK_CASES = {
    "plain": (_join(_edge_lines()), "rows"),
    "crlf": (_join(_edge_lines(), "\r\n"), "rows"),
    "no final newline": (_join(_edge_lines())[:-1], "rows"),
    "two columns": (_join([line.rsplit("\t", 1)[0] for line in _edge_lines()]), "rows"),
    "blank line in the tail": (_join(_with_line(_edge_lines(), 30, "")), "rows"),
    "blank crlf line in the tail": (_join(_with_line(_edge_lines(), 30, ""), "\r\n"), "rows"),
    "blank line in the head": (_join(_with_line(_edge_lines(), 3, "")), "serial"),
    "blank first line": (_join(_with_line(_edge_lines(), 1, "")), "serial"),
    "blank crlf line in the head": (_join(_with_line(_edge_lines(), 3, ""), "\r\n"), "serial"),
    "comment line in the head": (_join(_with_line(_edge_lines(), 3, "# c")), "serial"),
    "comment line in the tail": (_join(_with_line(_edge_lines(), 30, "# c")), "serial"),
    "two-column rows only in the tail": (
        _join(_edge_lines()[:25] + [line.rsplit("\t", 1)[0] for line in _edge_lines()[25:]]),
        "failed"),
    "bad field in the head": (_join(_with_line(_edge_lines(), 3, "x\t3\t0.5")), "failed"),
    "bad field in the tail": (_join(_with_line(_edge_lines(), 30, "x\t3\t0.5")), "failed"),
    "bad weight in the tail": (_join(_with_line(_edge_lines(), 30, "1\t3\t-1")), "rows"),
    "id 2**63 in the tail": (_join(_with_line(_edge_lines(), 30, f"{2**63}\t3\t0.5")), "failed"),
}


@pytest.mark.parametrize("name", sorted(_FORK_CASES))
def test_forked_parse_agrees_with_serial_parse(tmp_path, monkeypatch, forked_parse, name):
    text, want = _FORK_CASES[name]
    path = tmp_path / "g.tsv"
    path.write_bytes(text.encode())
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    forked = _loader_outcome(lambda: load_edge_list(path))
    assert len(forks) == (want != "serial")
    assert len(forked_parse) == 1
    assert (forked_parse[0] is not None) == (want == "rows")
    if want == "rows":
        assert forked_parse[0].tobytes() == graph._loadtxt(path, forked_parse[0].dtype).tobytes()
    with monkeypatch.context() as m:
        m.setattr(graph, "_FORK_CHARS", len(text) + 1)
        assert _loader_outcome(lambda: load_edge_list(path)) == forked
    if name.startswith(("bad", "id")):
        line = 3 if name.endswith("head") else 30
        assert forked[0] == "GraphFormatError" and forked[1].startswith(f"line {line}:")
    with pytest.raises(ChildProcessError):  # every child is reaped
        os.waitpid(-1, os.WNOHANG)


def test_forked_parse_falls_back_on_a_failed_child(tmp_path, monkeypatch, forked_parse):
    path = tmp_path / "g.tsv"
    path.write_text(_join(_edge_lines()))
    want = _loader_outcome(lambda: load_edge_list(path))
    assert forked_parse.pop() is not None
    exit_ = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_(3))  # only the child exits
    assert _loader_outcome(lambda: load_edge_list(path)) == want
    assert forked_parse == [None]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_forked_child_runs_off_its_parents_cpu(monkeypatch):
    if not os.path.exists("/proc/thread-self/stat") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs Linux with more than one CPU allowed")
    allowed = os.sched_getaffinity(0)
    assert len(allowed - graph._other_cpus()) == 1 and graph._other_cpus() < allowed
    monkeypatch.setattr(graph, "_other_cpus", lambda: {min(allowed)})
    with graph._forked(lambda pipe: pipe.write(repr(os.sched_getaffinity(0)).encode())) as child:
        pipe, exited = child
        assert pipe.read() == repr({min(allowed)}).encode()
        assert exited()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_thread_parses_serially(tmp_path, monkeypatch):
    monkeypatch.setattr(graph, "_FORK_CHARS", 0)
    monkeypatch.setattr(os, "fork", None)
    path = tmp_path / "g.tsv"
    path.write_text(_join(_edge_lines()))
    with graph.worker_threads(1):
        got = _loader_outcome(lambda: load_edge_list(path))
    monkeypatch.setattr(graph, "_FORK_CHARS", 2**62)
    assert got == _loader_outcome(lambda: load_edge_list(path))


def _first_appearance_numbering(pairs):
    """Reference for ``_number_ids``: a dict numbers each id when first seen, row by row."""
    index = {}
    for i in pairs.reshape(-1).tolist():
        index.setdefault(i, len(index))
    return (np.array(list(index), dtype=np.int64),
            *(np.array([index[i] for i in col.tolist()]) for col in pairs.T))


@pytest.mark.parametrize("span_per_id", [graph._SPAN_PER_ID, 0])  # 0: np.unique only
def test_number_ids_in_first_appearance_order(monkeypatch, span_per_id):
    monkeypatch.setattr(graph, "_SPAN_PER_ID", span_per_id)
    rng = np.random.default_rng(6)
    dense = rng.permutation(np.repeat(np.arange(1000, 1500), 4)).reshape(-1, 2)
    cases = {
        "shuffled dense ids": dense,
        "negative ids": dense - 2000,
        "ids near -2**63": (dense - 1000) + (-2**63),
        "ids near 2**63": (dense - 1500) + (2**63 - 1),
        "one id": np.array([[7, 7]]),
        "exact int64 ids (wide span)": np.array([[2**53 + 1, 2**63 - 1], [-2**63, 2**53 + 1]]),
    }
    for name, pairs in cases.items():
        got = graph._number_ids(pairs.astype(np.int64))
        want = _first_appearance_numbering(pairs.astype(np.int64))
        assert [a.tolist() for a in got] == [a.tolist() for a in want], name


def test_round_trip_write_then_load():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 60))
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        w = rng.uniform(0.1, 3.0, m)
        g = from_edges(n, u, v, w)
        buf = io.StringIO()
        write_edge_list(g, buf)
        g2, id_map = _load(buf.getvalue())
        assert g2.edge_count == g.edge_count
        # compare canonical edge sets through the id map
        a2, b2, w2 = g2.edge_array()
        ext = id_map.external_ids
        seen = {(min(ext[a], ext[b]), max(ext[a], ext[b])): ww
                for a, b, ww in zip(a2, b2, w2)}
        a1, b1, w1 = g.edge_array()
        orig = {(a, b): ww for a, b, ww in zip(a1, b1, w1)}
        assert set(seen) == set(orig)
        for key in orig:
            assert seen[key] == pytest.approx(orig[key], rel=0, abs=0)


def test_validator_accepts_loaded_and_generated_graphs():
    g, _ = _load("1\t2\t0.3\n2\t3\t0.4\n3\t1\t0.5\n")
    validate_graph(g)
    validate_graph(generate(GeneratorSpec("ring", (9,))))
    validate_graph(generate(GeneratorSpec("random_weighted", (30, 80, 0.1, 2.0), seed=3)))


def test_validator_catches_asymmetry():
    g, _ = _load("1\t2\n2\t3\n")
    broken = g.edge_weights.copy()
    broken[0] *= 2  # damage one direction only
    g2 = type(g)(g.node_count, g.neighbor_offsets, g.neighbor_targets, broken, g.node_values)
    with pytest.raises(ValueError, match="symmetric"):
        validate_graph(g2)


def test_induced_subgraph_triangle_subset():
    g = from_edges(3, [0, 1, 2], [1, 2, 0])
    sub, id_map = induced_subgraph(g, [0, 1])
    assert sub.node_count == 2
    assert sub.edge_count == 1
    assert id_map.external_ids.tolist() == [0, 1]


def test_induced_subgraph_identity_and_singleton():
    g = from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
    whole, _ = induced_subgraph(g, range(4))
    assert whole.edge_count == g.edge_count
    assert np.array_equal(whole.neighbor_targets, g.neighbor_targets)
    single, _ = induced_subgraph(g, [2])
    assert single.node_count == 1 and single.edge_count == 0


def test_induced_subgraph_out_of_range():
    g = from_edges(3, [0], [1])
    with pytest.raises(ValueError, match="out of range"):
        induced_subgraph(g, [0, 5])


def test_induced_subgraph_matches_brute_force_count():
    """Every array of the subgraph equals ``from_edges`` of the surviving edges."""
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(4, 64))
        m = int(rng.integers(1, 2 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.1, 1.0, m), node_values=rng.integers(1, 9, n))
        subset = [np.arange(0), np.arange(n), np.flatnonzero(rng.random(n) < 0.5)][trial % 3]
        sub, ids = induced_subgraph(g, subset)
        assert ids.external_ids.tolist() == subset.tolist()
        mark = np.full(n, -1)
        mark[subset] = np.arange(len(subset))
        u, v, w = g.edge_array()
        survives = (mark[u] >= 0) & (mark[v] >= 0)
        want = from_edges(len(subset), mark[u[survives]], mark[v[survives]], w[survives],
                          node_values=g.node_values[subset])
        assert sub.node_count == want.node_count
        for name in ("neighbor_offsets", "neighbor_targets", "edge_weights", "node_values"):
            got, exp = getattr(sub, name), getattr(want, name)
            assert got.dtype == exp.dtype and np.array_equal(got, exp), name
        validate_graph(sub)


def test_induced_subgraph_copies_node_values():
    g = from_edges(3, [0, 1], [1, 2]).with_node_values([5, 7, 9])
    sub, _ = induced_subgraph(g, [1, 2])
    assert sub.node_values.tolist() == [7, 9]


def test_idmap_round_trip_and_uniqueness():
    m = IdMap(np.array([10, 20, 99]))
    assert m.lookup(m.external_ids).tolist() == [0, 1, 2]
    assert m.lookup([99, 1234, 10]).tolist() == [2, -1, 0]
    with pytest.raises(ValueError):
        IdMap(np.array([1, 1]))


def test_partition_map_validation():
    pm = PartitionMap(np.array([0, 1, 1, 0]), 2)
    assert pm.part_sizes().tolist() == [2, 2]
    with pytest.raises(ValueError):
        PartitionMap(np.array([0, 2]), 2)


def test_with_node_values_validation():
    g = from_edges(3, [0], [1])
    with pytest.raises(ValueError, match="length"):
        g.with_node_values([1, 2])
    with pytest.raises(ValueError, match=">= 1"):
        g.with_node_values([1, 0, 1])


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="out of range"):
        from_edges(2, [0], [5])
    with pytest.raises(ValueError, match="finite and positive"):
        from_edges(2, [0], [1], [-1.0])
    with pytest.raises(ValueError, match="equal length"):
        from_edges(2, [0], [1, 0])


def test_validator_catches_duplicate_arcs():
    g = from_edges(2, [0], [1])
    dup = type(g)(2, np.array([0, 2, 4]),
                  np.concatenate([g.neighbor_targets[:1]] * 2 + [g.neighbor_targets[1:]] * 2),
                  np.concatenate([g.edge_weights[:1]] * 2 + [g.edge_weights[1:]] * 2),
                  g.node_values)
    with pytest.raises(ValueError, match="duplicate"):
        validate_graph(dup)


def test_from_edges_rejects_bad_node_values():
    with pytest.raises(ValueError, match="node value array has wrong length"):
        from_edges(3, [0, 1], [1, 2], node_values=[1, 1])
    with pytest.raises(ValueError, match="node values must be >= 1"):
        from_edges(3, [0, 1], [1, 2], node_values=[1, 0, 1])
    g = from_edges(3, [0, 1], [1, 2], node_values=[1, 2, 3])
    validate_graph(g)
    assert g.node_values.tolist() == [1, 2, 3]


def test_stable_order_matches_stable_argsort():
    rng = np.random.default_rng(11)
    for n, span in ((1000, 5), (5000, 1), (3000, 10**6), (200, 2**40)):
        key = rng.integers(0, span, n)  # heavy ties at small spans
        assert np.array_equal(graph._stable_order(key), np.argsort(key, kind="stable"))
    for key in (np.empty(0, dtype=np.int64), np.array([7])):
        assert np.array_equal(graph._stable_order(key), np.argsort(key, kind="stable"))
    # key << 3 overflows int64, so the stable argsort itself runs
    key = np.array([2**62 - 1, 3, 2**62 - 1, 0, 3])
    assert np.array_equal(graph._stable_order(key), [3, 1, 4, 0, 2])
    # five positions take 3 bits: 2**60 - 1 is the largest key the composites hold
    for top in (2**60 - 1, 2**60):
        key = np.array([top, 3, top, 0, 3])
        assert np.array_equal(graph._stable_order(key), [3, 1, 4, 0, 2])


def _hub_graph():
    """Node 1 is a hub of 12 arcs; nodes 0 and 16.. have none: 4 blocks of 8 arcs."""
    return from_edges(20, [1] * 12 + [2, 3, 4], list(range(2, 14)) + [3, 4, 5])


def _map_rows_blocks(g, threads):
    """The ``(a, b, src)`` of each block ``_map_rows`` runs, in the order they ran."""
    blocks = []
    with graph.worker_threads(threads):
        graph._map_rows(g, lambda a, b, src: blocks.append((a, b, src)))
    return blocks


def test_row_blocks_hold_whole_rows_of_about_one_block(monkeypatch):
    monkeypatch.setattr(graph, "_ARC_BLOCK", 8)
    g = _hub_graph()
    off = g.neighbor_offsets
    for threads in (1, 3):
        blocks = sorted(_map_rows_blocks(g, threads), key=lambda block: block[0])
        assert [(a, b) for a, b, _ in blocks] == [(0, 2), (2, 5), (5, 12), (12, 20)]
        for a, b, src in blocks:
            assert np.array_equal(src, g.arc_sources()[off[a]:off[b]])
            assert 0 < off[b] - off[a] <= 8 or np.count_nonzero(g.degrees[a:b]) == 1
        assert _map_rows_blocks(from_edges(5, [], []), threads) == []


def test_map_rows_runs_inline_in_order_on_one_thread(monkeypatch):
    monkeypatch.setattr(graph, "_ARC_BLOCK", 8)
    g = _hub_graph()
    ran = []
    with graph.worker_threads(1):
        graph._map_rows(g, lambda a, b, src: ran.append((a, threading.current_thread())))
    assert ran == [(a, threading.main_thread()) for a in (0, 2, 5, 12)]


def test_map_rows_starts_at_most_one_worker_less_than_blocks(monkeypatch):
    monkeypatch.setattr(graph, "_ARC_BLOCK", 8)
    g = _hub_graph()
    with graph.worker_threads(64):
        graph._map_rows(g, lambda a, b, src: None)  # the 64-thread pool, made once
        graph._pool_key[2].shutdown()  # its workers end, so the next pass starts its own
        graph._pool_key = None
        before = threading.active_count()
        graph._map_rows(g, lambda a, b, src: time.sleep(0.01))
        assert threading.active_count() - before <= 3


def test_map_rows_raises_an_error_of_a_block(monkeypatch):
    monkeypatch.setattr(graph, "_ARC_BLOCK", 8)
    g = _hub_graph()

    def fail_on_block_5(a, b, src):
        if a == 5:
            raise RuntimeError("block 5")

    for threads in (1, 2, 4):
        with graph.worker_threads(threads), pytest.raises(RuntimeError, match="block 5"):
            graph._map_rows(g, fail_on_block_5)


def test_map_rows_holds_under_frequent_thread_switches(monkeypatch):
    # more threads than cores, switching every microsecond: a block that
    # wrote outside its rows, or a block run twice or never, changes the counts
    monkeypatch.setattr(graph, "_ARC_BLOCK", 16)
    g = generate(GeneratorSpec("random_weighted", (2000, 8000, 0.1, 1.0), seed=4))
    with graph.worker_threads(1):
        want = graph._arc_mask(g, lambda src, dst, w: w > 0.5)
    runs = np.zeros(g.node_count, dtype=np.int64)

    def count(a, b, src):
        runs[a:b] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with graph.worker_threads(8):
            for _ in range(3):
                got = graph._arc_mask(g, lambda src, dst, w: w > 0.5)
                assert all(np.array_equal(x, y) for x, y in zip(got, want))
                graph._map_rows(g, count)
    finally:
        sys.setswitchinterval(interval)
    last = int(np.flatnonzero(g.degrees)[-1])
    assert (runs[:last + 1] == 3).all()


@pytest.mark.parametrize("bad", [0, -1])
def test_worker_threads_must_be_positive(bad):
    before = graph.thread_count()
    with pytest.raises(ValueError, match="at least 1"):
        with graph.worker_threads(bad):
            pass
    assert graph.thread_count() == before


def test_merge_edges_sums_parallel_edges_in_input_order():
    # float addition is not associative, so the order of the parallel edges
    # fixes the merged bits; np.add.reduceat adds the first weight to the sum
    # of the rest. A 1-2 edge sits between the parallel 0-1 edges.
    for w, want in (([1e16, 1.0, 1.0], 1.0000000000000002e16), ([1.0, 1.0, 1e16], 1e16)):
        g = from_edges(3, [0, 1, 1, 0], [1, 2, 0, 1], [w[0], 5.0, w[1], w[2]])
        assert g.edge_weights.tolist() == [want, want, 5.0, 5.0]
        assert want == np.add.reduceat(np.array(w), [0])[0]


def test_every_builder_stores_int32_targets(tmp_path):
    g = generate(GeneratorSpec("random_weighted", (60, 240, 0.1, 1.0), seed=5))
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    parts = PartitionMap(np.arange(g.node_count) % 7, 7)
    built = [g, from_edges(4, [0, 1, 2], [1, 2, 3]), load_edge_list(path)[0],
             coarsen(parts, "edge", g).graph, coarsen(parts, "node", g).graph,
             induced_subgraph(g, np.arange(0, g.node_count, 2))[0],
             edge_retention(g, LpParams(p_ratio=0.3, p_bound=0.0), 0),
             refine_structure(g, 0.1, mode="nodes")[0], refine_structure(g, 0.1, mode="edges")[0]]
    built += [generate(GeneratorSpec(model, args, seed=1)) for model, args in
              (("planted_partition", (3, 10, 0.5, 0.05)), ("complete_bipartite", (3, 4)),
               ("ring", (9,)))]
    for h in built:
        validate_graph(h)
        assert h.arc_sources().dtype == np.int32
        assert all(a.dtype == np.int32 for a in h.edge_array()[:2])


def _reference_merge(n, src, dst, w):
    """``_merge_edges`` by lexsorts: parallel edges summed in input order, CSR by (source, target)."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    keep = src != dst
    lo, hi, w = np.minimum(src, dst)[keep], np.maximum(src, dst)[keep], w[keep]
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    heads = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    lo, hi, w = lo[heads], hi[heads], np.add.reduceat(w, heads) if len(heads) else w
    a, b, w = np.r_[lo, hi], np.r_[hi, lo], np.r_[w, w]
    order = np.lexsort((b, a))
    offsets = np.r_[0, np.cumsum(np.bincount(a, minlength=n))]
    return offsets, b[order], w[order]


def _assert_merges_to_reference(g, n, src, dst, w):
    offsets, targets, weights = _reference_merge(n, src, dst, w)
    assert np.array_equal(g.neighbor_offsets, offsets)
    assert g.neighbor_targets.dtype == np.int32 and np.array_equal(g.neighbor_targets, targets)
    assert np.array_equal(g.edge_weights, weights)


def test_merge_keys_stay_int64_for_int32_endpoints():
    # min * n exceeds 2**31 from n > 46341: int32 keys would wrap
    rng = np.random.default_rng(23)
    n, m = 70000, 50000
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    src[:5], dst[:5] = n - 1, n - 2  # parallel edges at the top of the key range
    w = rng.uniform(0.1, 1.0, m)
    g64 = graph._merge_edges(n, [src, dst, w])
    g32 = graph._merge_edges(n, [src.astype(np.int32), dst.astype(np.int32), w])
    for a, b in ((g64.neighbor_offsets, g32.neighbor_offsets),
                 (g64.neighbor_targets, g32.neighbor_targets),
                 (g64.edge_weights, g32.edge_weights)):
        assert np.array_equal(a, b)
    _assert_merges_to_reference(g32, n, src, dst, w)


def test_merge_falls_back_where_packed_keys_overflow(monkeypatch):
    # pair keys below 2**44 with 20 bits of pair positions, and arc keys of
    # 2 * 22 bits with 21 bits of arc positions, exceed 63 bits
    n, m = 2**22, 2**19 + 2
    rng = np.random.default_rng(29)
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    src[:4], dst[:4] = [5, 9, 5, 7], [9, 5, 9, 7]  # parallel edges and a self-loop
    w = rng.uniform(0.1, 1.0, m)
    packed = []
    pack_sort = graph._pack_sort
    monkeypatch.setattr(graph, "_pack_sort", lambda key: packed.append(pack_sort(key)) or packed[-1])
    g = from_edges(n, src, dst, w)
    assert packed == [-1, -1]  # both sorts took the stable argsort
    _assert_merges_to_reference(g, n, src, dst, w)
