"""Every text reader and writer treats paths and open handles alike.

Writers also give the same text whatever the row block they convert at a time.
"""

import io
import mmap
import os
import select
import time
import tracemalloc

import numpy as np
import pytest

from lppart import graph
from lppart.augment import FeatureTable, read_feature_table, write_feature_table
from lppart.coarsen import coarsen, write_coarse_graph
from lppart.graph import IdMap, PartitionMap, from_edges, load_edge_list, write_edge_list
from lppart.pipeline import read_partition_file, write_partition_file


def _graph_fields(loaded):
    g, id_map = loaded
    return [g.neighbor_offsets, g.neighbor_targets, g.edge_weights, g.node_values,
            id_map.external_ids]


def _feature_fields(loaded):
    table, ids = loaded
    return [table.rows, ids]


_READERS = {
    "edge list": ("7\t3\t0.5\n# comment\n3\t9\n9\t7\t2.0\n",
                  lambda src: _graph_fields(load_edge_list(src))),
    "partition": ("7\t1\n3\t0\n9\t1\n",
                  lambda src: [read_partition_file(src, IdMap([3, 7, 9])).assignment]),
    "feature table": ("#dim 2\n7\t0.5\t1.5\n3\t2.0\t-1.0\n",
                      lambda src: _feature_fields(read_feature_table(src))),
}

_G = from_edges(4, [0, 1, 2, 0], [1, 2, 3, 3], [0.5, 1.25, 2.0, 0.1])
_IDS = IdMap([100, 7, 42, 9])
_COARSE = coarsen(PartitionMap(np.array([0, 0, 1, 1]), 2), "node", _G)

_WRITERS = {
    "edge list": lambda dest: write_edge_list(_G, dest, _IDS),
    "partition": lambda dest: write_partition_file(PartitionMap([0, 1, 1, 0], 2), _IDS, dest),
    "coarse edges": lambda dest: write_coarse_graph(_COARSE, dest, io.StringIO()),
    "coarse values": lambda dest: write_coarse_graph(_COARSE, io.StringIO(), dest),
    "feature table": lambda dest: write_feature_table(
        FeatureTable([[1.5, -2.0], [0.1, 3.0]]), dest, ids=np.array([42, 7])),
}


@pytest.mark.parametrize("name", sorted(_READERS))
def test_readers_agree_on_path_bytes_and_text_handles(tmp_path, name):
    text, read = _READERS[name]
    path = tmp_path / "in.tsv"
    path.write_bytes(text.encode("utf-8"))
    results = [read(path), read(str(path)), read(io.BytesIO(text.encode("utf-8"))),
               read(io.StringIO(text))]
    for other in results[1:]:
        assert len(other) == len(results[0])
        for a, b in zip(results[0], other):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writers_give_the_same_text_for_any_row_block(monkeypatch, name):
    texts = []
    for block in (graph._ROW_BLOCK, 1):
        monkeypatch.setattr(graph, "_ROW_BLOCK", block)
        buf = io.StringIO()
        _WRITERS[name](buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writers_give_the_same_text_to_path_and_handle(tmp_path, name):
    write = _WRITERS[name]
    path = tmp_path / "out.tsv"
    write(path)
    buf = io.StringIO()
    write(buf)
    assert buf.getvalue()
    assert path.read_bytes().decode("utf-8") == buf.getvalue()


def _written(write, dest, tmp_path) -> bytes:
    """The bytes ``write`` puts in a file, given its path or a text handle on it."""
    if dest == "path":
        write(tmp_path / "out.tsv")
        return (tmp_path / "out.tsv").read_bytes()
    buf = io.StringIO()
    write(buf)
    return buf.getvalue().encode("utf-8")


def _wait_for_child(pipe) -> bool:
    """A ``graph._ready`` that waits for the child's rows, so that the child formats them all."""
    return bool(select.select([pipe], [], [])[0])


@pytest.fixture
def forks(monkeypatch):
    """Fork for every table write, under two threads, and copy every row from
    the child; each ``os.fork`` call goes to a list."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(graph, "_FORK_CELLS", 0)
    monkeypatch.setattr(graph, "_ready", _wait_for_child)
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    with graph.worker_threads(2):
        if not graph._can_fork():
            pytest.skip("Python 3.12+ with other threads running: the write stays serial")
        yield calls
    with pytest.raises(ChildProcessError):  # every child is reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("block", ["default", 1])
@pytest.mark.parametrize("dest", ["path", "handle"])
@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_forked_writers_give_the_serial_bytes(tmp_path, monkeypatch, forks, name, dest, block):
    if block != "default":
        monkeypatch.setattr(graph, "_ROW_BLOCK", block)
    with graph.worker_threads(1):
        want = _written(_WRITERS[name], dest, tmp_path)
    assert not forks
    assert _written(_WRITERS[name], dest, tmp_path) == want
    assert forks
    with pytest.raises(ChildProcessError):  # every child is reaped
        os.waitpid(-1, os.WNOHANG)


# a table of 40 rows whose lines differ in length: two id columns and two value columns
_RNG = np.random.default_rng(5)
_TABLE = ((_RNG.integers(-2**63, 2**63 - 1, 40), _RNG.integers(0, 9, 40)),
          np.column_stack([_RNG.standard_normal(40) * 10.0 ** _RNG.integers(-300, 300, 40),
                           np.tile([np.inf, -0.0, np.nan, 1e-320], 10)]))


def _write_test_table(dest):
    graph._write_table(dest, *_TABLE, header="#dim 2\n")


def _serial_table_bytes(tmp_path) -> bytes:
    with graph.worker_threads(1):
        return _written(_write_test_table, "path", tmp_path)


@pytest.mark.parametrize("rows_here", [1, 7, 39, 40])
def test_the_parent_copies_the_child_rows_past_its_own(tmp_path, monkeypatch, forks, rows_here):
    want = _serial_table_bytes(tmp_path)
    monkeypatch.setattr(graph, "_SHARE_CELLS", 1)  # one row at a time on each side
    looks = []

    def late(pipe):  # the child formats every row, then the parent writes rows_here of them
        looks.append(_wait_for_child(pipe))
        return len(looks) > rows_here

    monkeypatch.setattr(graph, "_ready", late)
    copies = []
    copy = graph._copy_lines
    monkeypatch.setattr(graph, "_copy_lines", lambda *args: copies.append(args[2:]) or copy(*args))
    assert _written(_write_test_table, "path", tmp_path) == want
    assert forks == [1] and copies == ([] if rows_here == 40 else
                                       [(len(b"".join(want.splitlines(True)[1:])), rows_here)])


def test_the_child_stops_at_the_rows_written_here(tmp_path, monkeypatch, forks):
    want = _serial_table_bytes(tmp_path)
    monkeypatch.setattr(graph, "_SHARE_CELLS", 24)  # six rows of four cells at a time
    go_r, go_w = os.pipe()
    forked = graph._forked

    def held(work):  # the child starts once the parent has written its first six rows
        def send(pipe):
            os.read(go_r, 1)
            work(pipe)
        return forked(send)

    looks = []

    def ready(pipe):
        looks.append(1)
        if len(looks) < 2:
            return False
        os.write(go_w, b"x")
        return _wait_for_child(pipe)

    copies = []
    copy = graph._copy_lines
    monkeypatch.setattr(graph, "_copy_lines", lambda *args: copies.append(args[2:]) or copy(*args))
    monkeypatch.setattr(graph, "_forked", held)
    monkeypatch.setattr(graph, "_ready", ready)
    try:
        assert _written(_write_test_table, "path", tmp_path) == want
    finally:
        os.close(go_r)
        os.close(go_w)
    assert copies == [(len(b"".join(want.splitlines(True)[7:])), 0)]


def test_a_child_that_stops_short_leaves_the_rows_between_to_the_parent(tmp_path, monkeypatch,
                                                                          forks):
    want = _serial_table_bytes(tmp_path)
    parent = os.getpid()
    real = mmap.mmap

    class Torn:  # in the child the counter of rows written reads as 35, as a torn read might
        def __init__(self, *args):
            self.map = real(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.map.close()

        def __getitem__(self, key):
            return self.map[key] if os.getpid() == parent else (35).to_bytes(8, "little")

        def __setitem__(self, key, value):
            self.map[key] = value

    monkeypatch.setattr(graph.mmap, "mmap", Torn)
    assert _written(_write_test_table, "path", tmp_path) == want
    assert forks == [1]


def test_rows_shared_at_any_pace_give_the_serial_bytes(tmp_path, monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    rng = np.random.default_rng(2)
    ids, values = (rng.integers(0, 10**9, 3000),), rng.standard_normal((3000, 3))
    with graph.worker_threads(1):
        want = _written(lambda dest: graph._write_table(dest, ids, values), "path", tmp_path)
    monkeypatch.setattr(graph, "_FORK_CELLS", 0)
    monkeypatch.setattr(graph, "_SHARE_CELLS", 64)
    with graph.worker_threads(2):
        if not graph._can_fork():
            pytest.skip("Python 3.12+ with other threads running: the write stays serial")
        for _ in range(5):
            assert _written(lambda dest: graph._write_table(dest, ids, values), "path",
                            tmp_path) == want
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_child_leaves_its_rows_to_the_parent(tmp_path, monkeypatch, forks):
    want = _serial_table_bytes(tmp_path)
    exit_ = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_(3))  # only the child exits
    assert _written(_write_test_table, "path", tmp_path) == want
    forked = graph._forked

    def failing(work):  # the child raises before it sends anything
        return forked(lambda pipe: 1 / 0)

    monkeypatch.setattr(graph, "_forked", failing)
    assert _written(_write_test_table, "handle", tmp_path) == want
    assert forks == [1, 1]


@pytest.mark.parametrize("keep", ["nothing", "part of the header", "the header", "part of a line",
                                  "one line", "all but the last newline"])
def test_a_child_cut_short_leaves_the_rest_to_the_parent(tmp_path, monkeypatch, forks, keep):
    want = _serial_table_bytes(tmp_path)
    first = len(want.splitlines(keepends=True)[1])  # the child's first line
    cut = {"nothing": 0, "part of the header": 10, "the header": 16,
           "part of a line": 16 + first // 2, "one line": 16 + first,
           "all but the last newline": -1}[keep]
    forked = graph._forked

    def cut_short(work):
        def send(pipe):
            buf = io.BytesIO()
            work(buf)
            assert 16 + first < len(buf.getvalue())
            pipe.write(buf.getvalue()[:cut])
        return forked(send)

    monkeypatch.setattr(graph, "_forked", cut_short)
    assert _written(_write_test_table, "path", tmp_path) == want
    assert forks == [1]


def test_a_complete_copy_does_not_wait_for_the_child_to_end(tmp_path, monkeypatch, forks):
    want = _serial_table_bytes(tmp_path)
    forked = graph._forked

    def lingering(work):  # the child keeps its end of the pipe open after its rows
        def send(pipe):
            work(pipe)
            pipe.flush()
            time.sleep(30)
        return forked(send)

    monkeypatch.setattr(graph, "_forked", lingering)
    start = time.monotonic()
    assert _written(_write_test_table, "path", tmp_path) == want
    assert time.monotonic() - start < 10  # the lingering child was killed, then reaped


def test_a_failed_fork_leaves_every_row_to_the_parent(tmp_path, monkeypatch, forks):
    want = _serial_table_bytes(tmp_path)

    def no_fork():
        forks.append(1)
        raise OSError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _written(_write_test_table, "path", tmp_path) == want
    assert forks == [1]


def test_one_thread_writes_serially(tmp_path, monkeypatch):
    want = _serial_table_bytes(tmp_path)
    monkeypatch.setattr(graph, "_FORK_CELLS", 0)
    monkeypatch.setattr(os, "fork", None)
    with graph.worker_threads(1):
        assert _written(_write_test_table, "path", tmp_path) == want
        assert _written(_write_test_table, "handle", tmp_path) == want


def test_a_forked_write_peaks_no_higher_than_the_serial_one(tmp_path, forks):
    rng = np.random.default_rng(11)
    ids, values = (rng.integers(-2**62, 2**62, 200_000),), rng.standard_normal((200_000, 2))
    texts, peaks = [], []
    for threads in (1, 2):
        with graph.worker_threads(threads):
            tracemalloc.start()
            try:
                graph._write_table(tmp_path / "out.tsv", ids, values)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        texts.append((tmp_path / "out.tsv").read_bytes())
    assert forks == [1] and texts[0] == texts[1]
    assert peaks[1] <= peaks[0]
