"""Every text reader and writer treats paths and open handles alike.

Writers also give the same text whatever the row block they convert at a time.
"""

import io

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
