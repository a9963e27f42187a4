import io
import tracemalloc

import numpy as np
import pytest

from lppart.coarsen import coarsen, write_coarse_graph
from lppart.graph import PartitionMap, from_edges

from oracles import total_edge_weight


def _appendix_style_graph():
    """Two groups: five nodes valued 5,5,4,7,5 and two nodes valued 3,2,
    linked across groups by edges of weight 0.3 and 0.4."""
    u = [0, 1, 2, 3, 0, 1, 5]
    v = [1, 2, 3, 4, 5, 6, 6]
    w = [1.0, 1.0, 1.0, 1.0, 0.3, 0.4, 0.6]
    g = from_edges(7, u, v, w).with_node_values([5, 5, 4, 7, 5, 3, 2])
    parts = PartitionMap(np.array([0, 0, 0, 0, 0, 1, 1]), 2)
    return g, parts


def test_node_mode_sums_values_edge_mode_counts_nodes():
    g, parts = _appendix_style_graph()
    by_node = coarsen(parts, "node", g)
    assert by_node.graph.node_values[0] == 5 + 5 + 4 + 7 + 5  # 26
    assert by_node.graph.node_values[1] == 5
    by_edge = coarsen(parts, "edge", g)
    assert by_edge.graph.node_values[0] == 5
    assert by_edge.graph.node_values[1] == 2


def test_cross_group_edge_weights_sum():
    g, parts = _appendix_style_graph()
    cg = coarsen(parts, "node", g)
    assert cg.graph.edge_count == 1
    _, _, w = cg.graph.edge_array()
    assert w[0] == pytest.approx(0.3 + 0.4)
    assert cg.self_loop_weight[0] == pytest.approx(4.0)
    assert cg.self_loop_weight[1] == pytest.approx(0.6)


def test_single_partition_collapses_everything():
    g = from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
    g = g.with_node_values([2, 2, 2, 2, 2])
    cg = coarsen(PartitionMap(np.zeros(5, dtype=int), 1), "node", g)
    assert cg.graph.node_count == 1
    assert cg.graph.edge_count == 0
    assert cg.self_loop_weight[0] == pytest.approx(10.0)
    assert cg.graph.node_values[0] == 10


def test_mass_conservation_on_random_instances():
    rng = np.random.default_rng(30)
    for trial in range(50):
        n = int(rng.integers(3, 64))
        m = int(rng.integers(1, 3 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.05, 4.0, m))
        g = g.with_node_values(rng.integers(1, 9, n))
        k = int(rng.integers(1, n + 1))
        parts = PartitionMap(rng.integers(0, k, n), k)
        cg = coarsen(parts, "node", g)
        total = total_edge_weight(cg.graph) + cg.self_loop_weight.sum()
        assert total == pytest.approx(total_edge_weight(g), rel=1e-9)
        assert cg.graph.node_values.sum() == g.node_values.sum()
        by_edge = coarsen(parts, "edge", g)
        assert by_edge.graph.node_values.sum() == g.node_count


def test_coarsen_is_permutation_equivariant():
    g, parts = _appendix_style_graph()
    swapped = PartitionMap(1 - parts.assignment, 2)
    a = coarsen(parts, "node", g)
    b = coarsen(swapped, "node", g)
    assert a.graph.node_values.tolist() == b.graph.node_values.tolist()[::-1]
    assert a.self_loop_weight.tolist() == b.self_loop_weight.tolist()[::-1]
    _, _, wa = a.graph.edge_array()
    _, _, wb = b.graph.edge_array()
    assert wa.tolist() == wb.tolist()


def test_invalid_mode_and_mismatched_partition():
    g, parts = _appendix_style_graph()
    with pytest.raises(ValueError, match="mode"):
        coarsen(parts, "vertex", g)
    with pytest.raises(ValueError, match="cover"):
        coarsen(PartitionMap(np.array([0, 1]), 2), "node", g)


def test_coarse_graph_export_format():
    g, parts = _appendix_style_graph()
    cg = coarsen(parts, "node", g)
    edges_buf, values_buf = io.StringIO(), io.StringIO()
    write_coarse_graph(cg, edges_buf, values_buf)
    assert edges_buf.getvalue() == "0\t1\t0.7\n"
    lines = values_buf.getvalue().strip().split("\n")
    assert lines[0].split("\t") == ["0", "26", "4.0"]
    assert lines[1].split("\t") == ["1", "5", "0.6"]


@pytest.mark.parametrize("mode", ["edge", "node"])
def test_coarsen_memory_per_input_edge(mode):
    # 4000 random parts of 5 nodes leave about 98% of the edges between parts,
    # as LP leaves a sparse random graph: the merge keys, sorts and stores
    # nearly every input edge. The all-int64 merge of three arc-sized key,
    # order and target arrays peaked at 63 bytes per edge here, the one-buffer
    # merge with int32 targets at 42.
    rng = np.random.default_rng(5)
    n, m, k = 20000, 200000, 4000
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.1, 1.0, m))
    parts = PartitionMap(rng.integers(0, k, n), k)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        cg = coarsen(parts, mode, g)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert cg.graph.edge_count > 0.95 * g.edge_count
    assert peak < 52 * g.edge_count
