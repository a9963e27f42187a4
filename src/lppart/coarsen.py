"""Contract a partition into a coarse graph under "edge" or "node" semantics.

Both modes aggregate edge weights the same way: the weight between two coarse
nodes is the summed weight of all edges joining the two partitions, and
intra-partition edge mass is kept as a per-coarse-node self-loop weight so
that total edge mass is conserved exactly. The modes differ only in the value
attached to each coarse node: "edge" counts the nodes of the input graph in
the partition (one level back), "node" sums their node values, which are
original-graph mass only if the input graph's values carry it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from lppart.graph import (IdMap, PartitionMap, WeightedGraph, _merge_edges, _write_table,
                          write_edge_list)

MODE_EDGE = "edge"
MODE_NODE = "node"


@dataclass
class CoarseGraph:
    """A coarse graph plus per-node self-loop mass."""

    graph: WeightedGraph
    self_loop_weight: np.ndarray

    @classmethod
    def wrap(cls, g: WeightedGraph) -> "CoarseGraph":
        """View a plain graph as a coarse graph with no self-loop mass."""
        return cls(g, np.zeros(g.node_count, dtype=np.float64))


def coarsen(parts: PartitionMap, mode: str, g: WeightedGraph) -> CoarseGraph:
    """Contract each partition of ``g`` into one coarse node."""
    if mode not in (MODE_EDGE, MODE_NODE):
        raise ValueError(f"mode must be '{MODE_EDGE}' or '{MODE_NODE}', got {mode!r}")
    assign = parts.assignment
    if assign.shape != (g.node_count,):
        raise ValueError("partition map does not cover the graph")
    m = parts.num_parts

    if mode == MODE_EDGE:
        values = np.bincount(assign, minlength=m)
    else:
        values = np.bincount(assign, weights=g.node_values.astype(np.float64),
                             minlength=m).astype(np.int64)

    u, v, w = g.edge_array()
    pu = assign[u]
    pv = assign[v]
    del u, v
    intra = pu == pv
    # float64 even with no intra-part edge, where bincount would return int64
    self_loop = np.bincount(pu[intra], weights=w[intra], minlength=m).astype(np.float64)
    # only ``edges`` holds the three arrays, so the merge frees them before its
    # CSR build, which sets coarsen's peak memory
    edges = [pu, pv, w]
    del intra, pu, pv, w
    # intra-part pairs become self-loops, which the merge drops
    return CoarseGraph(_merge_edges(m, edges, node_values=values), self_loop)


def write_coarse_graph(cg: CoarseGraph, edges_dest: str | Path | IO,
                       values_dest: str | Path | IO, ids: np.ndarray | None = None) -> None:
    """Write the coarse edge list plus a ``id<TAB>value<TAB>self_loop`` table.

    ``ids[i]`` is the id written for coarse node ``i``, by default ``i``.
    """
    values = cg.graph.node_values
    ids = np.arange(len(values)) if ids is None else ids
    write_edge_list(cg.graph, edges_dest, IdMap(ids))
    _write_table(values_dest, (ids, values), cg.self_loop_weight)
