"""Reference checks the tests share: the CSR invariants of a graph, one node's neighbours
and their weights, a graph's total edge weight and one round of plain frequency voting."""

import numpy as np

from lppart.graph import WeightedGraph


def neighbors(g: WeightedGraph, i: int) -> np.ndarray:
    """The targets of node ``i``'s arcs, in stored order."""
    return g.neighbor_targets[g.neighbor_offsets[i]:g.neighbor_offsets[i + 1]]


def neighbor_weights(g: WeightedGraph, i: int) -> np.ndarray:
    """The weights of node ``i``'s arcs, in stored order."""
    return g.edge_weights[g.neighbor_offsets[i]:g.neighbor_offsets[i + 1]]


def total_edge_weight(g: WeightedGraph) -> float:
    """Summed weight of the undirected edges (each is stored as two arcs)."""
    return float(g.edge_weights.sum()) / 2.0


def plain_vote(g: WeightedGraph, labels: np.ndarray) -> np.ndarray:
    """One synchronous round of plain frequency voting, in a new array.

    Each node takes the label most frequent among its neighbours, ties to the
    smallest label; weights and node values are ignored, and isolated nodes
    keep their label.
    """
    new = labels.copy()
    for i in range(g.node_count):
        labs, counts = np.unique(labels[neighbors(g, i)], return_counts=True)
        if len(labs):
            new[i] = labs[np.argmax(counts)]  # the first maximum: the smallest label
    return new


def validate_graph(g: WeightedGraph) -> None:
    """Check structural invariants; raises ValueError on the first violation."""
    off = g.neighbor_offsets
    if off.shape != (g.node_count + 1,) or off[0] != 0:
        raise ValueError("neighbor_offsets has wrong shape or start")
    if np.any(np.diff(off) < 0):
        raise ValueError("neighbor_offsets is not non-decreasing")
    if off[-1] != g.arc_count:
        raise ValueError("last offset does not equal arc count")
    if g.neighbor_targets.dtype != np.int32:
        raise ValueError(f"neighbor_targets is {g.neighbor_targets.dtype}, not int32")
    if len(g.edge_weights) != g.arc_count:
        raise ValueError("edge_weights length mismatch")
    if g.node_values.shape != (g.node_count,):
        raise ValueError("node_values length mismatch")
    if g.node_count and len(g.node_values) and g.node_values.min() < 1:
        raise ValueError("node values must be >= 1")
    if g.arc_count == 0:
        return
    src = g.arc_sources()
    dst = g.neighbor_targets
    if dst.min() < 0 or dst.max() >= g.node_count:
        raise ValueError("neighbor target out of range")
    if np.any(src == dst):
        raise ValueError("self-loop arc stored in adjacency")
    if not np.all(np.isfinite(g.edge_weights)) or g.edge_weights.min() <= 0:
        raise ValueError("edge weights must be finite and positive")
    fwd = np.lexsort((dst, src))
    rev = np.lexsort((src, dst))
    if (not np.array_equal(src[fwd], dst[rev])
            or not np.array_equal(dst[fwd], src[rev])
            or not np.array_equal(g.edge_weights[fwd], g.edge_weights[rev])):
        raise ValueError("adjacency is not symmetric with identical weights")
    dup = (src[fwd][1:] == src[fwd][:-1]) & (dst[fwd][1:] == dst[fwd][:-1])
    if dup.any():
        raise ValueError("duplicate arcs stored in adjacency")
