"""Subgraph augmentation plumbing: PageRank pruning and feature aggregation.

PageRank here deliberately ignores edge weights (scores divide by plain
out-degree); it ranks structural influence, and the lowest-ranked slice of
nodes is dropped before a subgraph is handed to downstream training. Feature
helpers build the per-partition global feature table and concatenate it back
onto per-node features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from lppart.graph import (GraphFormatError, IdMap, PartitionMap, WeightedGraph,
                          _comment_lines, _data_lines, _line_of_row, _merge_edges,
                          _read_table, _read_text, _write_table, induced_subgraph)


# PageRank stops once a round moves the scores by less than this in L1, or after _PAGERANK_ROUNDS
_PAGERANK_TOL = 1e-10
_PAGERANK_ROUNDS = 200


@dataclass(frozen=True)
class PagerankParams:
    alpha: float = 0.85

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")


@dataclass
class FeatureTable:
    """Dense per-row feature matrix of fixed dimension."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ValueError("feature rows must form a 2-d matrix")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("feature values must be finite")

    @property
    def dimension(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]


def pagerank(g: WeightedGraph, params: PagerankParams = PagerankParams()) -> np.ndarray:
    """Power-iteration PageRank with uniform teleport; scores sum to 1.

    Mass on isolated nodes is redistributed uniformly. Iteration stops once
    the L1 residual drops below ``_PAGERANK_TOL`` or after
    ``_PAGERANK_ROUNDS`` rounds.
    """
    n = g.node_count
    if n == 0:
        raise ValueError("pagerank of an empty graph is undefined")
    deg = g.degrees
    # intp once: gathering by, or counting, int32 indices converts them on every round
    src = g.arc_sources().astype(np.intp)
    dst = g.neighbor_targets.astype(np.intp)
    dangling = deg == 0
    divisor = np.where(dangling, 1, deg)  # a dangling node sends along no arc
    alpha = params.alpha
    pr = np.full(n, 1.0 / n)
    for _ in range(_PAGERANK_ROUNDS):
        # one division per node: each arc reads the same quotient pr[src] / deg[src]
        share = np.bincount(dst, weights=(pr / divisor)[src], minlength=n)
        loose = pr[dangling].sum()
        nxt = (1.0 - alpha) / n + alpha * (share + loose / n)
        if np.abs(nxt - pr).sum() < _PAGERANK_TOL:
            pr = nxt
            break
        pr = nxt
    return pr


def lowest_pagerank_nodes(g: WeightedGraph, fraction: float,
                          params: PagerankParams = PagerankParams()) -> np.ndarray:
    """Indices of the ``ceil(fraction * |V|)`` lowest-scoring nodes.

    Ordering is a stable ascending sort on (score, index), so equal scores
    are resolved by index.
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError("fraction must lie in [0, 1)")
    count = math.ceil(fraction * g.node_count)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    scores = pagerank(g, params)
    order = np.argsort(scores, kind="stable")
    return np.sort(order[:count])


def refine_structure(g: WeightedGraph, fraction: float = 0.05, mode: str = "nodes",
                     params: PagerankParams = PagerankParams()) -> tuple[WeightedGraph, IdMap]:
    """Drop the least influential slice of the graph.

    ``nodes`` mode removes the lowest-PageRank ``ceil(fraction * |V|)`` nodes
    with their incident edges; ``edges`` mode removes the
    ``ceil(fraction * |E|)`` lightest edges (ties by endpoint pair order).
    Returns the refined graph plus an IdMap from its indices to ``g``'s
    (the identity in ``edges`` mode, which keeps every node).
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError("fraction must lie in [0, 1)")
    if mode == "nodes":
        doomed = lowest_pagerank_nodes(g, fraction, params)
        keep = np.setdiff1d(np.arange(g.node_count, dtype=np.int64), doomed)
        return induced_subgraph(g, keep)
    if mode != "edges":
        raise ValueError(f"mode must be 'nodes' or 'edges', got {mode!r}")
    u, v, w = g.edge_array()
    count = math.ceil(fraction * len(u))
    if count:
        keep = np.sort(np.lexsort((v, u, w))[count:])
        # the kept pairs are unique and in key order, so the merge skips its pair sort
        g = _merge_edges(g.node_count, [u[keep], v[keep], w[keep]], node_values=g.node_values)
    return g, IdMap.identity(g.node_count)


def aggregate_features(parts: PartitionMap, feats: FeatureTable,
                       op: str = "mean") -> FeatureTable:
    """Aggregate member rows into one row per part (mean by default)."""
    if len(feats) != len(parts):
        raise ValueError("feature table does not cover the partition map")
    if op not in ("mean", "sum"):
        raise ValueError(f"op must be 'mean' or 'sum', got {op!r}")
    k = parts.num_parts
    out = np.zeros((k, feats.dimension))
    np.add.at(out, parts.assignment, feats.rows)
    if op == "mean":
        sizes = parts.part_sizes().astype(np.float64)
        sizes[sizes == 0] = 1.0
        out /= sizes[:, None]
    return FeatureTable(out)


def concat_global(feats: FeatureTable, global_feats: FeatureTable, parts: PartitionMap,
                  global_ids: np.ndarray | None = None) -> FeatureTable:
    """Append to each node's feature row the global row of its part.

    ``global_ids[r]`` is the part id of global row ``r``, by default ``r``.
    A part that holds a node but has no global row is a ``GraphFormatError``.
    """
    if len(feats) != len(parts):
        raise ValueError("feature table does not cover the partition map")
    ids = np.arange(len(global_feats)) if global_ids is None else global_ids
    rows = IdMap(ids).lookup(parts.assignment)
    if (rows < 0).any():
        missing = parts.assignment[rows < 0].min()
        raise GraphFormatError(f"global feature table has no row for part {missing}")
    return FeatureTable(np.concatenate([feats.rows, global_feats.rows[rows]], axis=1))


def write_feature_table(table: FeatureTable, dest: str | Path | IO,
                        ids: np.ndarray | None = None) -> None:
    """Write ``id<TAB>f1...<TAB>fF`` rows under a ``#dim F`` header."""
    ids = np.arange(len(table)) if ids is None else np.asarray(ids)
    _write_table(dest, (ids,), table.rows, header=f"#dim {table.dimension}\n")


def read_feature_table(source: str | Path | IO) -> tuple[FeatureTable, np.ndarray]:
    """Read a feature TSV; returns the table plus the id column.

    The row width comes from the ``#dim F`` header or, without one, from the
    first row; a row of any other width and an id that repeats are errors
    naming their line.
    """
    text = _read_text(source)
    first = next(_data_lines(text), None)
    if first is None:
        raise GraphFormatError("empty feature table")
    dim = first[1].count("\t")  # unless a header before the first row sets it
    for lineno, line in _comment_lines(text):
        fields = line[1:].split()
        if len(fields) == 2 and fields[0] == "dim":
            if not fields[1].isdecimal() or (lineno > first[0] and int(fields[1]) != dim):
                raise GraphFormatError(f"line {lineno}: malformed '#dim' header")
            dim = int(fields[1])
    ids, rows = _read_table(source, text, ("node id",), ("feature value",) * dim)
    ids = ids[:, 0]
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if len(repeats):
        row = repeats.min()
        raise GraphFormatError(f"line {_line_of_row(text, row)}: repeated node id {ids[row]}")
    return FeatureTable(rows), ids
