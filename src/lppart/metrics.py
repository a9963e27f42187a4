"""Partition quality metrics.

Edge-cut and balance are unweighted edge counts: cut edges belong to no part,
so the maximum load counts intra-partition edges only (this makes balance
collapse toward zero as the cut ratio approaches one, which is the intended
reading). The size deviation uses the sample convention with divisor k - 1
around the ideal mean |V| / k.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from lppart.graph import PartitionMap, WeightedGraph

logger = logging.getLogger(__name__)


@dataclass
class PartitionReport:
    edge_cut_ratio: float
    bal: float
    std: float
    per_part_nodes: list[int]
    per_part_intra_edges: list[int]
    wall_times_ms: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _cross_mask(g: WeightedGraph, parts: PartitionMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u, v, _ = g.edge_array()
    return u, v, parts.assignment[u] != parts.assignment[v]


def edge_cut(g: WeightedGraph, parts: PartitionMap) -> float:
    """Fraction of undirected edges with endpoints in different parts."""
    if g.edge_count == 0:
        logger.warning("edge_cut of an edgeless graph defined as 0")
        return 0.0
    _, _, cross = _cross_mask(g, parts)
    return float(cross.sum()) / g.edge_count


def intra_edge_counts(g: WeightedGraph, parts: PartitionMap, k: int) -> np.ndarray:
    """Number of intra-partition edges per part."""
    u, _, cross = _cross_mask(g, parts)
    return np.bincount(parts.assignment[u][~cross], minlength=k)


def balance(g: WeightedGraph, parts: PartitionMap, k: int) -> float:
    """Max per-part intra-edge count over the ideal average load |E| / k."""
    if g.edge_count == 0:
        raise ValueError("balance is undefined for an edgeless graph")
    max_load = int(intra_edge_counts(g, parts, k).max())
    return max_load / (g.edge_count / k)


def std_dev(parts: PartitionMap, k: int) -> float:
    """Sample-style deviation of part node counts around |V| / k."""
    if k < 2:
        raise ValueError("std_dev needs k >= 2")
    counts = np.bincount(parts.assignment, minlength=k).astype(np.float64)
    mu = len(parts.assignment) / k
    return float(np.sqrt(np.square(counts - mu).sum() / (k - 1)))


def build_report(g: WeightedGraph, parts: PartitionMap, k: int) -> PartitionReport:
    """Quality of ``parts`` on ``g``; ``wall_times_ms`` starts empty for the caller to fill."""
    nodes = np.bincount(parts.assignment, minlength=k)
    intra = intra_edge_counts(g, parts, k)
    bal = balance(g, parts, k) if g.edge_count else 0.0
    std = std_dev(parts, k) if k >= 2 else 0.0
    return PartitionReport(
        edge_cut_ratio=edge_cut(g, parts),
        bal=bal,
        std=std,
        per_part_nodes=[int(x) for x in nodes],
        per_part_intra_edges=[int(x) for x in intra],
    )

