"""End-to-end partitioning pipeline plus subgraph sampling and coarse export.

The pipeline alternates label propagation with edge-mode coarsening for a
fixed number of levels, coarsens the last level in node mode instead so that
every coarse node carries its original-graph mass, hands the small coarse
graph to the balanced k-way finisher, and composes the per-level maps back
onto the original nodes. When propagation finds fewer communities than
requested parts, the largest parts are split in place on their induced
original subgraphs until exactly k parts exist.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import IO

import numpy as np

from lppart.coarsen import CoarseGraph, MODE_EDGE, MODE_NODE, coarsen
from lppart.graph import (IdMap, PartitionMap, WeightedGraph, _read_text, _write_lines,
                          induced_subgraph)
from lppart.kway import BisectConfig, InfeasibleError, kway_partition
from lppart.labelprop import LpParams, multilevel_label_prop
from lppart.seeding import derive_seed

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PartitionConfig:
    """Full pipeline configuration.

    ``outer_t`` is the inclusive bound of the propagate-then-coarsen loop:
    the pipeline builds ``outer_t + 1`` levels, mirroring the inner
    propagation loop's bound semantics.
    """

    k: int
    lp: LpParams = field(default_factory=LpParams)
    outer_t: int = 2
    bisect: BisectConfig = field(default_factory=BisectConfig)
    min_subgraph_warn: int = 30000

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.outer_t < 1:
            raise ValueError("outer_t must be >= 1")


@dataclass
class PipelineResult:
    """Final assignment plus everything the run manifest records."""

    parts: PartitionMap
    level_maps: list[PartitionMap]
    final_coarse_parts: PartitionMap | None
    level_sizes: list[dict]
    timings_ms: dict[str, float]
    fallback_splits: int
    warnings: list[str]


def partition_graph(g: WeightedGraph, cfg: PartitionConfig) -> PipelineResult:
    """Partition ``g`` into exactly ``cfg.k`` parts covering every node."""
    if g.node_count == 0:
        raise ValueError("cannot partition an empty graph")
    if cfg.k > g.node_count:
        raise InfeasibleError(f"k={cfg.k} exceeds node count {g.node_count}")

    timings: dict[str, float] = {}
    level_sizes: list[dict] = []
    level_maps: list[PartitionMap] = []
    warnings: list[str] = []

    work = g
    lp_s = coarsen_s = 0.0
    for level in range(cfg.outer_t + 1):
        lp = replace(cfg.lp, seed=derive_seed(cfg.lp.seed, "lp-level", level))
        t0 = time.perf_counter()
        parts_last = multilevel_label_prop(work, lp)
        lp_s += time.perf_counter() - t0
        level_maps.append(parts_last)
        level_sizes.append({"nodes": work.node_count, "edges": work.edge_count,
                            "communities": parts_last.num_parts})
        t0 = time.perf_counter()
        if level < cfg.outer_t:
            work = coarsen(parts_last, MODE_EDGE, work).graph
        else:
            cg_node = coarsen(parts_last, MODE_NODE, work)
        coarsen_s += time.perf_counter() - t0
    timings["label_prop_ms"] = lp_s * 1000.0
    timings["coarsen_ms"] = coarsen_s * 1000.0

    composed = level_maps[0].assignment
    for pm in level_maps[1:]:
        composed = pm.assignment[composed]

    m_final = parts_last.num_parts
    fallback_splits = 0
    final_coarse_parts: PartitionMap | None = None
    t0 = time.perf_counter()
    if m_final >= cfg.k:
        final_coarse_parts = kway_partition(cg_node, cfg.k, cfg.bisect)
        final = final_coarse_parts.assignment[composed]
    else:
        logger.warning("propagation found %d communities < k=%d; splitting largest parts",
                       m_final, cfg.k)
        warnings.append(f"community count {m_final} < k={cfg.k}: fallback splitting engaged")
        final = composed.copy()
        num = m_final
        while num < cfg.k:
            sizes = np.bincount(final, minlength=num)
            order = np.lexsort((np.arange(num), -sizes))
            pid = next(int(p) for p in order if sizes[p] >= 2)
            nodes = np.flatnonzero(final == pid)
            sub, _ = induced_subgraph(g, nodes)
            sub = sub.with_node_values(np.ones(sub.node_count, dtype=np.int64))
            split_cfg = replace(cfg.bisect, seed=derive_seed(cfg.bisect.seed, "fallback", num))
            halves = kway_partition(CoarseGraph.wrap(sub), 2, split_cfg)
            final[nodes[halves.assignment == 1]] = num
            num += 1
            fallback_splits += 1
    timings["kway_ms"] = (time.perf_counter() - t0) * 1000.0

    parts = PartitionMap(final, cfg.k)
    sizes = parts.part_sizes()
    small = np.flatnonzero(sizes < cfg.min_subgraph_warn)
    if len(small):
        listed = ", ".join(f"part {int(pid)} ({int(sizes[pid])})" for pid in small)
        msg = f"{len(small)} part(s) have fewer than {cfg.min_subgraph_warn} nodes: {listed}"
        warnings.append(msg)
        logger.warning("%s", msg)

    return PipelineResult(parts, level_maps, final_coarse_parts, level_sizes,
                          timings, fallback_splits, warnings)


def sample_subgraphs(parts: PartitionMap, ratio: float, seed: int) -> np.ndarray:
    """Uniformly sample ``ceil(ratio * K)`` distinct part ids without replacement."""
    if not (0.0 < ratio <= 1.0):
        raise ValueError("ratio must lie in (0, 1]")
    k = parts.num_parts
    size = math.ceil(ratio * k)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(k, size=size, replace=False))


def export_coarse(g: WeightedGraph, parts: PartitionMap) -> CoarseGraph:
    """Node-mode coarse graph of ``parts`` over ``g`` for downstream embedding."""
    return coarsen(parts, MODE_NODE, g)


def write_partition_file(parts: PartitionMap, id_map: IdMap, dest: str | Path | IO) -> None:
    """Write ``external_node_id<TAB>part_id`` lines in internal node order."""
    ext = id_map.external_ids
    _write_lines(dest, [f"{ext[i]}\t{parts.assignment[i]}\n" for i in range(len(parts))])


def _read_partition_pairs(source: str | Path | IO):
    """Yield ``(external_id, part_id)`` for each data line of a partition file."""
    for lineno, raw in enumerate(_read_text(source).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'node_id<TAB>part_id'")
        try:
            pair = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: ids must be integers") from None
        yield pair


def read_partition_file(source: str | Path | IO, id_map: IdMap) -> PartitionMap:
    """Read a partition file; every graph node must be assigned."""
    assign = np.full(len(id_map), -1, dtype=np.int64)
    for ext, part in _read_partition_pairs(source):
        assign[id_map.to_internal(ext)] = part
    if (assign < 0).any():
        missing = int((assign < 0).sum())
        raise ValueError(f"partition file is not total: {missing} node(s) unassigned")
    return PartitionMap(assign, int(assign.max()) + 1)


def manifest_dict(cfg: PartitionConfig, result: PipelineResult,
                  threads: int | None = None) -> dict:
    """Assemble the JSON-ready run manifest."""
    return {
        "config": {
            "k": cfg.k,
            "p_ratio": cfg.lp.p_ratio,
            "p_bound": cfg.lp.p_bound,
            "t_iterations": cfg.lp.t_iterations,
            "outer_t": cfg.outer_t,
            "epsilon": cfg.bisect.epsilon,
            "seed": cfg.lp.seed,
            "min_subgraph_warn": cfg.min_subgraph_warn,
        },
        "threads": threads,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "levels": result.level_sizes,
        "timings_ms": result.timings_ms,
        "fallback_splits": result.fallback_splits,
        "warnings": result.warnings,
    }


def write_manifest(path: str | Path, cfg: PartitionConfig, result: PipelineResult,
                   threads: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest_dict(cfg, result, threads), fh, indent=2)
        fh.write("\n")
