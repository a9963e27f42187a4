"""End-to-end partitioning pipeline plus subgraph sampling and coarse export.

The pipeline alternates label propagation with edge-mode coarsening for up to
``outer_t + 1`` levels, carrying each coarse node's original-graph mass. It
stops early, with a ``fallback`` warning, when the next coarse graph would
have fewer than k nodes or a node heavier than the per-part cap
``(1 + epsilon) * ceil(W / k)``; level 0 always qualifies. The balanced k-way
finisher splits the deepest qualifying graph, valued by original mass, and
its parts are composed back through the per-level maps onto the original nodes.
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
from lppart.graph import (GraphFormatError, IdMap, PartitionMap, WeightedGraph, _line_of_row,
                          _read_table, _read_text, _write_table, thread_count)
from lppart.kway import BisectConfig, InfeasibleError, kway_partition, per_part_cap
from lppart.labelprop import LpParams, multilevel_label_prop
from lppart.seeding import derive_seed

logger = logging.getLogger(__name__)

_PARTITION_COLUMNS = ("node id", "part id")


@dataclass(frozen=True)
class PartitionConfig:
    """Full pipeline configuration.

    ``outer_t`` is the inclusive bound of the propagate-then-coarsen loop:
    the pipeline builds at most ``outer_t + 1`` levels, mirroring the inner
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
    level_maps: list[PartitionMap]  # the maps the finisher's input was coarsened through
    final_coarse_parts: PartitionMap
    level_sizes: list[dict]
    timings_ms: dict[str, float]
    fallback_splits: int  # levels the stop rule skipped: outer_t + 1 - len(level_maps)
    warnings: list[str]


def partition_graph(g: WeightedGraph, cfg: PartitionConfig) -> PipelineResult:
    """Partition ``g`` into exactly ``cfg.k`` parts covering every node."""
    if g.node_count == 0:
        raise ValueError("cannot partition an empty graph")
    if cfg.k > g.node_count:
        raise InfeasibleError(f"k={cfg.k} exceeds node count {g.node_count}")

    cap = per_part_cap(g.node_values.sum(), cfg.k, cfg.bisect.epsilon)
    timings: dict[str, float] = {}
    level_sizes: list[dict] = []
    level_maps: list[PartitionMap] = []
    warnings: list[str] = []

    work = g
    mass = g.node_values  # original-node mass of each node of ``work``
    lp_s = coarsen_s = 0.0
    for level in range(cfg.outer_t + 1):
        lp = replace(cfg.lp, seed=derive_seed(cfg.lp.seed, "lp-level", level))
        t0 = time.perf_counter()
        lp_parts = multilevel_label_prop(work, lp)
        lp_s += time.perf_counter() - t0
        level_sizes.append({"nodes": work.node_count, "edges": work.edge_count,
                            "communities": lp_parts.num_parts})
        coarse_mass = np.bincount(lp_parts.assignment, weights=mass, minlength=lp_parts.num_parts)
        if lp_parts.num_parts < cfg.k or coarse_mass.max() > cap:
            warnings.append(f"fallback: level {level} found {lp_parts.num_parts} communities "
                            f"(k={cfg.k}), the heaviest of mass {int(coarse_mass.max())} "
                            f"(cap {cap:.1f}); k-way runs on the level-{level} graph")
            break
        t0 = time.perf_counter()
        work = coarsen(lp_parts, MODE_EDGE, work).graph
        coarsen_s += time.perf_counter() - t0
        mass = coarse_mass
        level_maps.append(lp_parts)
    timings["label_prop_ms"] = lp_s * 1000.0
    timings["coarsen_ms"] = coarsen_s * 1000.0

    t0 = time.perf_counter()
    final_coarse_parts = kway_partition(CoarseGraph.wrap(work.with_node_values(mass)),
                                        cfg.k, cfg.bisect)
    timings["kway_ms"] = (time.perf_counter() - t0) * 1000.0
    final = final_coarse_parts.assignment
    for pm in reversed(level_maps):
        final = final[pm.assignment]

    parts = PartitionMap(final, cfg.k)
    part_mass = np.bincount(final, weights=g.node_values, minlength=cfg.k)
    sizes = parts.part_sizes()
    flagged_parts = ((part_mass, part_mass > cap, f"exceed the per-part mass cap {cap:.1f}"),
                     (sizes, sizes < cfg.min_subgraph_warn,
                      f"have fewer than {cfg.min_subgraph_warn} nodes"))
    for values, flagged, what in flagged_parts:
        pids = np.flatnonzero(flagged)
        if len(pids):
            listed = ", ".join(f"part {int(pid)} ({int(values[pid])})" for pid in pids)
            warnings.append(f"{len(pids)} part(s) {what}: {listed}")
    for msg in warnings:
        logger.warning("%s", msg)

    return PipelineResult(parts, level_maps, final_coarse_parts, level_sizes, timings,
                          cfg.outer_t + 1 - len(level_maps), warnings)


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
    _write_table(dest, (id_map.external_ids, parts.assignment))


def read_partition_file(source: str | Path | IO, id_map: IdMap) -> PartitionMap:
    """Read a partition file; every graph node must be assigned."""
    text = _read_text(source)
    rows, _ = _read_table(source, text, _PARTITION_COLUMNS)
    index = id_map.lookup(rows[:, 0])
    unknown = np.flatnonzero(index < 0)
    if len(unknown):
        raise GraphFormatError(f"line {_line_of_row(text, unknown[0])}: "
                               f"unknown node id {rows[unknown[0], 0]}")
    # a repeated id keeps its last part
    assigned, last = np.unique(index[::-1], return_index=True)
    if len(assigned) < len(id_map):
        missing = len(id_map) - len(assigned)
        raise GraphFormatError(f"partition file is not total: {missing} node(s) unassigned")
    assign = rows[::-1, 1][last]
    return PartitionMap(assign, int(assign.max()) + 1)


def manifest_dict(cfg: PartitionConfig, result: PipelineResult) -> dict:
    """Assemble the JSON-ready run manifest; ``threads`` is the ``thread_count()`` in effect."""
    return {
        "config": {
            "k": cfg.k,
            "p_ratio": cfg.lp.p_ratio,
            "p_bound": cfg.lp.p_bound,
            "t_iterations": cfg.lp.t_iterations,
            "outer_t": cfg.outer_t,
            "epsilon": cfg.bisect.epsilon,
            "seed": cfg.lp.seed,
            "bisect_seed": cfg.bisect.seed,
            "min_subgraph_warn": cfg.min_subgraph_warn,
        },
        "threads": thread_count(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "levels": result.level_sizes,
        "timings_ms": result.timings_ms,
        "fallback_splits": result.fallback_splits,
        "warnings": result.warnings,
    }


def write_manifest(path: str | Path, cfg: PartitionConfig, result: PipelineResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest_dict(cfg, result), fh, indent=2)
        fh.write("\n")
