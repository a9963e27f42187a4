"""Balanced k-way partitioning of small graphs by multilevel recursive bisection.

Used as the finishing stage on coarse graphs: each bisection coarsens by
heavy-edge matching, seeds an initial split by greedy region growing from a
peripheral node (packing whole connected components where possible), then
projects back level by level applying boundary moves that strictly reduce cut
weight while respecting a per-side node-value cap. Self-loop mass on coarse
nodes is ignored; balance is measured on node values.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass

import numpy as np

from lppart.coarsen import MODE_NODE, CoarseGraph, coarsen
from lppart.graph import PartitionMap, WeightedGraph, induced_subgraph
from lppart.seeding import derive_seed

logger = logging.getLogger(__name__)

_COARSEST_NODES = 48


class InfeasibleError(ValueError):
    """A structurally impossible request, e.g. more parts than nodes."""


@dataclass(frozen=True)
class BisectConfig:
    """Knobs for the recursive bisection stage."""

    epsilon: float = 0.1
    seed: int = 42
    max_coarsen_levels: int = 20
    refine_passes: int = 4

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.max_coarsen_levels < 1 or self.refine_passes < 1:
            raise ValueError("level and pass counts must be >= 1")


def heavy_edge_matching(g: WeightedGraph, seed: int) -> np.ndarray:
    """Greedy matching: visit nodes in seeded random order, pair each
    unmatched node with its heaviest-edge unmatched neighbor (ties to the
    smallest neighbor index). Returns an (m, 2) array of matched pairs;
    unmatched nodes stay singletons.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(g.node_count)
    matched = np.zeros(g.node_count, dtype=bool)
    off = g.neighbor_offsets
    tgt = g.neighbor_targets
    wts = g.edge_weights
    pairs: list[tuple[int, int]] = []
    for u in order:
        if matched[u]:
            continue
        nbrs = tgt[off[u]:off[u + 1]]
        if len(nbrs) == 0:
            continue
        free = ~matched[nbrs]
        if not free.any():
            continue
        cand = nbrs[free]
        cw = wts[off[u]:off[u + 1]][free]
        v = int(cand[cw == cw.max()].min())
        matched[u] = matched[v] = True
        pairs.append((int(u), v))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def _contract(g: WeightedGraph, pairs: np.ndarray) -> tuple[WeightedGraph, np.ndarray]:
    """Merge matched pairs into supernodes; returns (coarse graph, fine->coarse map)."""
    rep = np.arange(g.node_count, dtype=np.int64)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    rep[hi] = lo
    uniq, fmap = np.unique(rep, return_inverse=True)
    return coarsen(PartitionMap(fmap, len(uniq)), MODE_NODE, g).graph, fmap


def cut_weight(g: WeightedGraph, side: np.ndarray) -> float:
    """Total weight of edges whose endpoints fall on different sides."""
    u, v, w = g.edge_array()
    return float(w[side[u] != side[v]].sum())


def _bfs_farthest(g: WeightedGraph, start: int) -> int:
    """Farthest node from ``start`` within its component (ties to smallest index)."""
    dist = np.full(g.node_count, -1, dtype=np.int64)
    dist[start] = 0
    frontier = np.asarray([start], dtype=np.int64)
    last = frontier
    while len(frontier):
        nxt = []
        for u in frontier:
            nbrs = g.neighbors(u)
            new = nbrs[dist[nbrs] < 0]
            if len(new):
                dist[new] = dist[u] + 1
                nxt.append(new)
        last = frontier
        frontier = np.unique(np.concatenate(nxt)) if nxt else np.empty(0, dtype=np.int64)
    return int(last.min())


def _components(g: WeightedGraph) -> tuple[np.ndarray, int]:
    comp = np.full(g.node_count, -1, dtype=np.int64)
    count = 0
    for s in range(g.node_count):
        if comp[s] >= 0:
            continue
        comp[s] = count
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if comp[v] < 0:
                    comp[v] = count
                    stack.append(int(v))
        count += 1
    return comp, count


def _initial_side(g: WeightedGraph, target0: float, caps: tuple[float, float],
                  floors: tuple[int, int], seed: int) -> np.ndarray:
    """Assign whole connected components to side 0 greedily (largest value
    first) up to the value target, then, if a gap remains that neither side's
    cap already tolerates, fill it by region growing from a seeded peripheral
    node inside the largest remaining component.
    """
    n = g.node_count
    vals = g.node_values
    total = float(vals.sum())
    side = np.ones(n, dtype=np.int8)
    comp, ncomp = _components(g)
    comp_val = np.bincount(comp, weights=vals.astype(np.float64), minlength=ncomp)
    comp_cnt = np.bincount(comp, minlength=ncomp)
    load0 = 0.0
    assigned = 0
    packed = np.zeros(ncomp, dtype=bool)
    for c in np.lexsort((np.arange(ncomp), -comp_val)):
        if load0 >= target0:
            break
        if load0 + comp_val[c] > target0 + 1e-9:
            continue
        if assigned + comp_cnt[c] > n - floors[1]:
            continue
        side[comp == c] = 0
        load0 += float(comp_val[c])
        assigned += int(comp_cnt[c])
        packed[c] = True

    balanced_already = (assigned >= floors[0]
                        and load0 <= caps[0] and (total - load0) <= caps[1]
                        and 0 < assigned <= n - floors[1])
    if balanced_already:
        return side

    # grow into the largest unpacked component from one of its peripheral nodes
    rng = np.random.default_rng(seed)
    pending = np.flatnonzero(~packed)
    heap: list[tuple[float, int]] = []
    conn = np.zeros(n, dtype=np.float64)
    if len(pending):
        c = pending[np.lexsort((pending, -comp_val[pending]))[0]]
        members = np.flatnonzero(comp == c)
        start = _bfs_farthest(g, int(members[rng.integers(len(members))]))
        heapq.heappush(heap, (0.0, start))
    while (load0 < target0 and assigned < n - floors[1]) or assigned < floors[0]:
        u = -1
        while heap:
            negc, cand = heapq.heappop(heap)
            if side[cand] == 0 or -negc != conn[cand]:
                continue  # already taken or stale lazy-heap entry
            u = cand
            break
        if u < 0:
            if assigned >= n - floors[1]:
                break
            rest = np.flatnonzero(side == 1)
            u = int(rest[np.lexsort((rest, -vals[rest]))[0]])
        side[u] = 0
        load0 += float(vals[u])
        assigned += 1
        for nb, ww in zip(g.neighbors(u), g.neighbor_weights(u)):
            if side[nb] == 1:
                conn[nb] += ww
                heapq.heappush(heap, (-conn[nb], int(nb)))
    return side


def _node_gain(g: WeightedGraph, side: np.ndarray, u: int) -> float:
    nbrs = g.neighbors(u)
    ws = g.neighbor_weights(u)
    ext = ws[side[nbrs] != side[u]].sum()
    return float(ext - (ws.sum() - ext))


def _balance_fix(g: WeightedGraph, side: np.ndarray, caps: tuple[float, float],
                 floors: tuple[int, int], loads: list[float], counts: list[int]) -> bool:
    """Move nodes off an over-cap side, preferring cheapest cut damage.

    Returns False (and logs the achieved ratio) when no legal move remains.
    """
    vals = g.node_values
    while True:
        if loads[0] > caps[0]:
            s = 0
        elif loads[1] > caps[1]:
            s = 1
        else:
            return True
        t = 1 - s
        if counts[s] - 1 < floors[s]:
            break
        movers = np.flatnonzero(side == s)
        movers = movers[loads[t] + vals[movers] <= caps[t]]
        if len(movers) == 0:
            break
        gains = np.array([_node_gain(g, side, int(u)) for u in movers])
        u = int(movers[np.lexsort((movers, -gains))[0]])
        side[u] = t
        loads[s] -= float(vals[u])
        loads[t] += float(vals[u])
        counts[s] -= 1
        counts[t] += 1
    achieved = max(loads[0] / caps[0] if caps[0] else 0.0,
                   loads[1] / caps[1] if caps[1] else 0.0)
    logger.warning("bisection balance infeasible: achieved %.3f of the allowed cap", achieved)
    return False


def _refine_pass(g: WeightedGraph, side: np.ndarray, caps: tuple[float, float],
                 floors: tuple[int, int], loads: list[float], counts: list[int]) -> int:
    """One boundary sweep applying strictly cut-reducing moves; returns move count."""
    if g.arc_count == 0:
        return 0
    src = g.arc_sources()
    dst = g.neighbor_targets
    w = g.edge_weights
    cross = side[src] != side[dst]
    if not cross.any():
        return 0
    ext = np.bincount(src, weights=w * cross, minlength=g.node_count)
    allw = np.bincount(src, weights=w, minlength=g.node_count)
    gain = 2.0 * ext - allw
    boundary = np.unique(src[cross])
    boundary = boundary[np.lexsort((boundary, -gain[boundary]))]
    vals = g.node_values
    moved = 0
    for u in boundary:
        u = int(u)
        s = int(side[u])
        t = 1 - s
        if counts[s] - 1 < floors[s]:
            continue
        if loads[t] + vals[u] > caps[t]:
            continue
        fresh = _node_gain(g, side, u)
        if fresh <= 0:
            continue
        side[u] = t
        loads[s] -= float(vals[u])
        loads[t] += float(vals[u])
        counts[s] -= 1
        counts[t] += 1
        moved += 1
    return moved


def _fix_and_refine(g: WeightedGraph, side: np.ndarray, caps: tuple[float, float],
                    floors: tuple[int, int], passes: int) -> None:
    vals = g.node_values.astype(np.float64)
    loads = [float(vals[side == 0].sum()), float(vals[side == 1].sum())]
    counts = [int((side == 0).sum()), int((side == 1).sum())]
    _balance_fix(g, side, caps, floors, loads, counts)
    for _ in range(passes):
        if _refine_pass(g, side, caps, floors, loads, counts) == 0:
            break


def _bisect(g: WeightedGraph, k1: int, k2: int, cfg: BisectConfig, seed: int) -> np.ndarray:
    """Split ``g`` into two sides sized for k1 and k2 further parts."""
    k = k1 + k2
    total = int(g.node_values.sum())
    target0 = total * (k1 / k)
    caps = ((1.0 + cfg.epsilon) * math.ceil(total * k1 / k),
            (1.0 + cfg.epsilon) * math.ceil(total * k2 / k))
    floors = (k1, k2)

    graphs = [g]
    maps: list[np.ndarray] = []
    cur = g
    stop = max(_COARSEST_NODES, 2 * k)
    for lvl in range(cfg.max_coarsen_levels):
        if cur.node_count <= stop:
            break
        pairs = heavy_edge_matching(cur, derive_seed(seed, "match", lvl))
        if len(pairs) < max(1, cur.node_count // 20):
            break
        cur, fmap = _contract(cur, pairs)
        graphs.append(cur)
        maps.append(fmap)

    # several seeded growths at the coarsest level; keep the cheapest cut
    side = None
    best_cut = math.inf
    for attempt in range(4):
        cand = _initial_side(cur, target0, caps, floors, derive_seed(seed, "grow", attempt))
        _fix_and_refine(cur, cand, caps, floors, cfg.refine_passes)
        cand_cut = cut_weight(cur, cand)
        if cand_cut < best_cut:
            best_cut = cand_cut
            side = cand
    for gph, fmap in zip(reversed(graphs[:-1]), reversed(maps)):
        side = side[fmap]
        _fix_and_refine(gph, side, caps, floors, cfg.refine_passes)
    return side


def _recurse(g: WeightedGraph, index_in_root: np.ndarray, k: int, base: int,
             cfg: BisectConfig, seed: int, out: np.ndarray) -> None:
    if k == 1:
        out[index_in_root] = base
        return
    k1 = (k + 1) // 2
    k2 = k // 2
    side = _bisect(g, k1, k2, cfg, seed)
    left = np.flatnonzero(side == 0)
    right = np.flatnonzero(side == 1)
    sub_l, _ = induced_subgraph(g, left)
    sub_r, _ = induced_subgraph(g, right)
    _recurse(sub_l, index_in_root[left], k1, base, cfg, derive_seed(seed, "L"), out)
    _recurse(sub_r, index_in_root[right], k2, base + k1, cfg, derive_seed(seed, "R"), out)


def kway_partition(cg: CoarseGraph, k: int, cfg: BisectConfig) -> PartitionMap:
    """Partition a coarse graph into exactly ``k`` non-empty, value-balanced parts.

    Each recursion level splits the value total proportionally to the number
    of parts on each side (ceil(k/2) : floor(k/2)); each part's value stays
    within ``(1 + epsilon) * ceil(total * share)`` unless structurally
    impossible, in which case a warning reports the achieved ratio.
    """
    g = cg.graph
    if k < 1:
        raise InfeasibleError("k must be >= 1")
    if k > g.node_count:
        raise InfeasibleError(f"cannot split {g.node_count} node(s) into {k} parts")
    out = np.empty(g.node_count, dtype=np.int64)
    _recurse(g, np.arange(g.node_count, dtype=np.int64), k, 0, cfg, cfg.seed, out)
    return PartitionMap(out, k)
