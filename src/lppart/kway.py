"""Balanced k-way partitioning by one multilevel hierarchy (Karypis & Kumar's
multilevel k-way scheme), the finishing stage on coarse graphs.

``kway_partition`` coarsens its input once by heavy-edge clustering until the
graph is small, splits only the coarsest graph by recursive bisection, and
projects the parts back level by level. At each level it moves nodes out of
parts above their cap, then applies batches of cut-reducing boundary moves
filtered as in Jet (Gilbert et al., arXiv:2304.13194). On a level where a
node-by-part table is no larger than the arcs, as on the dense graphs label
propagation leaves, refinement reads boundary and moves from per-node,
per-part connection tables kept up to date from the moved nodes' arcs (as in
Jet and KaMinPar); on sparser levels it sums the boundary nodes' arcs each
round.

Every cap derives from one root per-part cap ``(1 + epsilon) * ceil(W / k)``,
``W`` the total node value: a side that will hold ``k_s`` parts may carry
``k_s`` times it, so epsilon does not compound down the recursion. The value
floor ``ceil(W / k) / (1 + epsilon)`` scales the same way. Balance is
measured on node values; self-loop mass on coarse nodes is ignored.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from lppart.coarsen import MODE_NODE, CoarseGraph, coarsen
from lppart.graph import (PartitionMap, WeightedGraph, _arc_mask, _map_rows, _run_heads,
                          induced_subgraph)
from lppart.seeding import derive_seed, edge_uniform

logger = logging.getLogger(__name__)

_COARSEST_PER_PART = 20
# clusters reach at most this many steps from their head: on meshes, clusters
# along longer chains of heavy edges cut more
_CLUSTER_DEPTH = 2
# bounds on the depth of the clustering hierarchy and on refinement rounds per level
_MAX_LEVELS = 20
_REFINE_ROUNDS = 4


class InfeasibleError(ValueError):
    """A structurally impossible request, e.g. more parts than nodes."""


@dataclass(frozen=True)
class BisectConfig:
    """Knobs for the k-way stage."""

    epsilon: float = 0.1
    seed: int = 42

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and >= 0")


def per_part_cap(total: float, k: int, epsilon: float) -> float:
    """The most node value one of ``k`` parts may carry: ``(1 + epsilon) * ceil(W / k)``."""
    return (1.0 + epsilon) * math.ceil(int(total) / k)


def _pointers(g: WeightedGraph, seed: int, max_mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Each node's best-rated neighbour within ``max_mass`` (itself if none) and that rating.

    Built a row block at a time (``_map_rows``), each block writing its own rows.
    """
    mass = g.node_values.astype(np.float64)
    ptr = np.arange(g.node_count, dtype=np.int64)
    best_rating = np.zeros(g.node_count)

    def block(a, b, src):
        lo, hi = g.neighbor_offsets[a], g.neighbor_offsets[b]
        dst = g.neighbor_targets[lo:hi].astype(np.intp)
        ms, md = mass[src], mass[dst]
        rating = g.edge_weights[lo:hi] / (ms * md)
        rating[ms + md > max_mass] = -np.inf  # a neighbour it cannot join
        # arcs are grouped by source, so each node's best rating is a segment max
        head = _run_heads(src)
        best = np.maximum.reduceat(rating, np.flatnonzero(head))
        top = np.flatnonzero(rating == best[np.cumsum(head) - 1])
        h = edge_uniform(seed, 0, src[top], dst[top])
        head = _run_heads(src[top])
        top = top[h == np.maximum.reduceat(h, np.flatnonzero(head))[np.cumsum(head) - 1]]
        chosen = top[_run_heads(src[top]) & (rating[top] > -np.inf)]  # rows ascend by target
        ptr[src[chosen]] = dst[chosen]
        best_rating[src[chosen]] = rating[chosen]

    _map_rows(g, block)
    return ptr, best_rating


def _roots(ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root and depth of every node of a forest whose roots point to themselves."""
    depth = (ptr != np.arange(len(ptr))).astype(np.int64)
    while not np.array_equal(ptr[ptr], ptr):
        depth += depth[ptr]
        ptr = ptr[ptr]
    return ptr, depth


def heavy_edge_clustering(g: WeightedGraph, seed: int, max_mass: float = math.inf) -> PartitionMap:
    """One level of heavy-edge clustering (Gilbert et al., IPDPS 2021).

    No cluster weighs more than ``max_mass`` unless it is a single node.
    Every node points to the neighbour it could join within ``max_mass``
    with the highest rating ``w(u, v) / (value(u) * value(v))``; ties go to
    the larger ``edge_uniform(seed, 0, u, v)``, one draw per edge, then to
    the smaller neighbour. Of two nodes pointing at each other, the smaller
    is a root, and the nodes at depths 0, 3, 6, ... of each pointer tree head
    its clusters. A cluster above ``max_mass`` keeps its nodes depth by depth,
    best rated first, while their mass fits; the rest become singletons.
    Nodes without an edge are packed in index order up to ``max_mass`` (as
    in KaMinPar, Gottesbüren et al., ESA 2021). Clusters are numbered in
    order of their head.
    """
    mass = g.node_values
    ptr, rating = _pointers(g, seed, max_mass)
    idx = np.arange(g.node_count, dtype=np.int64)
    ptr = np.where((ptr[ptr] == idx) & (idx < ptr), idx, ptr)
    ptr = np.where(_roots(ptr)[1] % (_CLUSTER_DEPTH + 1) == 0, idx, ptr)
    ptr, depth = _roots(ptr)
    over = np.flatnonzero(np.bincount(ptr, weights=mass, minlength=len(idx))[ptr] > max_mass)
    over = over[np.lexsort((over, -rating[over], depth[over], ptr[over]))]
    drop = over[_group_cumsum(ptr[over], mass[over]) > max_mass]
    ptr[drop] = drop
    lone = np.flatnonzero(g.degrees == 0)
    filled = np.cumsum(mass[lone])
    ends = np.searchsorted(filled, filled - mass[lone] + max_mass, side="right").tolist()
    start = 0
    while start < len(lone):  # a cluster ends before the first node that does not fit
        ptr[lone[start:ends[start]]] = lone[start]
        start = max(ends[start], start + 1)
    root = ptr == idx
    return PartitionMap((np.cumsum(root) - 1)[ptr], int(root.sum()))


def cut_weight(g: WeightedGraph, side: np.ndarray) -> float:
    """Total weight of edges whose endpoints fall on different sides."""
    u, v, w = g.edge_array()
    return float(w[side[u] != side[v]].sum())


def _node_arcs(off: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the arcs of ``nodes``, grouped by node in the given order,
    from their CSR ranges, and the position in ``nodes`` of each arc's source."""
    counts = off[1:][nodes] - off[nodes]
    pos = np.repeat(np.arange(len(nodes)), counts)
    return (off[nodes] - np.cumsum(counts) + counts)[pos] + np.arange(len(pos)), pos


def _bfs_levels(g: WeightedGraph, start: int) -> np.ndarray:
    """Hop distance of every node from ``start``, -1 outside its component."""
    level = np.full(g.node_count, -1, dtype=np.int64)
    frontier = np.asarray([start], dtype=np.int64)
    depth = 0
    while len(frontier):
        level[frontier] = depth
        nbrs = g.neighbor_targets[_node_arcs(g.neighbor_offsets, frontier)[0]]
        frontier = np.unique(nbrs[level[nbrs] < 0])
        depth += 1
    return level


def _components(g: WeightedGraph) -> tuple[np.ndarray, int]:
    """Connected component of every node, numbered in order of their smallest node.

    Min-label hooking with pointer jumping: every root takes the smallest
    root next to its tree, every node then jumps to its root, until no root
    moves. Each component ends rooted at its smallest node.
    """
    src, dst = g.arc_sources().astype(np.intp), g.neighbor_targets.astype(np.intp)
    root = np.arange(g.node_count, dtype=np.int64)
    while True:
        hooked = root.copy()
        np.minimum.at(hooked, root[src], root[dst])
        if np.array_equal(hooked, root):
            break
        root = _roots(hooked)[0]
    labels, comp = np.unique(root, return_inverse=True)
    return comp, len(labels)


def _initial_side(g: WeightedGraph, comp: np.ndarray, ncomp: int, target0: float,
                  caps: tuple[float, float], floors: tuple[int, int], seed: int) -> np.ndarray:
    """Assign whole connected components to side 0 greedily (largest value
    first) up to the value target, then, if a gap remains that neither side's
    cap already tolerates, fill it by growing side 0 breadth-first from a
    peripheral node of the largest remaining component (graph growing, the
    simpler relative of METIS's greedy growing).

    The start is the node farthest from a seeded random member of that
    component, ties to the smaller index. Side-1 nodes queue by (hop
    distance from the start, weight to the nodes one hop closer descending,
    index); nodes outside the start's component follow by (value
    descending, index). Side 0 takes the longest prefix of the queue such
    that, before each of its nodes, side 0 is below the value target and
    side 1 holds more than its floor of nodes, or side 0 holds fewer than
    its own floor.
    """
    n = g.node_count
    vals = g.node_values
    total = float(vals.sum())
    side = np.ones(n, dtype=np.int64)
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
        load0 += float(comp_val[c])
        assigned += int(comp_cnt[c])
        packed[c] = True
    side[packed[comp]] = 0

    balanced_already = (assigned >= floors[0]
                        and load0 <= caps[0] and (total - load0) <= caps[1]
                        and 0 < assigned <= n - floors[1])
    if balanced_already:
        return side

    # packing never takes every component: side 1 keeps at least floors[1] nodes
    pending = np.flatnonzero(~packed)
    members = np.flatnonzero(comp == pending[np.argmax(comp_val[pending])])
    member = members[np.random.default_rng(seed).integers(len(members))]
    level = _bfs_levels(g, int(_bfs_levels(g, member).argmax()))
    reached = np.flatnonzero(level >= 0)
    arcs, pos = _node_arcs(g.neighbor_offsets, reached)
    closer = level[g.neighbor_targets[arcs]] == level[reached][pos] - 1
    pull = np.bincount(pos, weights=g.edge_weights[arcs] * closer, minlength=len(reached))
    rest = np.flatnonzero((level < 0) & (side == 1))
    queue = np.concatenate([reached[np.lexsort((reached, -pull, level[reached]))],
                            rest[np.lexsort((rest, -vals[rest]))]])
    before = assigned + np.arange(len(queue))  # side 0's node count before each queued node
    load = load0 + np.cumsum(vals[queue]) - vals[queue]
    grow = ((load < target0) & (before < n - floors[1])) | (before < floors[0])
    side[queue[:np.argmin(np.append(grow, False))]] = 0
    return side


def _group_cumsum(keys: np.ndarray, amounts: np.ndarray) -> np.ndarray:
    """Running total of ``amounts`` within each key, in the given order."""
    order = np.argsort(keys, kind="stable")
    sa = amounts[order]
    cs = np.cumsum(sa)
    head = _run_heads(keys[order])
    out = np.empty_like(cs)
    out[order] = cs - (cs - sa)[head][np.cumsum(head) - 1]
    return out


def _best_moves(g: WeightedGraph, parts: np.ndarray, nodes: np.ndarray,
               room: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best destination for each of ``nodes`` (ascending) and the cut weight
    moving there saves.

    The destination is the part with room for the node that it is most
    connected to (ties to the lower part), or, failing any connected one, the
    other part with most room. The saving is that connection minus the node's
    weight to its own part; it is ``-inf`` where no other part has room.
    Connections are summed per (node, part) pair present among the arcs of
    ``nodes``, by grouping the arcs by part, so memory is linear in the arcs
    whatever the number of parts.
    """
    nparts = len(room)
    sel, pos = _node_arcs(g.neighbor_offsets, nodes)
    p = parts[g.neighbor_targets[sel].astype(np.intp)]
    # arcs come grouped by source and positions ascend with it, so a stable sort
    # by part sorts the keys
    order = np.argsort(p.astype(np.min_scalar_type(nparts - 1)), kind="stable")
    key = (p * len(nodes) + pos)[order]
    head = np.flatnonzero(_run_heads(key))
    conn = np.add.reduceat(g.edge_weights[sel][order], head) if len(head) else np.empty(0)
    key = key[head]
    kp, kr = np.divmod(key, len(nodes))
    own = parts[nodes]
    vals = g.node_values[nodes]
    mine = kp == own[kr]
    internal = np.zeros(len(nodes))
    internal[kr[mine]] = conn[mine]
    cand = np.flatnonzero(~mine & (room[kp] >= vals[kr]) & (conn > 0))
    top = np.full(len(nodes), -np.inf)
    np.maximum.at(top, kr[cand], conn[cand])
    win = cand[conn[cand] == top[kr[cand]]]
    lowest = np.full(len(nodes), nparts)
    np.minimum.at(lowest, kr[win], kp[win])
    return _choose(lowest, top, internal, own, vals, room)


def _choose(lowest: np.ndarray, top: np.ndarray, internal: np.ndarray, own: np.ndarray,
            vals: np.ndarray, room: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_best_moves``' result from each node's most-connected part with room
    (``lowest``, its connection ``top``, ``-inf`` if none) and its weight to
    its own part."""
    # no connected part has room: fall back to the other part with most room
    by_room = np.lexsort((np.arange(len(room)), -room))
    roomiest = np.where(own == by_room[0], by_room[1], by_room[0])
    connected = top > -np.inf
    far = ~connected & (room[roomiest] >= vals)
    dest = np.where(connected, lowest, roomiest)
    return dest, np.where(connected, top, np.where(far, 0.0, -np.inf)) - internal


def _part_table(g: WeightedGraph, parts: np.ndarray,
                nparts: int) -> tuple[np.ndarray, np.ndarray]:
    """Node-by-part tables of each node's connection weight to every part and
    its count of neighbours there, built a row block at a time (``_map_rows``)."""
    dst, w = g.neighbor_targets, g.edge_weights
    conn = np.zeros((g.node_count, nparts))
    cnt = np.zeros((g.node_count, nparts), dtype=np.int64)

    def block(a, b, src):
        lo, hi = g.neighbor_offsets[a], g.neighbor_offsets[b]
        key = (src - a) * nparts + parts[dst[lo:hi].astype(np.intp)]
        size = (b - a) * nparts
        conn[a:b] = np.bincount(key, weights=w[lo:hi], minlength=size).reshape(b - a, nparts)
        cnt[a:b] = np.bincount(key, minlength=size).reshape(b - a, nparts)

    _map_rows(g, block)
    return conn, cnt


def _table_moves(conn: np.ndarray, parts: np.ndarray, nodes: np.ndarray, vals: np.ndarray,
                 room: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_best_moves`` read from the rows of ``nodes`` in a connection table."""
    block = conn[nodes]
    rows = np.arange(len(nodes))
    own = parts[nodes]
    vals = vals[nodes]
    internal = block[rows, own]
    fits = room >= vals[:, None]
    fits[rows, own] = False
    block[~fits | (block <= 0)] = -np.inf
    lowest = block.argmax(axis=1)  # the first of equal maxima: ties go to the lower part
    return _choose(lowest, block[rows, lowest], internal, own, vals, room)


def _move_in_table(conn: np.ndarray, cnt: np.ndarray, nbrs: np.ndarray, w: np.ndarray,
                   old: np.ndarray, new: np.ndarray) -> None:
    """Update the tables for arcs into ``nbrs`` of weights ``w`` whose other
    ends moved from parts ``old`` to ``new``."""
    nparts = conn.shape[1]
    conn, cnt = conn.reshape(-1), cnt.reshape(-1)
    row = np.multiply(nbrs, nparts, dtype=np.int64)  # int64 whatever the dtype of ``nbrs``
    was, now = row + old, row + new
    np.subtract.at(conn, was, w)
    np.add.at(conn, now, w)
    np.subtract.at(cnt, was, 1)
    np.add.at(cnt, now, 1)
    was = was[cnt[was] == 0]
    conn[was] = 0.0  # no float residue may leave a node connected to a part it left


def _loads(g: WeightedGraph, parts: np.ndarray, nparts: int) -> np.ndarray:
    return np.bincount(parts, weights=g.node_values.astype(np.float64), minlength=nparts)


def _admit(g: WeightedGraph, parts: np.ndarray, nodes: np.ndarray, dest: np.ndarray,
           loads: np.ndarray, caps: np.ndarray, lows: np.ndarray,
           floors: np.ndarray) -> np.ndarray:
    """Mask of the moves, taken in the given order, that keep every destination
    within its cap and every source at or above both its value floor ``lows``
    and its floor of nodes."""
    vals = g.node_values[nodes].astype(np.float64)
    fits = loads[dest] + _group_cumsum(dest, vals) <= caps[dest]
    own = parts[nodes]
    counts = np.bincount(parts, minlength=len(caps))
    return (fits & (_group_cumsum(own, fits.astype(np.float64)) <= counts[own] - floors[own])
            & (_group_cumsum(own, vals * fits) <= loads[own] - lows[own]))


def _rebalance(g: WeightedGraph, parts: np.ndarray, caps: np.ndarray, lows: np.ndarray,
               floors: np.ndarray) -> None:
    """Move nodes out of parts above their cap until none is, or no move fits.

    Each round, every node of an over-cap part is rated by the cut weight its
    best move loses per unit value. Per source, the cheapest moves that cover
    its excess are taken; per destination, they are admitted in that order
    while the destination stays within its cap, and no part drops below its
    value floor or its floor of nodes. A move never pushes a destination past
    its cap, so with unit node values, equal caps of at least ``ceil(n / k)``
    and value floors at most ``ceil(n / k)`` this ends with every part within
    its cap.
    """
    nparts = len(caps)
    vals = g.node_values.astype(np.float64)
    while True:
        loads = _loads(g, parts, nparts)
        excess = loads - caps
        nodes = np.flatnonzero(excess[parts] > 0)
        if not len(nodes):
            return
        dest, saving = _best_moves(g, parts, nodes, caps - loads)
        ok = saving > -np.inf
        nodes, dest, cost = nodes[ok], dest[ok], -saving[ok] / vals[nodes[ok]]
        order = np.lexsort((nodes, cost))
        nodes, dest = nodes[order], dest[order]
        own = parts[nodes]
        take = _group_cumsum(own, vals[nodes]) - vals[nodes] < excess[own]
        nodes, dest = nodes[take], dest[take]
        keep = _admit(g, parts, nodes, dest, loads, caps, lows, floors)
        if not keep.any():
            return
        parts[nodes[keep]] = dest[keep]


def _cut_change(g: WeightedGraph, nodes: np.ndarray, parts: np.ndarray,
                target: np.ndarray) -> float:
    """Change in the arc cut (twice the edge cut) when ``parts`` becomes
    ``target``, read from the arcs of ``nodes``: every node whose part changes."""
    arcs, pos = _node_arcs(g.neighbor_offsets, nodes)
    a, b = nodes[pos], g.neighbor_targets[arcs].astype(np.intp)
    change = (target[a] != target[b]).astype(np.float64) - (parts[a] != parts[b])
    # an edge between two moved nodes appears here as both of its arcs, any other as one
    return float((g.edge_weights[arcs] * change * np.where(target[b] != parts[b], 1.0, 2.0)).sum())


def _refine(g: WeightedGraph, parts: np.ndarray, caps: np.ndarray, lows: np.ndarray,
            floors: np.ndarray, rounds: int) -> None:
    """Batches of cut-reducing boundary moves that keep every part between its
    value floor and its cap.

    Each round, every boundary node with a positive-saving move to a part
    with room for it is a candidate, ranked by saving. Candidates are
    admitted per destination in rank order while it stays within its cap,
    and per source while it keeps its value floor and its floor of nodes.
    An admitted move is kept only if it still saves weight once every
    higher-ranked admitted move is assumed made (Jet's filter). A round
    whose moves would not lower the cut is discarded; refinement stops then,
    or after a round moving fewer than 0.1% of the nodes.

    Where a node-by-part table is no larger than the arcs (``n * k <=
    arcs``), the boundary and the best moves are read from ``_part_table``'s
    two tables, built once and updated from the moved nodes' arcs (as in
    Jet and KaMinPar). Elsewhere each round finds the boundary by one pass
    over the arcs and sums the boundary nodes' arcs in ``_best_moves``.
    Either way the filter and the cut change read only the arcs of the
    admitted nodes.
    """
    n = g.node_count
    nparts = len(caps)
    dst, w = g.neighbor_targets, g.edge_weights
    table = _part_table(g, parts, nparts) if n * nparts <= len(dst) else None
    for _ in range(rounds):
        loads = _loads(g, parts, nparts)
        if table is None:
            nodes = np.flatnonzero(_arc_mask(g, lambda s, d, _: parts[s] != parts[d])[1])
            dest, saving = _best_moves(g, parts, nodes, caps - loads)
        else:
            conn, cnt = table
            nodes = np.flatnonzero(cnt[np.arange(n), parts] < g.degrees)
            dest, saving = _table_moves(conn, parts, nodes, g.node_values, caps - loads)
        cand = saving > 0
        order = np.lexsort((nodes[cand], -saving[cand]))
        nodes, dest = nodes[cand][order], dest[cand][order]
        keep = _admit(g, parts, nodes, dest, loads, caps, lows, floors)
        nodes, dest = nodes[keep], dest[keep]
        if not len(nodes):
            return
        rank = np.full(n, n, dtype=np.int64)
        rank[nodes] = np.arange(len(nodes))
        target = parts.copy()
        target[nodes] = dest
        arcs, pos = _node_arcs(g.neighbor_offsets, nodes)
        a, b = nodes[pos], dst[arcs].astype(np.intp)
        pb = np.where(rank[b] < pos, target[b], parts[b])
        gain = w[arcs] * ((pb == target[a]).astype(np.float64) - (pb == parts[a]))
        keep = np.bincount(pos, weights=gain, minlength=len(nodes)) > 0
        target[nodes[~keep]] = parts[nodes[~keep]]
        nodes, dest = nodes[keep], dest[keep]
        if not len(nodes):
            return
        if _cut_change(g, nodes, parts, target) >= 0:
            return
        if table is not None:
            arcs, a = arcs[keep[pos]], a[keep[pos]]
            _move_in_table(conn, cnt, dst[arcs], w[arcs], parts[a], target[a])
        parts[nodes] = dest
        if len(nodes) < 0.001 * n:
            return


def _bisect(g: WeightedGraph, k1: int, k2: int, cap: float, low: float, seed: int) -> np.ndarray:
    """Split ``g`` into two sides that will hold k1 and k2 parts, each part
    with value between ``low`` and ``cap``."""
    total = float(g.node_values.sum())
    caps = np.array([cap * k1, cap * k2])
    lows = np.array([low * k1, low * k2])
    floors = np.array([k1, k2])
    comp, ncomp = _components(g)
    # several seeded growths; keep the cheapest cut. The attempts share their
    # component packing, so a repeated start repeats a side: each side is refined once
    side = None
    best_cut = math.inf
    tried = set()
    for attempt in range(4):
        cand = _initial_side(g, comp, ncomp, total * k1 / (k1 + k2), (caps[0], caps[1]),
                             (k1, k2), derive_seed(seed, "grow", attempt))
        if cand.tobytes() in tried:
            continue
        tried.add(cand.tobytes())
        _rebalance(g, cand, caps, lows, floors)
        _refine(g, cand, caps, lows, floors, _REFINE_ROUNDS)
        cand_cut = cut_weight(g, cand)
        if cand_cut < best_cut:
            best_cut = cand_cut
            side = cand
    return side


def _recurse(g: WeightedGraph, index_in_root: np.ndarray, k: int, base: int, cap: float,
             low: float, seed: int, out: np.ndarray) -> None:
    if k == 1:
        out[index_in_root] = base
        return
    k1 = (k + 1) // 2
    k2 = k // 2
    side = _bisect(g, k1, k2, cap, low, seed)
    left = np.flatnonzero(side == 0)
    right = np.flatnonzero(side == 1)
    sub_l, _ = induced_subgraph(g, left)
    sub_r, _ = induced_subgraph(g, right)
    _recurse(sub_l, index_in_root[left], k1, base, cap, low, derive_seed(seed, "L"), out)
    _recurse(sub_r, index_in_root[right], k2, base + k1, cap, low, derive_seed(seed, "R"), out)


def kway_partition(cg: CoarseGraph, k: int, cfg: BisectConfig) -> PartitionMap:
    """Partition a coarse graph into exactly ``k`` non-empty, value-balanced parts.

    One ``heavy_edge_clustering`` hierarchy shrinks the graph to at most
    ``20 k`` nodes, or until a level removes under 2.5% of the nodes with an
    edge or would leave fewer than ``k`` nodes; the coarsest graph is split
    by recursive bisection, and each level on the way up is rebalanced and
    refined k-way. With ``W`` the total node value, the per-part cap is
    ``C = (1 + epsilon) * ceil(W / k)``. With unit node values every part
    ends within ``C``; otherwise this is best effort: no cluster outweighs
    ``max(heaviest input node, C / 4)``, and if a part still ends above
    ``C``, one warning reports its load against it. No move takes a part
    below ``ceil(W / k) / (1 + epsilon)``, so refinement cannot drain a part
    to buy cut; a part the coarsest split leaves below that floor stays so.
    Refinement on a level of ``n`` nodes and ``m`` arcs holds ``16 n k``
    bytes of connection tables if ``n k <= m``, and none otherwise, so its
    memory stays linear in the arcs for any ``k``.
    """
    g = cg.graph
    if k < 1:
        raise InfeasibleError("k must be >= 1")
    if k > g.node_count:
        raise InfeasibleError(f"cannot split {g.node_count} node(s) into {k} parts")
    if k == 1:
        return PartitionMap(np.zeros(g.node_count, dtype=np.int64), 1)
    cap = per_part_cap(g.node_values.sum(), k, cfg.epsilon)
    low = cap / (1.0 + cfg.epsilon) ** 2  # ceil(W / k) / (1 + epsilon), mirroring the cap

    graphs = [g]
    maps: list[np.ndarray] = []
    max_mass = max(float(g.node_values.max()), cap / 4)
    while graphs[-1].node_count > _COARSEST_PER_PART * k and len(maps) < _MAX_LEVELS:
        cur = graphs[-1]
        clusters = heavy_edge_clustering(cur, derive_seed(cfg.seed, "cluster", len(maps)),
                                         max_mass)
        removed = cur.node_count - clusters.num_parts
        if clusters.num_parts < k or removed < max(1.0, 0.025 * np.count_nonzero(cur.degrees)):
            break  # a level of fewer than k nodes would leave parts empty
        graphs.append(coarsen(clusters, MODE_NODE, cur).graph)
        maps.append(clusters.assignment)

    coarsest = graphs[-1]
    parts = np.empty(coarsest.node_count, dtype=np.int64)
    _recurse(coarsest, np.arange(coarsest.node_count, dtype=np.int64), k, 0, cap, low, cfg.seed,
             parts)
    caps, lows = np.full(k, cap), np.full(k, low)
    floors = np.ones(k, dtype=np.int64)
    while True:
        cur = graphs.pop()  # a level is released once its parts are projected up
        _rebalance(cur, parts, caps, lows, floors)
        _refine(cur, parts, caps, lows, floors, _REFINE_ROUNDS)
        if not maps:
            break
        parts = parts[maps.pop()]

    heaviest = float(_loads(g, parts, k).max())
    if heaviest > cap:
        logger.warning("k-way balance infeasible: the heaviest part carries %d, %.3f of "
                       "the per-part cap %.1f", heaviest, heaviest / cap, cap)
    return PartitionMap(parts, k)
