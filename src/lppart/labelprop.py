"""Label propagation with relative-weight edge pruning.

Each round is a synchronous weighted vote over neighbor labels followed by a
pruning step that keeps an undirected edge only if, from at least one of its
endpoints, the edge carries at least ``p_ratio`` of that endpoint's total
incident weight, or the edge wins a per-round uniform draw below ``p_bound``.
Pruning thins noisy edges so the vote converges quickly and does not
oscillate the way plain synchronous propagation does on bipartite graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lppart.graph import (PartitionMap, WeightedGraph, _keep_arcs, _map_rows, _run_heads,
                          _stable_order)
from lppart.seeding import edge_uniform, pair_hash64


@dataclass(frozen=True)
class LpParams:
    """Propagation knobs: pruning thresholds, loop bound, and seed.

    ``t_iterations`` is the inclusive loop bound T: one run performs
    ``T + 1`` {vote, prune} rounds (the source algorithm iterates t = 0..T).
    """

    p_ratio: float = 0.5
    p_bound: float = 0.1
    t_iterations: int = 2
    seed: int = 42

    def __post_init__(self):
        if not (0.0 <= self.p_ratio <= 1.0):
            raise ValueError("p_ratio must lie in [0, 1]")
        if not (0.0 <= self.p_bound <= 1.0):
            raise ValueError("p_bound must lie in [0, 1]")
        if self.t_iterations < 1:
            raise ValueError("t_iterations must be >= 1")


def edge_retention(g: WeightedGraph, params: LpParams, iteration: int) -> WeightedGraph:
    """Return a copy of ``g`` with low-relative-weight edges deleted.

    Per directed arc i->j the relative weight is w_ij divided by the total
    incident weight of i. An undirected edge survives if either direction
    reaches ``p_ratio`` or its single per-round uniform draw (keyed on the
    endpoint pair) falls below ``p_bound``. A degree-1 node's only edge has
    relative weight 1 from its side and is therefore always retained.

    Both arcs of an edge carry the identical weight, so each arc evaluates
    the whole undirected rule from its own two endpoints. The resulting mask
    is symmetric: filtering the (source, target)-sorted arc arrays by it keeps
    both arcs of every surviving edge, in order, with no re-sort (``_keep_arcs``).

    Both passes run over row blocks (``_map_rows``). Each row's weighted
    degree is a ``bincount`` over its block, which adds the row's weights
    in the same order as one over all arcs would.
    """
    if g.arc_count == 0:
        return g
    off = g.neighbor_offsets
    wdeg = np.zeros(g.node_count)

    def degrees(a, b, src):
        wdeg[a:b] = np.bincount(src - a, weights=g.edge_weights[off[a]:off[b]], minlength=b - a)

    _map_rows(g, degrees)

    def rule(src, dst, w):
        kept = ((w / wdeg[src]) >= params.p_ratio) | ((w / wdeg[dst]) >= params.p_ratio)
        if params.p_bound > 0.0:
            kept |= edge_uniform(params.seed, iteration, src, dst) < params.p_bound
        return kept

    return _keep_arcs(g, rule)


def vote_update(g: WeightedGraph, labels: np.ndarray) -> np.ndarray:
    """One synchronous voting round; returns the new labels in a new int64 array.

    Each neighbor m of node i contributes ``w_im / value(m)`` to the score of
    m's previous-round label; i adopts the top-scoring label. Exact ties keep
    i's current label when it is among the maximizers; remaining ties resolve
    by a stateless per-(node, label) hash. A fixed global order (e.g. always
    the smallest id) would turn the all-tied first round on unweighted graphs
    into a minimum-id sweep that merges across community boundaries; the hash
    keeps tie decisions local and unbiased while staying bit-reproducible.
    Isolated nodes keep their label. A node's own label gets no vote of its
    own.

    The vote runs over row blocks of about 2^16 arcs (``_map_rows``):
    everything a node's vote reads lies in its own row, so each block's
    temporaries are all the vote holds beyond the graph and the labels, and
    each block writes only its own rows' new labels. In a block, arcs are
    grouped by one stable sort (``_stable_order``) on a packed (node,
    label) key, so each score sums its contributions in adjacency order.
    The groups come out node-major, and one maximum over each node's
    segment of groups gives its best score. A node whose current label
    reaches it keeps that label; a node with a single maximizer takes it;
    only the nodes left with several tied candidates sort those candidates
    by (node, hash, label) and take the first.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (g.node_count,):
        raise ValueError("label array does not match graph")
    new_labels = labels.copy()
    if g.arc_count == 0:
        return new_labels

    ranks = labels  # keys pack labels in [0, node_count), or else the labels' ranks
    if labels.min() < 0 or labels.max() >= g.node_count:
        ranks = np.unique(labels, return_inverse=True)[1]
    span = ranks.max() + 1
    off = g.neighbor_offsets

    def vote(a, b, src):
        dst = g.neighbor_targets[off[a]:off[b]].astype(np.intp)
        contrib = g.edge_weights[off[a]:off[b]] / g.node_values[dst]
        lab = labels[dst]
        order = _stable_order((src - a) * span + (lab if ranks is labels else ranks[dst]))
        s_s, l_s = src[order], lab[order]
        starts = np.flatnonzero(_run_heads(s_s) | _run_heads(l_s))
        scores = np.add.reduceat(contrib[order], starts)
        g_src = s_s[starts]
        g_lab = l_s[starts]

        # one segment per voting node; groups inside a segment ascend by label
        seg_first = _run_heads(g_src)
        seg = np.cumsum(seg_first) - 1
        best = np.maximum.reduceat(scores, np.flatnonzero(seg_first))
        cand = np.flatnonzero(scores == best[seg])
        c_seg = seg[cand]
        n_max = np.bincount(c_seg, minlength=len(best))
        tied = n_max > 1
        tied[c_seg[g_lab[cand] == labels[g_src[cand]]]] = False  # current label kept
        single = cand[n_max[c_seg] == 1]
        rest = cand[tied[c_seg]]
        pick = rest[np.lexsort((g_lab[rest], pair_hash64(g_src[rest], g_lab[rest]), seg[rest]))]
        winners = np.concatenate((single, pick[_run_heads(seg[pick])]))
        new_labels[g_src[winners]] = g_lab[winners]

    _map_rows(g, vote)
    return new_labels


def multilevel_label_prop(g: WeightedGraph, params: LpParams) -> PartitionMap:
    """Run ``t_iterations + 1`` rounds of {vote, prune} and group nodes by label.

    Labels start as node indices. Pruning applies to a working copy only;
    the caller's graph is never modified. The result is a PartitionMap with
    labels compacted to ``[0, M)``.
    """
    labels = np.arange(g.node_count, dtype=np.int64)
    work = g
    rounds = params.t_iterations + 1
    for it in range(rounds):
        labels = vote_update(work, labels)
        if it + 1 < rounds:  # the last round's pruning would never be observed
            work = edge_retention(work, params, it)
    uniq, inverse = np.unique(labels, return_inverse=True)
    return PartitionMap(inverse.astype(np.int64), len(uniq))
