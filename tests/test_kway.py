import logging
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from lppart import kway
from lppart.coarsen import CoarseGraph
from lppart.generate import GeneratorSpec, generate
from lppart.graph import from_edges
from lppart.kway import (BisectConfig, InfeasibleError, _rebalance, _refine, cut_weight,
                         heavy_edge_clustering, kway_partition)
from lppart.seeding import edge_uniform

from oracles import neighbor_weights, neighbors

logger = logging.getLogger(__name__)


def _grid(side):
    idx = np.arange(side * side).reshape(side, side)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return from_edges(side * side, u, v)


def _pointers_reference(g, seed, max_mass):
    """Replay the contract: each node's best neighbour within ``max_mass`` by
    (rating, pair hash, -index), or itself."""
    vals = g.node_values.astype(np.float64)
    ptr = []
    for u in range(g.node_count):
        best = ((-math.inf,), u)
        for v, w in zip(neighbors(g, u).tolist(), neighbor_weights(g, u)):
            h = edge_uniform(seed, 0, np.array([u]), np.array([v]))[0]
            key = (w / (vals[u] * vals[v]), h, -v)
            if vals[u] + vals[v] <= max_mass and key > best[0]:
                best = (key, v)
        ptr.append(best[1])
    return ptr


def _random_clustering_inputs(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(3, 80))
        m = int(rng.integers(0, 3 * n))
        # integer weights and values make rating ties common, so the hash decides
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.integers(1, 3, m).astype(np.float64),
                       node_values=rng.integers(1, 6, n))
        yield g, int(rng.integers(1 << 30)), float(rng.integers(2, 12))


def test_cluster_pointers_match_a_reference():
    rng = np.random.default_rng(77)
    for g, seed, max_mass in _random_clustering_inputs(rng, 20):
        ptr, _ = kway._pointers(g, seed, max_mass)
        assert ptr.tolist() == _pointers_reference(g, seed, max_mass)


def test_clusters_are_connected_and_only_single_nodes_pass_max_mass():
    rng = np.random.default_rng(78)
    for g, seed, max_mass in _random_clustering_inputs(rng, 40):
        clusters = heavy_edge_clustering(g, seed, max_mass)
        a = clusters.assignment
        sizes = clusters.part_sizes()
        mass = np.bincount(a, weights=g.node_values, minlength=clusters.num_parts)
        assert np.all(sizes[mass > max_mass] == 1)
        # intra-cluster edges join every cluster of linked nodes into one component
        u, v, _ = g.edge_array()
        inner = a[u] == a[v]
        comp, _ = kway._components(from_edges(g.node_count, u[inner], v[inner]))
        linked = np.ones(clusters.num_parts, dtype=bool)
        linked[a[g.degrees == 0]] = False
        pairs = {(c, p) for c, p in zip(a.tolist(), comp.tolist()) if linked[c]}
        assert len(pairs) == np.count_nonzero(linked)


def test_clusters_break_two_cycles_at_the_smaller_index():
    # a path with falling weights: every node points along its heaviest edge,
    # so the two ends of the heaviest edge point at each other
    length = kway._CLUSTER_DEPTH + 2
    w = np.arange(length - 1, 0, -1, dtype=np.float64)
    nodes = np.arange(length)
    path = from_edges(length, nodes[:-1], nodes[1:], w)
    # rooted at node 0, the far end sits one step too deep and heads its own cluster
    assert heavy_edge_clustering(path, 1).assignment.tolist() == [0] * (length - 1) + [1]
    # mirrored, the pair's smaller node is one step in, so the tree is one cluster
    mirror = from_edges(length, length - 1 - nodes[:-1], length - 1 - nodes[1:], w)
    assert heavy_edge_clustering(mirror, 1).assignment.tolist() == [0] * length


def test_clustering_packs_isolated_nodes():
    rng = np.random.default_rng(5)
    values = rng.integers(1, 6, 60)
    g = from_edges(60, [0, 1], [1, 2], node_values=values)  # nodes 3..59 have no edge
    a = heavy_edge_clustering(g, 1, max_mass=20.0).assignment
    assert len(set(a[:3].tolist())) == 1 and a[0] not in a[3:]
    lone = a[3:]
    assert np.all(np.diff(lone) >= 0)  # packed in index order
    load = np.bincount(lone, weights=values[3:])[lone[0]:]
    assert load.max() <= 20
    # each cluster is full: the first node of the next one would not fit
    firsts = np.flatnonzero(np.diff(lone)) + 1
    assert np.all(load[:-1] + values[3:][firsts] > 20)
    # a node heavier than max_mass is a cluster of its own and ends no loop
    heavy = from_edges(4, [], [], node_values=[1, 9, 1, 1])
    assert heavy_edge_clustering(heavy, 1, max_mass=3).assignment.tolist() == [0, 1, 2, 2]


def test_clustering_is_deterministic_for_a_seed():
    g = generate(GeneratorSpec("random_weighted", (400, 3000, 0.1, 1.0), seed=4))
    g = g.with_node_values(np.random.default_rng(4).integers(1, 4, 400))
    a = heavy_edge_clustering(g, 9)
    b = heavy_edge_clustering(g, 9)
    assert a.num_parts == b.num_parts and np.array_equal(a.assignment, b.assignment)
    assert a.num_parts < 0.5 * g.node_count


def _exhaustive_best_bipartition(g, epsilon):
    """Minimum-cut balanced bipartition by brute force over all 2^n splits."""
    n = g.node_count
    vals = g.node_values
    total = int(vals.sum())
    cap = (1.0 + epsilon) * math.ceil(total / 2)
    best = math.inf
    for bits in range(1, 2 ** (n - 1)):
        side = np.array([(bits >> i) & 1 for i in range(n)], dtype=np.int8)
        loads = (vals[side == 0].sum(), vals[side == 1].sum())
        if side.min() == side.max():
            continue
        if loads[0] > cap or loads[1] > cap:
            continue
        best = min(best, cut_weight(g, side))
    return best


def test_k1_trivial():
    g = generate(GeneratorSpec("ring", (7,)))
    parts = kway_partition(CoarseGraph.wrap(g), 1, BisectConfig())
    assert parts.num_parts == 1
    assert np.all(parts.assignment == 0)


def test_bridged_triangles_split_at_bridge():
    u = [0, 1, 2, 3, 4, 5, 2]
    v = [1, 2, 0, 4, 5, 3, 3]
    g = from_edges(6, u, v)
    parts = kway_partition(CoarseGraph.wrap(g), 2, BisectConfig(epsilon=0.1, seed=1))
    side = parts.assignment
    assert cut_weight(g, side) == pytest.approx(1.0)
    assert sorted(parts.part_sizes().tolist()) == [3, 3]
    assert _exhaustive_best_bipartition(g, 0.1) == pytest.approx(1.0)


def test_unit_ring_even_split():
    g = generate(GeneratorSpec("ring", (8,)))
    parts = kway_partition(CoarseGraph.wrap(g), 2, BisectConfig(epsilon=0.1, seed=3))
    assert sorted(parts.part_sizes().tolist()) == [4, 4]
    assert cut_weight(g, parts.assignment) == pytest.approx(2.0)
    assert _exhaustive_best_bipartition(g, 0.1) == pytest.approx(2.0)


def test_output_total_and_surjective():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(6, 40))
        m = int(rng.integers(n, 4 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.1, 2.0, m))
        k = int(rng.integers(2, min(n, 7)))
        parts = kway_partition(CoarseGraph.wrap(g), k, BisectConfig(seed=trial))
        assert parts.num_parts == k
        assert len(parts.assignment) == n
        assert np.all(parts.part_sizes() > 0)


def test_small_graph_cut_quality_soft_bound():
    rng = np.random.default_rng(99)
    worst = 0.0
    violations = 0
    for trial in range(12):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(n, n * (n - 1) // 2))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.2, 2.0, m))
        parts = kway_partition(CoarseGraph.wrap(g), 2, BisectConfig(epsilon=0.1, seed=trial))
        got = cut_weight(g, parts.assignment)
        best = _exhaustive_best_bipartition(g, 0.1)
        if best == 0:
            assert got == pytest.approx(0.0)
            continue
        ratio = got / best
        worst = max(worst, ratio)
        if ratio > 1.5:
            violations += 1
            logger.warning("cut quality gap %.3f on trial %d (soft bound)", ratio, trial)
    logger.info("worst observed cut ratio vs optimum: %.3f (%d soft violations)",
                worst, violations)


def test_balance_cap_respected_on_unit_values():
    rng = np.random.default_rng(55)
    for trial in range(8):
        n = int(rng.integers(8, 40))
        m = int(rng.integers(n, 4 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
        k = int(rng.integers(2, 6))
        if k > n:
            continue
        parts = kway_partition(CoarseGraph.wrap(g), k, BisectConfig(epsilon=0.1, seed=trial))
        sizes = parts.part_sizes()
        assert sizes.max() <= (1.0 + 0.1) * math.ceil(n / k)


def test_grid_parts_within_the_per_part_cap():
    g = _grid(60)
    parts = kway_partition(CoarseGraph.wrap(g), 16, BisectConfig())
    sizes = parts.part_sizes()
    assert len(sizes) == 16 and sizes.min() > 0
    assert sizes.max() <= 1.1 * math.ceil(3600 / 16)


def _best_moves_reference(g, parts, nodes, room):
    """Dense replay of the contract: most-connected part with room, else roomiest."""
    dest, saving = [], []
    for u in nodes:
        conn = np.zeros(len(room))
        for v, w in zip(neighbors(g, u), neighbor_weights(g, u)):
            conn[parts[v]] += w
        fit = room >= g.node_values[u]
        fit[parts[u]] = False
        if not fit.any():
            dest.append(0)
            saving.append(-np.inf)
        elif conn[fit].max() > 0:
            d = int(np.flatnonzero(fit & (conn == conn[fit].max()))[0])
            dest.append(d)
            saving.append(conn[d] - conn[parts[u]])
        else:
            dest.append(int(np.flatnonzero(fit & (room == room[fit].max()))[0]))
            saving.append(-conn[parts[u]])
    return np.array(dest), np.array(saving)


def test_best_moves_matches_a_dense_reference():
    rng = np.random.default_rng(19)
    for trial in range(40):
        n = int(rng.integers(5, 40))
        m = int(rng.integers(n, 8 * n))
        # integer weights and values make ties in connection and room common
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.integers(1, 3, m).astype(np.float64), rng.integers(1, 4, n))
        k = int(rng.integers(2, 12))
        parts = rng.integers(0, k, n)
        nodes = np.flatnonzero(rng.random(n) < 0.6)
        room = rng.integers(-2, 5, k).astype(np.float64)
        dest, saving = kway._best_moves(g, parts, nodes, room)
        ref_dest, ref_saving = _best_moves_reference(g, parts, nodes, room)
        movable = ref_saving > -np.inf
        assert np.array_equal(saving, ref_saving)
        assert np.array_equal(dest[movable], ref_dest[movable])


def test_best_moves_memory_is_linear_in_arcs():
    # 20k nodes and 200 parts: a dense node-by-part table of float64 alone is 32 MB
    rng = np.random.default_rng(3)
    n, m, k = 20000, 100000, 200
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.1, 1.0, m))
    parts = rng.integers(0, k, n)
    tracemalloc.start()
    try:
        kway._best_moves(g, parts, np.arange(n), np.full(k, 50.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * g.arc_count < 8 * n * k


@pytest.mark.parametrize("integer", [True, False])
def test_part_table_tracks_refinement_and_matches_the_reference(monkeypatch, integer):
    tables, calls = [], []
    part_table, table_moves = kway._part_table, kway._table_moves

    def fresh(g, parts, k):
        key = g.arc_sources() * k + parts[g.neighbor_targets]
        return (np.bincount(key, weights=g.edge_weights, minlength=g.node_count * k),
                np.bincount(key, minlength=g.node_count * k))

    def check(g, parts):
        conn, cnt = tables[-1]
        ref_conn, ref_cnt = fresh(g, parts, conn.shape[1])
        assert np.array_equal(cnt.ravel(), ref_cnt)
        assert np.allclose(conn.ravel(), ref_conn, rtol=0, atol=1e-9)

    def moves(conn, parts, nodes, vals, room):
        check(g, parts)  # the tables as the previous round left them
        dest, saving = table_moves(conn, parts, nodes, vals, room)
        ref_dest, ref_saving = _best_moves_reference(g, parts, nodes, room)
        movable = ref_saving > -np.inf
        assert np.array_equal(saving > -np.inf, movable)
        assert np.allclose(saving[movable], ref_saving[movable], rtol=0,
                           atol=0 if integer else 1e-9)
        assert np.array_equal(dest[movable], ref_dest[movable])
        calls.append(len(nodes))
        return dest, saving

    monkeypatch.setattr(kway, "_part_table", lambda *a: tables.append(part_table(*a)) or tables[-1])
    monkeypatch.setattr(kway, "_table_moves", moves)
    rng = np.random.default_rng(29)
    moved = 0
    for trial in range(30):
        built = len(tables)
        n = int(rng.integers(6, 40))
        m = int(rng.integers(3 * n, 10 * n))
        # integer weights and values make ties in connection and room common;
        # float weights leave rounding residue where a node's last neighbour
        # in a part moves out
        w = rng.integers(1, 4, m).astype(np.float64) if integer else rng.uniform(0.1, 3.0, m)
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), w, rng.integers(1, 4, n))
        k = int(rng.integers(2, 6))
        parts = rng.integers(0, k, n)
        start = parts.copy()
        caps = np.full(k, 1.3 * g.node_values.sum() / k)
        _refine(g, parts, caps, np.zeros(k), np.ones(k, dtype=np.int64), 8)
        if len(tables) > built:
            check(g, parts)  # and as the last round left them
            moved += np.count_nonzero(parts != start)
    assert len(tables) >= 25 and len(calls) > len(tables) and moved > 0


def test_refine_memory_is_linear_in_arcs():
    # 20k nodes and 200 parts: node-by-part tables would take 64 MB, so the
    # arcs are summed per round instead
    rng = np.random.default_rng(3)
    n, m, k = 20000, 100000, 200
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.1, 1.0, m))
    parts = rng.integers(0, k, n)
    tracemalloc.start()
    try:
        _refine(g, parts, np.full(k, 110.0), np.zeros(k), np.ones(k, dtype=np.int64), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * g.arc_count < 8 * n * k


def test_many_parts_on_a_mid_size_graph():
    rng = np.random.default_rng(4)
    n, m, k = 20000, 100000, 200
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.1, 1.0, m))
    parts = kway_partition(CoarseGraph.wrap(g), k, BisectConfig())
    sizes = parts.part_sizes()
    assert len(sizes) == k
    assert sizes.max() <= 1.1 * math.ceil(n / k)
    assert sizes.min() >= 0.5 * n / k  # refinement must not drain parts


def test_rebalance_meets_the_cap_on_unit_values():
    rng = np.random.default_rng(12)
    for trial in range(10):
        n = int(rng.integers(20, 80))
        m = int(rng.integers(n, 4 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
        k = int(rng.integers(2, 7))
        # a lopsided start: most nodes in part 0, every part non-empty
        parts = np.where(rng.random(n) < 0.7, 0, rng.integers(0, k, n))
        parts[:k] = np.arange(k)
        caps = np.full(k, 1.1 * math.ceil(n / k))
        _rebalance(g, parts, caps, np.zeros(k), np.ones(k, dtype=np.int64))
        sizes = np.bincount(parts, minlength=k)
        assert sizes.max() <= caps[0] and sizes.min() >= 1
    # a path whose over-cap part borders only a full part: the moves must go further
    g = from_edges(12, np.arange(11), np.arange(1, 12))
    parts = np.array([0] * 6 + [1] * 4 + [2] * 2)
    _rebalance(g, parts, np.full(3, 4.4), np.zeros(3), np.ones(3, dtype=np.int64))
    assert np.bincount(parts, minlength=3).tolist() == [4, 4, 4]


def test_bisection_balances_nonuniform_node_values():
    rng = np.random.default_rng(71)
    for trial in range(8):
        n = int(rng.integers(10, 40))
        m = int(rng.integers(n, 4 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.1, 2.0, m))
        values = rng.integers(1, 20, n)
        g = g.with_node_values(values)
        parts = kway_partition(CoarseGraph.wrap(g), 2, BisectConfig(epsilon=0.1, seed=trial))
        total = int(values.sum())
        cap = 1.1 * math.ceil(total / 2)
        loads = [int(values[parts.assignment == s].sum()) for s in (0, 1)]
        if max(values) <= cap:  # otherwise balance is structurally infeasible
            assert max(loads) <= cap


def test_refinement_pass_never_increases_cut():
    # seeds 16 and 279 each include a start where a filtered batch alone would
    # raise the cut (16 with the filter ahead of admission, 279 with it after)
    for seed in (41, 16, 279):
        rng = np.random.default_rng(seed)
        for trial in range(10):
            n = int(rng.integers(8, 30))
            m = int(rng.integers(n, 4 * n))
            g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                           rng.uniform(0.1, 3.0, m))
            k = 2 + trial % 3
            parts = rng.integers(0, k, n)
            parts[:k] = np.arange(k)
            caps = np.full(k, float(n))
            floors = np.ones(k, dtype=np.int64)
            for _ in range(4):
                before = cut_weight(g, parts)
                _refine(g, parts, caps, np.zeros(k), floors, 1)
                after = cut_weight(g, parts)
                assert after <= before + 1e-12
                assert np.bincount(parts, minlength=k).min() >= 1


def test_cut_change_counts_each_edge_once():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(n, 6 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.1, 3.0, m))
        parts = rng.integers(0, 4, n)
        # a dense set of movers, so many edges join two of them
        movers = np.flatnonzero(rng.random(n) < 0.6)
        target = parts.copy()
        target[movers] = (parts[movers] + rng.integers(1, 4, len(movers))) % 4
        change = kway._cut_change(g, rng.permutation(movers), parts, target)
        assert change == pytest.approx(2 * (cut_weight(g, target) - cut_weight(g, parts)))


def test_refinement_keeps_parts_above_their_value_floor():
    # on a random graph every cut-reducing move drains some part; the floor stops it
    rng = np.random.default_rng(23)
    n, m, k = 400, 4000, 4
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.1, 1.0, m))
    lows = np.full(k, 90.0)
    parts = rng.permutation(np.arange(n) % k)
    unbounded = parts.copy()
    _refine(g, unbounded, np.full(k, 110.0), np.zeros(k), np.ones(k, dtype=np.int64), 20)
    _refine(g, parts, np.full(k, 110.0), lows, np.ones(k, dtype=np.int64), 20)
    assert np.bincount(unbounded, minlength=k).min() < lows[0]
    sizes = np.bincount(parts, minlength=k)
    assert sizes.min() >= lows[0] and sizes.max() <= 110


@pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf"), float("-inf")])
def test_bisect_config_rejects_a_negative_or_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        BisectConfig(epsilon=epsilon)


def test_infeasible_requests_raise():
    g = generate(GeneratorSpec("ring", (4,)))
    with pytest.raises(InfeasibleError):
        kway_partition(CoarseGraph.wrap(g), 5, BisectConfig())
    with pytest.raises(InfeasibleError):
        kway_partition(CoarseGraph.wrap(g), 0, BisectConfig())


def test_partition_is_deterministic():
    g = generate(GeneratorSpec("random_weighted", (50, 180, 0.1, 1.0), seed=6))
    a = kway_partition(CoarseGraph.wrap(g), 4, BisectConfig(seed=2))
    b = kway_partition(CoarseGraph.wrap(g), 4, BisectConfig(seed=2))
    assert np.array_equal(a.assignment, b.assignment)


def test_infeasible_balance_is_flagged_not_fatal(caplog):
    # one node holds most of the value; no bisection can respect the cap
    g = from_edges(3, [0, 1], [1, 2]).with_node_values([10, 1, 1])
    with caplog.at_level(logging.WARNING, logger="lppart.kway"):
        parts = kway_partition(CoarseGraph.wrap(g), 2, BisectConfig(epsilon=0.1, seed=1))
    assert parts.num_parts == 2
    assert np.all(parts.part_sizes() > 0)
    assert any("infeasible" in rec.message for rec in caplog.records)


def test_infeasible_balance_logs_one_line_per_call(caplog):
    # a hub heavier than the per-part cap; every bisection on its side is infeasible
    n = 40
    values = np.ones(n, dtype=np.int64)
    values[0] = 60
    g = from_edges(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n), node_values=values)
    with caplog.at_level(logging.WARNING, logger="lppart.kway"):
        parts = kway_partition(CoarseGraph.wrap(g), 4, BisectConfig(epsilon=0.1, seed=1))
    lines = [rec.getMessage() for rec in caplog.records if "infeasible" in rec.getMessage()]
    cap = 1.1 * math.ceil(values.sum() / 4)
    assert lines == [f"k-way balance infeasible: the heaviest part carries 60, "
                     f"{60 / cap:.3f} of the per-part cap {cap:.1f}"]
    assert np.all(parts.part_sizes() > 0)


def test_one_hierarchy_per_call(monkeypatch):
    # one clustering per level of one hierarchy; bisection only on the coarsest graph
    clustered, contracted, split = [], [], []
    real_cluster, real_coarsen, real_split = (kway.heavy_edge_clustering, kway.coarsen,
                                              kway.induced_subgraph)

    def cluster(g, *args, **kwargs):
        clustered.append(g.node_count)
        return real_cluster(g, *args, **kwargs)

    def contract(parts, mode, g):
        coarse = real_coarsen(parts, mode, g)
        contracted.append(coarse.graph.node_count)
        return coarse

    def induced(g, nodes):
        split.append(g.node_count)
        return real_split(g, nodes)

    monkeypatch.setattr(kway, "heavy_edge_clustering", cluster)
    monkeypatch.setattr(kway, "coarsen", contract)
    monkeypatch.setattr(kway, "induced_subgraph", induced)
    g = _grid(100)
    parts = kway_partition(CoarseGraph.wrap(g), 16, BisectConfig())
    assert 0 < len(clustered) <= kway._MAX_LEVELS
    assert contracted and split
    assert max(split) <= contracted[-1] <= 20 * 16
    assert parts.part_sizes().max() <= 1.1 * math.ceil(g.node_count / 16)


def test_components_are_found_once_per_bisection(monkeypatch):
    calls, bisections = [], []
    real_components, real_bisect = kway._components, kway._bisect
    monkeypatch.setattr(kway, "_components",
                        lambda g: calls.append(real_components(g)) or calls[-1])
    monkeypatch.setattr(kway, "_bisect", lambda *args: bisections.append(1) or real_bisect(*args))
    # disjoint triangles: each clusters into a node without an edge, and packing
    # those up to the cluster mass limit still leaves many components
    b = 3 * np.arange(200)
    g = from_edges(600, np.concatenate([b, b + 1, b]), np.concatenate([b + 1, b + 2, b + 2]))
    kway_partition(CoarseGraph.wrap(g), 8, BisectConfig())
    assert len(bisections) == 7
    assert len(calls) == len(bisections)
    assert calls[0][1] >= 4 * 8  # the coarsest graph's components


def _components_reference(g):
    """Depth-first search from each unvisited node in index order."""
    comp = np.full(g.node_count, -1, dtype=np.int64)
    count = 0
    for s in range(g.node_count):
        if comp[s] >= 0:
            continue
        comp[s] = count
        stack = [s]
        while stack:
            for v in neighbors(g, stack.pop()).tolist():
                if comp[v] < 0:
                    comp[v] = count
                    stack.append(v)
        count += 1
    return comp, count


def test_components_match_depth_first_search():
    rng = np.random.default_rng(11)
    graphs = []
    for _ in range(30):
        n = int(rng.integers(1, 300))
        m = int(rng.integers(0, 2 * n))
        graphs.append(from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m)))
    # a long path with shuffled ids takes many hooking rounds
    perm = rng.permutation(100000)
    graphs.append(from_edges(100000, perm[:-1], perm[1:]))
    for g in graphs:
        comp, count = kway._components(g)
        expected, expected_count = _components_reference(g)
        assert count == expected_count
        assert comp.tolist() == expected.tolist()


def _bfs_levels_reference(g, start):
    """Breadth-first search from ``start`` with a FIFO queue."""
    level = [-1] * g.node_count
    level[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in neighbors(g, u).tolist():
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _random_split_inputs(rng, trials):
    """Random graphs, many of them disconnected, with integer weights and values."""
    for _ in range(trials):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(0, 3 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.integers(1, 3, m).astype(np.float64), rng.integers(1, 6, n))
        yield g


def test_bfs_levels_match_a_queue_search():
    rng = np.random.default_rng(41)
    components = set()
    for g in _random_split_inputs(rng, 60):
        start = int(rng.integers(g.node_count))
        assert kway._bfs_levels(g, start).tolist() == _bfs_levels_reference(g, start)
        components.add(kway._components(g)[1] > 1)
    assert components == {True, False}


def _initial_side_reference(g, comp, ncomp, target0, caps, floors, seed):
    """The contract replayed node by node: pack whole components, then grow
    side 0 along the BFS queue while the loop condition holds."""
    n, vals, comp = g.node_count, g.node_values.tolist(), comp.tolist()
    comp_val, comp_cnt = [0.0] * ncomp, [0] * ncomp
    for u in range(n):
        comp_val[comp[u]] += vals[u]
        comp_cnt[comp[u]] += 1
    load, assigned, packed = 0.0, 0, set()
    for c in sorted(range(ncomp), key=lambda c: (-comp_val[c], c)):
        if load >= target0:
            break
        if load + comp_val[c] <= target0 + 1e-9 and assigned + comp_cnt[c] <= n - floors[1]:
            load += comp_val[c]
            assigned += comp_cnt[c]
            packed.add(c)
    side = [0 if comp[u] in packed else 1 for u in range(n)]
    if (0 < assigned and floors[0] <= assigned <= n - floors[1] and load <= caps[0]
            and sum(vals) - load <= caps[1]):
        return side, False
    grown = min((c for c in range(ncomp) if c not in packed), key=lambda c: (-comp_val[c], c))
    members = [u for u in range(n) if comp[u] == grown]
    around = _bfs_levels_reference(g, members[np.random.default_rng(seed).integers(len(members))])
    level = _bfs_levels_reference(g, max(range(n), key=lambda u: (around[u], -u)))

    def pull(u):  # weight to the nodes one hop closer to the start
        pairs = zip(neighbors(g, u).tolist(), neighbor_weights(g, u).tolist())
        return sum(w for v, w in pairs if level[v] == level[u] - 1)

    queue = sorted((u for u in range(n) if level[u] >= 0), key=lambda u: (level[u], -pull(u), u))
    queue += sorted((u for u in range(n) if level[u] < 0 and side[u] == 1),
                    key=lambda u: (-vals[u], u))
    for u in queue:
        if not ((load < target0 and assigned < n - floors[1]) or assigned < floors[0]):
            break
        side[u] = 0
        load += vals[u]
        assigned += 1
    return side, True


def test_initial_side_grows_the_longest_prefix_the_loop_allows():
    rng = np.random.default_rng(43)
    paths = set()
    for g in _random_split_inputs(rng, 120):
        n = g.node_count
        seed = int(rng.integers(1 << 30))
        k1 = int(rng.integers(1, n))  # a floor near n grows past the start's component
        k2 = int(rng.integers(1, n - k1 + 1))
        cap = float(rng.uniform(1.0, 1.3)) * g.node_values.sum() / (k1 + k2)
        comp, ncomp = kway._components(g)
        args = (comp, ncomp, g.node_values.sum() * k1 / (k1 + k2), (cap * k1, cap * k2),
                (k1, k2), seed)
        side = kway._initial_side(g, *args)
        expected, grew = _initial_side_reference(g, *args)
        assert side.tolist() == expected
        assert np.count_nonzero(side == 0) >= k1 and np.count_nonzero(side == 1) >= k2
        paths.add(grew)
    assert paths == {True, False}  # packing alone balanced some splits, growth the rest


def test_bisection_runs_each_distinct_start_once(monkeypatch):
    starts = []
    real_rebalance = kway._rebalance
    monkeypatch.setattr(kway, "_rebalance", lambda g, parts, *a: starts.append(parts.tobytes())
                        or real_rebalance(g, parts, *a))
    # two equal disjoint paths: packing balances the split, so every attempt agrees
    kway._bisect(from_edges(8, [0, 1, 2, 4, 5, 6], [1, 2, 3, 5, 6, 7]), 1, 1, 4.4, 0.0, 1)
    assert len(starts) == 1
    for seed in range(5):
        starts.clear()
        kway._bisect(_grid(6), 1, 1, 19.8, 0.0, seed)
        assert 1 <= len(starts) <= 4 and len(set(starts)) == len(starts)


def test_isolated_nodes_do_not_stop_matching(monkeypatch):
    # nodes without an edge are packed into clusters, so they neither end the
    # hierarchy early nor crowd the coarsest graph
    split = []  # the graph of every recursive split, the coarsest graph first
    real_recurse = kway._recurse
    monkeypatch.setattr(kway, "_recurse", lambda g, *args: split.append(g) or real_recurse(g, *args))
    core = generate(GeneratorSpec("random_weighted", (2000, 40000, 0.1, 1.0), seed=3))
    g = from_edges(20000, *core.edge_array())  # plus 18000 isolated nodes
    kway_partition(CoarseGraph.wrap(g), 4, BisectConfig())
    coarsest = split[0]
    assert coarsest.node_count <= 20 * 4
    lone = coarsest.degrees == 0
    assert coarsest.node_values[lone].sum() == 18000
    max_mass = kway.per_part_cap(g.node_count, 4, 0.1) / 4  # the heaviest cluster kway builds
    assert np.count_nonzero(lone) <= math.ceil(18000 / max_mass) + 1


@pytest.mark.parametrize("values, epsilon", [
    ([1] * 10001, 4.0),  # max_mass = C / 4 is above W / k: 13 packed clusters
    ([687] + [1] * 9313, 0.1),  # max_mass is the 687-mass node, just under C: 15 clusters
])
def test_mostly_isolated_input_fills_every_part(values, epsilon):
    # packing nodes without an edge up to max_mass can leave fewer clusters than
    # parts; the hierarchy must not use such a level, or some parts stay empty
    g = from_edges(len(values), [], [], node_values=values)
    parts = kway_partition(CoarseGraph.wrap(g), 16, BisectConfig(epsilon=epsilon))
    assert parts.num_parts == 16
    assert (parts.part_sizes() > 0).all()


def test_kway_with_k_equal_to_node_count():
    g = generate(GeneratorSpec("ring", (6,)))
    parts = kway_partition(CoarseGraph.wrap(g), 6, BisectConfig(seed=3))
    assert sorted(parts.assignment.tolist()) == list(range(6))
