import functools
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from lppart import graph, kway
from lppart.generate import GeneratorSpec, generate
from lppart.graph import WeightedGraph, _csr_from_canonical, from_edges, induced_subgraph
from lppart.labelprop import (LabelState, LpParams, edge_retention, multilevel_label_prop,
                              plain_lpa, vote_update)
from lppart.pipeline import PartitionConfig, partition_graph
from lppart.seeding import edge_uniform, pair_hash64


def _edge_set(g):
    u, v, _ = g.edge_array()
    return set(zip(u.tolist(), v.tolist()))


def _vote_reference(g, labels, order, plain=False):
    """Sequential synchronous vote used as an oracle; ``order`` must not matter."""
    new = labels.copy()
    for i in order:
        scores = {}
        for j, w in zip(g.neighbors(i), g.neighbor_weights(i)):
            lab = int(labels[j])
            inc = 1.0 if plain else w / g.node_values[j]
            scores[lab] = scores.get(lab, 0.0) + inc
        if not scores:
            continue
        best = max(scores.values())
        winners = sorted(lab for lab, s in scores.items() if s == best)
        if plain:
            new[i] = winners[0]
        elif int(labels[i]) in winners:
            new[i] = labels[i]
        else:
            hashes = pair_hash64(np.full(len(winners), i, dtype=np.int64),
                                 np.asarray(winners, dtype=np.int64))
            new[i] = winners[int(np.lexsort((winners, hashes))[0])]
    return new


# Verbatim copies of the sort-based vote and prune that the segment-max vote
# and the mask-filter prune replaced; the sweep below requires identical bytes.
def _sorted_edge_retention(g: WeightedGraph, params: LpParams, iteration: int) -> WeightedGraph:
    """Pre-rewrite pruning (argsort pair collapse, CSR rebuilt by sorting); oracle only."""
    if g.arc_count == 0:
        return g
    src = g.arc_sources()
    dst = g.neighbor_targets
    w = g.edge_weights
    wdeg = np.bincount(src, weights=w, minlength=g.node_count)
    keep = (w / wdeg[src]) >= params.p_ratio

    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    if params.p_bound > 0.0:
        keep = keep | (edge_uniform(params.seed, iteration, u, v) < params.p_bound)

    # collapse the two directional decisions of each undirected edge with OR
    order = np.argsort(u * np.int64(g.node_count) + v, kind="stable")
    k = keep[order]
    survive = k[0::2] | k[1::2]
    eu = u[order][0::2][survive]
    ev = v[order][0::2][survive]
    ew = w[order][0::2][survive]
    return _csr_from_canonical(g.node_count, eu, ev, ew, node_values=g.node_values)


def _sorted_vote_update(g: WeightedGraph, state: LabelState, plain: bool = False) -> LabelState:
    """Pre-rewrite vote (5-key lexsort over all groups); oracle only."""
    labels = np.asarray(state.labels, dtype=np.int64)
    if labels.shape != (g.node_count,):
        raise ValueError("label array does not match graph")
    new_labels = labels.copy()
    if g.arc_count == 0:
        return LabelState(new_labels, state.iteration + 1)

    src = g.arc_sources()
    dst = g.neighbor_targets
    if plain:
        contrib = np.ones(g.arc_count, dtype=np.float64)
    else:
        contrib = g.edge_weights / g.node_values[dst]
    lab = labels[dst]

    lab_span = int(lab.max()) + 1 if len(lab) else 1
    if lab_span < 2**62 // max(g.node_count, 1) and lab.min() >= 0:
        order = np.argsort(src * np.int64(lab_span) + lab, kind="stable")
    else:
        order = np.lexsort((lab, src))
    s_s, l_s, c_s = src[order], lab[order], contrib[order]
    boundary = np.concatenate(([True], (s_s[1:] != s_s[:-1]) | (l_s[1:] != l_s[:-1])))
    starts = np.flatnonzero(boundary)
    scores = np.add.reduceat(c_s, starts)
    g_src = s_s[starts]
    g_lab = l_s[starts]

    if plain:
        pick = np.lexsort((g_lab, -scores, g_src))
    else:
        keep_current = (g_lab != labels[g_src]).astype(np.int8)
        pick = np.lexsort((g_lab, pair_hash64(g_src, g_lab), keep_current, -scores, g_src))
    first = np.concatenate(([True], g_src[pick][1:] != g_src[pick][:-1]))
    winners = pick[first]
    new_labels[g_src[winners]] = g_lab[winners]
    return LabelState(new_labels, state.iteration + 1)


def test_retention_four_cycle_drops_weak_edges():
    # relative weights: the 0.1 edges score 0.1 from both endpoints
    g = from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], [0.9, 0.1, 0.9, 0.1])
    pruned = edge_retention(g, LpParams(p_ratio=0.5, p_bound=0.0), iteration=0)
    assert _edge_set(pruned) == {(0, 1), (2, 3)}


def test_retention_keeps_degree_one_edges():
    # star: every leaf sees relative weight 1 regardless of p_ratio
    g = from_edges(5, [0, 0, 0, 0], [1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4])
    for ratio in (0.5, 0.9, 1.0):
        pruned = edge_retention(g, LpParams(p_ratio=ratio, p_bound=0.0), iteration=0)
        assert pruned.edge_count == 4


def test_retention_matches_per_endpoint_enumeration_with_zero_bound():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(4, 50))
        m = int(rng.integers(n, 3 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.05, 2.0, m))
        ratio = float(rng.uniform(0.1, 0.9))
        pruned = edge_retention(g, LpParams(p_ratio=ratio, p_bound=0.0), iteration=0)
        wdeg = np.zeros(n)
        for i in range(n):
            wdeg[i] = g.neighbor_weights(i).sum()
        expected = set()
        u, v, w = g.edge_array()
        for a, b, ww in zip(u, v, w):
            if ww / wdeg[a] >= ratio or ww / wdeg[b] >= ratio:
                expected.add((int(a), int(b)))
        assert _edge_set(pruned) == expected


def test_retention_random_draws_are_per_edge_and_reproducible():
    g = generate(GeneratorSpec("complete_bipartite", (6, 6)))
    params = LpParams(p_ratio=0.9, p_bound=0.3, seed=17)
    a = edge_retention(g, params, iteration=0)
    b = edge_retention(g, params, iteration=0)
    c = edge_retention(g, params, iteration=1)
    assert _edge_set(a) == _edge_set(b)
    assert _edge_set(a) != _edge_set(c)  # fresh draws each round


def test_vote_weighted_example_beats_frequency():
    # one neighbor contributes 0.026, two others 0.01 + 0.003 = 0.013
    g = from_edges(4, [0, 0, 0], [1, 2, 3], [0.026, 0.01, 0.003])
    labels = np.array([0, 50, 60, 60])
    out = vote_update(g, LabelState(labels))
    assert out.labels[0] == 50
    # same scores expressed through node values instead of raw weights
    g2 = from_edges(4, [0, 0, 0], [1, 2, 3], [0.052, 0.03, 0.012]).with_node_values([1, 2, 3, 4])
    out2 = vote_update(g2, LabelState(labels))
    assert out2.labels[0] == 50


def test_vote_single_candidate_label_wins():
    g = from_edges(3, [0, 0], [1, 2], [1.0, 2.0])
    out = vote_update(g, LabelState(np.array([9, 4, 4])))
    assert out.labels[0] == 4


def test_vote_tie_prefers_current_label_else_hash_pick():
    g = from_edges(3, [0, 0], [1, 2], [0.5, 0.5])
    # both labels score exactly 0.5 at node 0
    out = vote_update(g, LabelState(np.array([7, 7, 3])))
    assert out.labels[0] == 7  # current label among the maximizers
    out2 = vote_update(g, LabelState(np.array([9, 7, 3])))
    assert out2.labels[0] in (3, 7)  # hash-resolved, but always the same way
    again = vote_update(g, LabelState(np.array([9, 7, 3])))
    assert again.labels[0] == out2.labels[0]


def test_vote_isolated_node_keeps_label():
    g = from_edges(3, [0], [1])
    out = vote_update(g, LabelState(np.array([5, 6, 42])))
    assert out.labels[2] == 42


def test_vote_is_synchronous_and_order_independent():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(n, 3 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.1, 2.0, m))
        if trial % 2:
            g = g.with_node_values(rng.integers(1, 9, n))
        labels = rng.integers(0, n, n)
        fwd = _vote_reference(g, labels, range(n))
        bwd = _vote_reference(g, labels, range(n - 1, -1, -1))
        assert np.array_equal(fwd, bwd)
        assert np.array_equal(vote_update(g, LabelState(labels)).labels, fwd)


def test_multilevel_two_triangles_matches_components():
    g = from_edges(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    parts = multilevel_label_prop(g, LpParams(p_bound=0.0, seed=1))
    assert parts.num_parts == 2
    assert len(set(parts.assignment[:3])) == 1
    assert len(set(parts.assignment[3:])) == 1
    assert parts.assignment[0] != parts.assignment[3]


def test_multilevel_planted_cliques_recovered():
    # without pruning the third voting round makes each clique label-uniform
    g = generate(GeneratorSpec("planted_partition", (2, 50, 1.0, 0.0), seed=1))
    parts = multilevel_label_prop(g, LpParams(p_bound=1.0, seed=1))
    assert parts.num_parts == 2
    for block in (g.planted_blocks == 0, g.planted_blocks == 1):
        assert len(np.unique(parts.assignment[block])) == 1


def test_multilevel_communities_never_straddle_components():
    for seed in range(1, 11):
        g = generate(GeneratorSpec("planted_partition", (2, 50, 1.0, 0.0), seed=seed))
        parts = multilevel_label_prop(g, LpParams(seed=seed))
        own = set(np.unique(parts.assignment[g.planted_blocks == 0]))
        other = set(np.unique(parts.assignment[g.planted_blocks == 1]))
        assert not (own & other)


def test_multilevel_labels_stabilize_quickly_on_test_graphs():
    g = from_edges(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    _, hist = multilevel_label_prop(g, LpParams(p_bound=0.0, t_iterations=3, seed=2),
                                    return_history=True)
    assert len(hist) == 4
    assert np.array_equal(hist[2], hist[3])  # fixed from round 3 onward


def test_multilevel_determinism_and_caller_graph_untouched():
    g = generate(GeneratorSpec("random_weighted", (60, 200, 0.1, 1.0), seed=8))
    before = g.neighbor_targets.copy()
    p1 = multilevel_label_prop(g, LpParams(seed=11))
    p2 = multilevel_label_prop(g, LpParams(seed=11))
    assert np.array_equal(p1.assignment, p2.assignment)
    assert p1.num_parts == p2.num_parts
    assert np.array_equal(g.neighbor_targets, before)
    assert p1.num_parts <= g.node_count
    assert len(p1.assignment) == g.node_count


def test_multilevel_labels_compacted_to_contiguous_range():
    g = generate(GeneratorSpec("random_weighted", (40, 90, 0.1, 1.0), seed=2))
    parts = multilevel_label_prop(g, LpParams(seed=5))
    assert set(np.unique(parts.assignment)) == set(range(parts.num_parts))


def test_plain_lpa_oscillates_on_complete_bipartite():
    g = generate(GeneratorSpec("complete_bipartite", (8, 8)))
    init = np.array([0] * 8 + [1] * 8)
    hist = plain_lpa(g, init, rounds=12)
    for i in range(10):
        assert np.array_equal(hist[i], hist[i + 2])
        assert not np.array_equal(hist[i], hist[i + 1])


def test_params_validation():
    with pytest.raises(ValueError):
        LpParams(p_ratio=1.5)
    with pytest.raises(ValueError):
        LpParams(p_bound=-0.1)
    with pytest.raises(ValueError):
        LpParams(t_iterations=0)


def test_retention_matches_full_rule_oracle_with_random_bound():
    # survival rule: either endpoint clears p_ratio, or the per-edge draw wins
    rng = np.random.default_rng(63)
    for trial in range(10):
        n = int(rng.integers(5, 40))
        m = int(rng.integers(n, 3 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.05, 2.0, m))
        params = LpParams(p_ratio=0.6, p_bound=0.25, seed=trial)
        for iteration in (0, 1, 5):
            pruned = edge_retention(g, params, iteration)
            wdeg = np.array([g.neighbor_weights(i).sum() for i in range(n)])
            u, v, w = g.edge_array()
            draws = edge_uniform(params.seed, iteration, u, v)
            keep = (w / wdeg[u] >= 0.6) | (w / wdeg[v] >= 0.6) | (draws < 0.25)
            expected = set(zip(u[keep].tolist(), v[keep].tolist()))
            pu, pv, _ = pruned.edge_array()
            assert set(zip(pu.tolist(), pv.tolist())) == expected


def test_edge_uniform_is_deterministic_and_well_spread():
    u = np.repeat(np.arange(200, dtype=np.int64), 200)
    v = np.tile(np.arange(200, dtype=np.int64), 200)
    a = edge_uniform(7, 0, u, v)
    b = edge_uniform(7, 0, u, v)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 0.01
    assert not np.array_equal(a, edge_uniform(7, 1, u, v))
    assert not np.array_equal(a, edge_uniform(8, 0, u, v))


def test_vote_rejects_mismatched_state():
    g = from_edges(3, [0], [1])
    with pytest.raises(ValueError, match="label array"):
        vote_update(g, LabelState(np.array([0, 1])))


def test_vote_handles_huge_label_values():
    # labels outside [0, node_count) enter the packed (node, label) keys by rank
    g = from_edges(4, [0, 0, 1], [1, 2, 3], [1.0, 2.0, 1.5])
    big = np.array([2**61, 2**61 + 5, 3, 2**61 + 5])
    out = vote_update(g, LabelState(big.copy()))
    fwd = _vote_reference(g, big, range(4))
    assert np.array_equal(out.labels, fwd)


def _oracle_graphs():
    """Seeded sweep: weighted, unweighted (mass ties), node values, isolated nodes."""
    rng = np.random.default_rng(2024)
    for trial in range(60):
        n = int(rng.integers(2, 120))
        m = int(rng.integers(0, 4 * n))
        kind = trial % 4
        if kind == 1:  # unweighted: every round is full of exact ties
            w = None
        elif kind == 3:  # few distinct weights: ties between summed scores
            w = rng.choice([0.25, 0.5, 1.0], m)
        else:
            w = rng.uniform(0.05, 2.0, m)
        # the top 10% of ids never get an edge, so isolated nodes are common
        span = max(1, int(n * 0.9))
        g = from_edges(n, rng.integers(0, span, m), rng.integers(0, span, m), w)
        if trial % 3 == 2:
            g = g.with_node_values(rng.integers(1, 7, n))
        yield trial, g, rng


def _oracle_label_sets(g, rng):
    n = g.node_count
    yield np.arange(n, dtype=np.int64)
    yield rng.integers(0, max(2, n // 8), n)  # few labels: the current label often ties
    yield rng.integers(0, 3, n) * np.int64(2**61) + rng.integers(0, 2, n)  # huge labels


def test_vote_matches_sort_oracle_bit_for_bit():
    for trial, g, rng in _oracle_graphs():
        for labels in _oracle_label_sets(g, rng):
            for plain in (False, True):
                want = _sorted_vote_update(g, LabelState(labels.copy()), plain=plain)
                got = vote_update(g, LabelState(labels.copy()), plain=plain)
                assert got.labels.dtype == want.labels.dtype
                assert np.array_equal(got.labels, want.labels), (trial, plain)
                assert got.iteration == want.iteration


def _assert_same_graph(got, want):
    for name in ("neighbor_offsets", "neighbor_targets", "edge_weights", "node_values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.node_count == want.node_count


def test_retention_matches_sort_oracle_bit_for_bit():
    for trial, g, rng in _oracle_graphs():
        for ratio, bound in ((0.5, 0.1), (0.3, 0.0), (0.9, 0.5), (1.0, 1.0), (0.0, 0.0)):
            params = LpParams(p_ratio=ratio, p_bound=bound, seed=trial)
            for iteration in (0, 3):
                _assert_same_graph(edge_retention(g, params, iteration),
                                   _sorted_edge_retention(g, params, iteration))


def test_label_prop_rounds_match_sort_oracle():
    # chained rounds feed pruned graphs and voted labels back in, as LP does
    for trial, g, rng in _oracle_graphs():
        params = LpParams(seed=trial)
        state = want = LabelState.initial(g)
        work = want_work = g
        for it in range(4):
            state = vote_update(work, state)
            want = _sorted_vote_update(want_work, want)
            assert np.array_equal(state.labels, want.labels), (trial, it)
            work = edge_retention(work, params, it)
            want_work = _sorted_edge_retention(want_work, params, it)
            _assert_same_graph(work, want_work)


def _block_cases():
    """The oracle sweep plus a hub row, trailing isolated nodes and a graph with no arcs.

    Each case is a graph, its label sets and whether to partition it whole:
    every tenth oracle graph and the three others are.
    """
    for trial, g, rng in _oracle_graphs():
        yield g, list(_oracle_label_sets(g, rng)), trial % 10 == 0
    rng = np.random.default_rng(77)
    hub = from_edges(300, np.r_[np.zeros(150, dtype=np.int64), rng.integers(1, 300, 400)],
                     np.r_[np.arange(150, 300), rng.integers(1, 300, 400)],
                     rng.uniform(0.1, 1.0, 550))
    trailing = from_edges(90, rng.integers(0, 30, 120), rng.integers(0, 30, 120))
    empty = from_edges(12, [], [])
    for g in (hub, trailing, empty):
        yield g, [np.arange(g.node_count), rng.integers(0, 4, g.node_count)], True


def _block_outputs(g, label_sets, whole):
    """Every array the row-blocked passes produce on ``g``."""
    out = []
    for labels in label_sets:
        for plain in (False, True):
            out.append(vote_update(g, LabelState(labels.copy()), plain=plain).labels)
        out += kway._part_table(g, labels % 3, 3)
    for ratio, bound in ((0.5, 0.1), (0.3, 0.0), (1.0, 1.0)):
        pruned = edge_retention(g, LpParams(p_ratio=ratio, p_bound=bound), 1)
        out += [pruned.neighbor_offsets, pruned.neighbor_targets, pruned.edge_weights]
    u, v, w = g.edge_array()
    out += [u, v, w]
    rebuilt = from_edges(g.node_count, np.r_[v, u], np.r_[u, v], np.r_[w, w / 3])
    out += [rebuilt.neighbor_offsets, rebuilt.neighbor_targets, rebuilt.edge_weights]
    sub, _ = induced_subgraph(g, np.arange(0, g.node_count, 2))
    out += [sub.neighbor_offsets, sub.neighbor_targets, sub.edge_weights]
    for max_mass in (np.inf, 2.0):
        out += kway._pointers(g.with_node_values(np.arange(g.node_count) % 2 + 1), 5, max_mass)
    if whole:
        cfg = PartitionConfig(k=min(3, g.node_count), min_subgraph_warn=0)
        out.append(partition_graph(g, cfg).parts.assignment)
    return out


@functools.cache
def _default_block_outputs():
    """The cases and their outputs with the default block on one thread."""
    cases = list(_block_cases())
    with graph.worker_threads(1):
        return cases, [_block_outputs(*case) for case in cases]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_row_blocks_give_the_default_results(monkeypatch, block):
    cases, want = _default_block_outputs()
    assert max(int(g.degrees.max(initial=0)) for g, _, _ in cases) > 64  # the hub row
    monkeypatch.setattr(graph, "_ARC_BLOCK", block)
    n = len(cases)
    for threads in (1, 2, 8):
        # a block's work does not depend on the thread that runs it, so more
        # threads need only every third oracle graph, and the last three cases
        picked = range(n) if threads == 1 else [*range(0, n - 3, 3), n - 3, n - 2, n - 1]
        with graph.worker_threads(threads):
            for i in picked:
                for a, b in zip(_block_outputs(*cases[i]), want[i], strict=True):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (threads, i)


def test_vote_runs_in_a_forked_child_of_a_threaded_parent(monkeypatch):
    monkeypatch.setattr(graph, "_ARC_BLOCK", 64)
    g = generate(GeneratorSpec("random_weighted", (500, 2000, 0.1, 1.0), seed=3))
    state = LabelState.initial(g)
    with graph.worker_threads(2):
        want = vote_update(g, state).labels  # the parent's pool now has a worker
        pid = os.fork()
        if pid == 0:  # the child has no worker thread, so it must make its own pool
            code = 1
            try:
                code = 0 if np.array_equal(vote_update(g, state).labels, want) else 1
            finally:
                os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("vote_update hung in the forked child")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_vote_and_prune_memory_stays_within_a_few_blocks():
    # the whole-array vote peaked 188 MB above the graph here, the prune 94 MB
    g = generate(GeneratorSpec("random_weighted", (100000, 1000000, 0.1, 1.0), seed=1))
    state = LabelState.initial(g)
    tracemalloc.start()
    try:
        for step in (lambda: vote_update(g, state), lambda: edge_retention(g, LpParams(), 0)):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            step()
            assert tracemalloc.get_traced_memory()[1] - held < 64 * 2**20
    finally:
        tracemalloc.stop()
