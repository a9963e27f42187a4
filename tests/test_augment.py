import io
import math

import numpy as np
import pytest

from lppart import augment
from lppart.augment import (FeatureTable, PagerankParams, aggregate_features, concat_global,
                            lowest_pagerank_nodes, pagerank, read_feature_table,
                            refine_structure, write_feature_table)
from lppart.generate import GeneratorSpec, generate
from lppart.graph import PartitionMap, from_edges

from oracles import neighbors


def _dense_pagerank_oracle(g, alpha=0.85, iters=5000):
    """Independent dense fixed-point iteration, run to 1e-14."""
    n = g.node_count
    p = np.full(n, 1.0 / n)
    deg = g.degrees.astype(float)
    m = np.zeros((n, n))
    for i in range(n):
        for j in neighbors(g, i):
            m[j, i] = 1.0 / deg[i]
    dangling = deg == 0
    for _ in range(iters):
        nxt = (1 - alpha) / n + alpha * (m @ p + p[dangling].sum() / n)
        if np.abs(nxt - p).sum() < 1e-14:
            return nxt
        p = nxt
    return p


def test_pagerank_uniform_on_rings():
    for n in (3, 5, 8, 17):
        g = generate(GeneratorSpec("ring", (n,)))
        scores = pagerank(g)
        assert scores == pytest.approx(np.full(n, 1.0 / n), abs=1e-9)


def test_pagerank_path_center_dominates_and_matches_oracle():
    g = from_edges(3, [0, 1], [1, 2])
    scores = pagerank(g)
    assert scores[1] > scores[0]
    assert scores[0] == pytest.approx(scores[2])
    oracle = _dense_pagerank_oracle(g)
    assert scores == pytest.approx(oracle, abs=1e-9)


def test_pagerank_sums_to_one_and_respects_floor():
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(0, 3 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.1, 2.0, m))
        scores = pagerank(g)
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert scores.min() >= (1 - 0.85) / n - 1e-12
        oracle = _dense_pagerank_oracle(g)
        assert scores == pytest.approx(oracle, abs=1e-9)


def test_pagerank_handles_isolated_nodes():
    g = from_edges(4, [0], [1])  # nodes 2, 3 isolated
    scores = pagerank(g)
    assert scores.sum() == pytest.approx(1.0, abs=1e-9)
    assert scores[2] == pytest.approx(scores[3])
    assert pagerank(from_edges(3, [], [])) == pytest.approx(np.full(3, 1 / 3), abs=1e-12)


def _per_arc_pagerank(g, alpha=0.85):
    """``pagerank`` dividing each arc's share by its source's degree, arc by arc."""
    n, deg = g.node_count, g.degrees
    src, dst = g.arc_sources(), g.neighbor_targets
    pr = np.full(n, 1.0 / n)
    for _ in range(augment._PAGERANK_ROUNDS):
        share = np.bincount(dst, weights=pr[src] / deg[src], minlength=n)
        nxt = (1.0 - alpha) / n + alpha * (share + pr[deg == 0].sum() / n)
        done = np.abs(nxt - pr).sum() < augment._PAGERANK_TOL
        pr = nxt
        if done:
            break
    return pr


def test_pagerank_divides_once_per_node_with_the_same_bits():
    # 300 edges over 200 nodes leave some nodes isolated
    g = generate(GeneratorSpec("random_weighted", (200, 300, 0.1, 1.0), seed=4))
    assert (g.degrees == 0).any()
    for alpha in (0.85, 0.5):
        assert np.array_equal(pagerank(g, PagerankParams(alpha)), _per_arc_pagerank(g, alpha))


def test_pagerank_rejects_empty_graph_and_bad_params():
    with pytest.raises(ValueError):
        pagerank(from_edges(0, [], []))
    with pytest.raises(ValueError):
        PagerankParams(alpha=1.0)
    with pytest.raises(ValueError):
        PagerankParams(alpha=0.0)


def test_refine_nodes_removes_exact_count_of_lowest_scores():
    rng = np.random.default_rng(14)
    for trial in range(8):
        n = int(rng.integers(10, 50))
        m = int(rng.integers(n, 4 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.1, 2.0, m))
        frac = float(rng.choice([0.05, 0.1, 0.25]))
        refined, _ = refine_structure(g, frac, mode="nodes")
        removed = math.ceil(frac * n)
        assert refined.node_count == n - removed
        scores = pagerank(g)
        doomed = lowest_pagerank_nodes(g, frac)
        survivors = np.setdiff1d(np.arange(n), doomed)
        order = np.argsort(scores, kind="stable")
        assert np.array_equal(doomed, np.sort(order[:removed]))
        assert scores[doomed].max() <= scores[survivors].min() + 1e-15


def test_refine_removes_unique_lowest_pendant():
    # 19-node double ring plus one pendant hanging off node 0
    u = list(range(19)) + [0]
    v = [(i + 1) % 19 for i in range(19)] + [19]
    g = from_edges(20, u, v)
    scores = pagerank(g)
    assert np.argmin(scores) == 19
    refined, _ = refine_structure(g, 0.05, mode="nodes")
    assert refined.node_count == 19  # ceil(0.05 * 20) = 1
    assert refined.edge_count == 19  # the ring survives intact


def test_refine_fraction_zero_is_identity():
    g = generate(GeneratorSpec("random_weighted", (20, 40, 0.1, 1.0), seed=2))
    for mode in ("nodes", "edges"):
        refined, _ = refine_structure(g, 0.0, mode=mode)
        assert refined.node_count == g.node_count
        assert refined.edge_count == g.edge_count


def test_refine_edges_drops_lightest():
    g = from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], [0.5, 0.1, 0.9, 0.7])
    refined, _ = refine_structure(g, 0.25, mode="edges")  # ceil(0.25*4) = 1
    assert refined.edge_count == 3
    _, _, w = refined.edge_array()
    assert 0.1 not in w.tolist()


def test_refine_validation():
    g = from_edges(3, [0], [1])
    with pytest.raises(ValueError):
        refine_structure(g, 1.0)
    with pytest.raises(ValueError):
        refine_structure(g, 0.05, mode="arcs")


def test_aggregate_mean_and_sum():
    g = from_edges(4, [0, 2], [1, 3])
    parts = PartitionMap(np.array([0, 0, 1, 1]), 2)
    feats = FeatureTable(np.array([[1.0], [3.0], [10.0], [20.0]]))
    mean = aggregate_features(parts, feats)
    assert mean.rows.tolist() == [[2.0], [15.0]]
    total = aggregate_features(parts, feats, op="sum")
    assert total.rows.tolist() == [[4.0], [30.0]]


def test_aggregate_identical_rows_yield_that_row():
    g = from_edges(3, [0, 1], [1, 2])
    parts = PartitionMap(np.zeros(3, dtype=int), 1)
    feats = FeatureTable(np.tile([2.5, -1.0], (3, 1)))
    agg = aggregate_features(parts, feats)
    assert agg.rows.tolist() == [[2.5, -1.0]]


def test_aggregate_sum_conserves_column_totals():
    rng = np.random.default_rng(31)
    g = from_edges(30, rng.integers(0, 30, 50), rng.integers(0, 30, 50))
    parts = PartitionMap(rng.integers(0, 5, 30), 5)
    feats = FeatureTable(rng.normal(size=(30, 4)))
    agg = aggregate_features(parts, feats, op="sum")
    assert agg.rows.sum(axis=0) == pytest.approx(feats.rows.sum(axis=0), rel=1e-9)


def test_aggregate_dimension_mismatch():
    g = from_edges(3, [0], [1])
    parts = PartitionMap(np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError):
        aggregate_features(parts, FeatureTable(np.zeros((2, 3))))


def test_concat_global_shapes_and_round_trip():
    parts = PartitionMap(np.array([0, 1, 0]), 2)
    feats = FeatureTable(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    global_feats = FeatureTable(np.array([[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]]))
    joined = concat_global(feats, global_feats, parts)
    assert joined.dimension == 5
    assert np.array_equal(joined.rows[:, :2], feats.rows)
    assert joined.rows[1, 2:].tolist() == [10.0, 11.0, 12.0]
    zeros = FeatureTable(np.zeros((2, 3)))
    padded = concat_global(feats, zeros, parts)
    assert np.array_equal(padded.rows[:, :2], feats.rows)


def test_concat_global_requires_row_per_part():
    parts = PartitionMap(np.array([0, 1]), 2)
    feats = FeatureTable(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        concat_global(feats, FeatureTable(np.zeros((1, 2))), parts)


def test_feature_table_io_round_trip():
    table = FeatureTable(np.array([[1.5, -2.25], [0.125, 3.0]]))
    ids = np.array([10, 42])
    buf = io.StringIO()
    write_feature_table(table, buf, ids=ids)
    text = buf.getvalue()
    assert text.startswith("#dim 2\n")
    back, back_ids = read_feature_table(io.BytesIO(text.encode()))
    assert np.array_equal(back.rows, table.rows)
    assert np.array_equal(back_ids, ids)


def test_zero_dim_feature_rows_hold_only_the_id():
    buf = io.StringIO()
    write_feature_table(FeatureTable(np.empty((2, 0))), buf, ids=np.array([1, 2]))
    assert buf.getvalue() == "#dim 0\n1\n2\n"
    back, back_ids = read_feature_table(io.BytesIO(buf.getvalue().encode()))
    assert back.rows.shape == (2, 0)
    assert back_ids.tolist() == [1, 2]


def test_feature_table_validation():
    with pytest.raises(ValueError):
        FeatureTable(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        read_feature_table(io.BytesIO(b"#dim 2\n1\t0.5\n"))


def test_aggregate_tolerates_empty_parts():
    g = from_edges(2, [0], [1])
    parts = PartitionMap(np.array([0, 2]), 3)  # part 1 is empty
    feats = FeatureTable(np.array([[4.0], [8.0]]))
    agg = aggregate_features(parts, feats)
    assert agg.rows.tolist() == [[4.0], [0.0], [8.0]]
