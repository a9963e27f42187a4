import json
import math

import numpy as np
import pytest

from lppart.graph import PartitionMap, from_edges
from lppart.metrics import balance, build_report, edge_cut, intra_edge_counts, std_dev


def _brute_force_metrics(g, assignment, k):
    """Direct formula evaluation by edge enumeration (independent oracle)."""
    u, v, _ = g.edge_array()
    cut = 0
    intra = [0] * k
    for a, b in zip(u, v):
        if assignment[a] != assignment[b]:
            cut += 1
        else:
            intra[assignment[a]] += 1
    total = len(u)
    ec = cut / total if total else 0.0
    bal = max(intra) / (total / k) if total else 0.0
    counts = [0] * k
    for p in assignment:
        counts[p] += 1
    mu = len(assignment) / k
    std = math.sqrt(sum((c - mu) ** 2 for c in counts) / (k - 1)) if k >= 2 else 0.0
    return ec, bal, std


def test_edge_cut_triangle_split():
    g = from_edges(3, [0, 1, 2], [1, 2, 0])
    parts = PartitionMap(np.array([0, 0, 1]), 2)
    assert edge_cut(g, parts) == pytest.approx(2 / 3)


def test_edge_cut_single_part_and_edgeless():
    g = from_edges(3, [0, 1], [1, 2])
    assert edge_cut(g, PartitionMap(np.zeros(3, dtype=int), 1)) == 0.0
    empty = from_edges(3, [], [])
    assert edge_cut(empty, PartitionMap(np.array([0, 1, 0]), 2)) == 0.0


def test_balance_k1_is_exactly_one():
    g = from_edges(4, [0, 1, 2], [1, 2, 3])
    assert balance(g, PartitionMap(np.zeros(4, dtype=int), 1), 1) == 1.0


def test_balance_on_split_path():
    g = from_edges(4, [0, 1, 2], [1, 2, 3])
    parts = PartitionMap(np.array([0, 0, 1, 1]), 2)
    assert balance(g, parts, 2) == pytest.approx((1) / (3 / 2))


def test_balance_rejects_edgeless():
    g = from_edges(2, [], [])
    with pytest.raises(ValueError):
        balance(g, PartitionMap(np.array([0, 1]), 2), 2)


def test_std_dev_examples():
    even = PartitionMap(np.array([0] * 5 + [1] * 5), 2)
    assert std_dev(even, 2) == 0.0
    skew = PartitionMap(np.array([0] * 6 + [1] * 4), 2)
    assert std_dev(skew, 2) == pytest.approx(math.sqrt(2.0))
    # mu keeps the exact |V| / k even when sizes do not divide evenly
    three = PartitionMap(np.array([0, 0, 0, 0, 1, 1, 2]), 3)
    mu = 7 / 3
    expected = math.sqrt(((4 - mu) ** 2 + (2 - mu) ** 2 + (1 - mu) ** 2) / 2)
    assert std_dev(three, 3) == pytest.approx(expected)
    with pytest.raises(ValueError):
        std_dev(even, 1)


def test_std_dev_invariant_under_relabeling():
    parts = PartitionMap(np.array([0, 1, 2, 0, 1, 0]), 3)
    perm = np.array([2, 0, 1])
    relabeled = PartitionMap(perm[parts.assignment], 3)
    assert std_dev(parts, 3) == std_dev(relabeled, 3)


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(50)
    for trial in range(50):
        n = int(rng.integers(4, 64))
        m = int(rng.integers(1, 3 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.1, 2.0, m))
        k = int(rng.integers(2, 6))
        parts = PartitionMap(rng.integers(0, k, n), k)
        ec, bal, std = _brute_force_metrics(g, parts.assignment.tolist(), k)
        assert edge_cut(g, parts) == ec
        assert balance(g, parts, k) == bal
        assert std_dev(parts, k) == pytest.approx(std, rel=0, abs=1e-15)
        # identity cross-check between two code paths
        max_load = int(intra_edge_counts(g, parts, k).max())
        assert balance(g, parts, k) == pytest.approx(max_load * k / g.edge_count, rel=1e-12)


def test_report_json_field_names():
    g = from_edges(3, [0, 1, 2], [1, 2, 0])
    parts = PartitionMap(np.array([0, 0, 1]), 2)
    report = build_report(g, parts, 2)
    assert report.wall_times_ms == {}
    report.wall_times_ms["partition"] = 1.5  # the caller fills in its times
    parsed = json.loads(report.to_json())
    assert set(parsed) == {"edge_cut_ratio", "bal", "std", "per_part_nodes",
                           "per_part_intra_edges", "wall_times_ms"}
    assert parsed["per_part_nodes"] == [2, 1]
    assert sum(parsed["per_part_nodes"]) == g.node_count
    assert parsed["wall_times_ms"]["partition"] == 1.5

