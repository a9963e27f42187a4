import io
import json
import math
import time

import numpy as np
import pytest

from lppart.coarsen import coarsen
from lppart.generate import GeneratorSpec, generate
from lppart.graph import IdMap, PartitionMap, from_edges, thread_count, worker_threads
from lppart.kway import InfeasibleError, kway_partition
from lppart.labelprop import LpParams
from lppart.metrics import edge_cut, std_dev
from lppart.pipeline import (PartitionConfig, export_coarse, manifest_dict, partition_graph,
                             read_partition_file, sample_subgraphs, write_partition_file)


def _disjoint_cliques(count, size):
    u, v = [], []
    for c in range(count):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                u.append(base + i)
                v.append(base + j)
    return from_edges(count * size, u, v)


def test_disjoint_cliques_partition_cleanly():
    g = _disjoint_cliques(4, 10)
    result = partition_graph(g, PartitionConfig(k=4))
    assert result.parts.num_parts == 4
    assert edge_cut(g, result.parts) == 0.0
    assert std_dev(result.parts, 4) == 0.0
    # each clique maps to exactly one part
    for c in range(4):
        assert len(set(result.parts.assignment[c * 10:(c + 1) * 10])) == 1


def test_k1_single_part():
    g = generate(GeneratorSpec("ring", (12,)))
    result = partition_graph(g, PartitionConfig(k=1))
    assert np.all(result.parts.assignment == 0)


def test_planted_partition_edge_cut_stays_near_planted():
    # unit-weight benchmark: relative-weight pruning sees every edge as equally
    # weak, so it is disabled here (p_bound=1 keeps all edges)
    g = generate(GeneratorSpec("planted_partition", (8, 100, 0.3, 0.01), seed=42))
    u, v, _ = g.edge_array()
    planted_cross = float(np.mean(g.planted_blocks[u] != g.planted_blocks[v]))
    result = partition_graph(g, PartitionConfig(k=8, lp=LpParams(p_bound=1.0, seed=42)))
    assert edge_cut(g, result.parts) <= 2.0 * planted_cross


def test_pipeline_is_deterministic():
    g = generate(GeneratorSpec("random_weighted", (200, 800, 0.1, 1.0), seed=7))
    cfg = PartitionConfig(k=5, lp=LpParams(seed=7))
    a = partition_graph(g, cfg)
    b = partition_graph(g, cfg)
    assert np.array_equal(a.parts.assignment, b.parts.assignment)


def test_pipeline_output_total_with_exactly_k_parts():
    rng = np.random.default_rng(17)
    for trial in range(5):
        n = int(rng.integers(30, 120))
        m = int(rng.integers(n, 5 * n))
        g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.uniform(0.1, 2.0, m))
        k = int(rng.integers(2, 8))
        result = partition_graph(g, PartitionConfig(k=k, lp=LpParams(seed=trial)))
        assert result.parts.num_parts == k
        assert len(result.parts.assignment) == n
        assert np.all(result.parts.part_sizes() > 0)


def test_fallback_splits_when_communities_are_scarce():
    # one tight clique: propagation collapses it to very few communities
    g = _disjoint_cliques(1, 30)
    result = partition_graph(g, PartitionConfig(k=4, lp=LpParams(seed=3)))
    assert result.parts.num_parts == 4
    assert np.all(result.parts.part_sizes() > 0)
    assert result.fallback_splits > 0
    assert any("fallback" in w for w in result.warnings)
    # without the cap rule the finisher gets a level holding a 15-node community
    assert result.parts.part_sizes().max() <= 1.1 * math.ceil(30 / 4)


def test_fallback_star_parts_stay_balanced():
    n, k = 5000, 4
    g = from_edges(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n))
    result = partition_graph(g, PartitionConfig(k=k))
    sizes = result.parts.part_sizes()
    assert result.fallback_splits > 0
    assert sizes.min() >= n / (2 * k)
    assert sizes.max() <= 1.1 * math.ceil(n / k)


def test_finisher_values_are_original_node_mass(monkeypatch):
    seen = []

    def capture(cg, k, cfg):
        seen.append(cg.graph.node_values.copy())
        return kway_partition(cg, k, cfg)

    monkeypatch.setattr("lppart.pipeline.kway_partition", capture)
    rng = np.random.default_rng(5)
    n, m = 600, 3000
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.1, 1.0, m),
                   node_values=rng.integers(1, 4, n))
    result = partition_graph(g, PartitionConfig(k=4, lp=LpParams(seed=5)))
    assert len(result.level_maps) == 3 and result.fallback_splits == 0
    composed = result.level_maps[0].assignment
    for pm in result.level_maps[1:]:
        composed = pm.assignment[composed]
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.bincount(composed, weights=g.node_values))


def test_over_cap_parts_are_named_in_warnings():
    # a heavy hub no bisection can balance: node 0 carries 40 of the 49 mass units
    values = np.ones(10, dtype=np.int64)
    values[0] = 40
    g = from_edges(10, np.zeros(9, dtype=np.int64), np.arange(1, 10), node_values=values)
    result = partition_graph(g, PartitionConfig(k=2, lp=LpParams(seed=1)))
    cap = 1.1 * math.ceil(49 / 2)
    over = [w for w in result.warnings if "exceed" in w]
    heavy = int(np.argmax(np.bincount(result.parts.assignment, weights=values)))
    assert over == [f"1 part(s) exceed the per-part mass cap {cap:.1f}: part {heavy} (40)"]


def test_composition_soundness_through_levels():
    g = generate(GeneratorSpec("planted_partition", (6, 40, 0.4, 0.02), seed=9))
    result = partition_graph(g, PartitionConfig(k=6, lp=LpParams(seed=9)))
    composed = result.level_maps[0].assignment
    for pm in result.level_maps[1:]:
        composed = pm.assignment[composed]
    assert np.array_equal(result.final_coarse_parts.assignment[composed],
                          result.parts.assignment)


def test_small_part_warnings_emitted():
    g = _disjoint_cliques(2, 8)
    result = partition_graph(g, PartitionConfig(k=2, min_subgraph_warn=100))
    small = [w for w in result.warnings if "nodes" in w]
    assert small == ["2 part(s) have fewer than 100 nodes: part 0 (8), part 1 (8)"]


def test_stage_timings_charge_every_coarsen_call_to_coarsen_ms(monkeypatch):
    calls = []

    def slow_coarsen(parts, mode, g):
        calls.append(mode)
        time.sleep(0.05)
        return coarsen(parts, mode, g)

    monkeypatch.setattr("lppart.pipeline.coarsen", slow_coarsen)
    g = generate(GeneratorSpec("planted_partition", (4, 30, 0.5, 0.01), seed=3))
    # k=2 keeps all three levels; at k=4 the cap rule stops before the third coarsen
    result = partition_graph(g, PartitionConfig(k=2))
    assert result.fallback_splits == 0
    assert calls == ["edge"] * 3
    timings = result.timings_ms
    assert timings["coarsen_ms"] >= 150.0
    assert timings["label_prop_ms"] < timings["coarsen_ms"]


def test_errors_for_infeasible_and_empty():
    g = generate(GeneratorSpec("ring", (5,)))
    with pytest.raises(InfeasibleError):
        partition_graph(g, PartitionConfig(k=6))
    empty = from_edges(0, [], [])
    with pytest.raises(ValueError):
        partition_graph(empty, PartitionConfig(k=1))


def test_sample_subgraphs_contract():
    parts = PartitionMap(np.arange(50), 50)
    ids = sample_subgraphs(parts, 0.1, seed=42)
    assert len(ids) == 5
    assert len(set(ids.tolist())) == 5
    assert ids.min() >= 0 and ids.max() < 50
    again = sample_subgraphs(parts, 0.1, seed=42)
    assert np.array_equal(ids, again)
    assert len(sample_subgraphs(parts, 1.0, seed=1)) == 50
    assert len(sample_subgraphs(parts, 0.05, seed=1)) == 3  # ceil(2.5)
    with pytest.raises(ValueError):
        sample_subgraphs(parts, 0.0, seed=1)
    with pytest.raises(ValueError):
        sample_subgraphs(parts, 1.2, seed=1)


def test_export_coarse_sums_cross_edges_and_conserves_mass():
    g = from_edges(4, [0, 1, 0, 2], [1, 2, 2, 3], [1.0, 0.3, 0.4, 1.0])
    parts = PartitionMap(np.array([0, 0, 1, 1]), 2)
    cg = export_coarse(g, parts)
    _, _, w = cg.graph.edge_array()
    assert w.tolist() == [pytest.approx(0.7)]
    rng = np.random.default_rng(23)
    for trial in range(10):
        n = int(rng.integers(4, 50))
        m = int(rng.integers(1, 3 * n))
        rg = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                        rng.uniform(0.1, 2.0, m))
        k = int(rng.integers(1, 5))
        pm = PartitionMap(rng.integers(0, k, n), k)
        out = export_coarse(rg, pm)
        total = out.graph.total_edge_weight() + out.self_loop_weight.sum()
        assert total == pytest.approx(rg.total_edge_weight(), rel=1e-9)


def test_partition_file_round_trip():
    parts = PartitionMap(np.array([1, 0, 2, 1]), 3)
    id_map = IdMap(np.array([100, 7, 42, 9]))
    buf = io.StringIO()
    write_partition_file(parts, id_map, buf)
    assert buf.getvalue() == "100\t1\n7\t0\n42\t2\n9\t1\n"
    back = read_partition_file(io.BytesIO(buf.getvalue().encode()), id_map)
    assert np.array_equal(back.assignment, parts.assignment)
    assert back.num_parts == 3
    with pytest.raises(ValueError, match="length"):
        write_partition_file(parts, IdMap(np.array([100, 7, 42])), io.StringIO())


def test_partition_file_must_be_total():
    id_map = IdMap(np.array([1, 2, 3]))
    with pytest.raises(ValueError, match="not total"):
        read_partition_file(io.BytesIO(b"1\t0\n2\t0\n"), id_map)


def test_manifest_records_config_and_stages():
    g = _disjoint_cliques(2, 10)
    cfg = PartitionConfig(k=2, lp=LpParams(seed=11))
    result = partition_graph(g, cfg)
    assert manifest_dict(cfg, result)["threads"] == thread_count()
    with worker_threads(4):
        manifest = manifest_dict(cfg, result)
    text = json.dumps(manifest)
    parsed = json.loads(text)
    assert parsed["config"]["p_ratio"] == 0.5
    assert parsed["config"]["p_bound"] == 0.1
    assert parsed["config"]["t_iterations"] == 2
    assert parsed["config"]["outer_t"] == 2
    assert parsed["config"]["seed"] == 11
    assert parsed["config"]["bisect_seed"] == 42  # the finisher's seed is set apart from LP's
    assert parsed["threads"] == 4
    assert len(parsed["levels"]) == 3
    assert {"label_prop_ms", "coarsen_ms", "kway_ms"} <= set(parsed["timings_ms"])


def test_partition_file_rejects_malformed_lines():
    id_map = IdMap(np.array([1, 2]))
    with pytest.raises(ValueError, match="line 1"):
        read_partition_file(io.BytesIO(b"1\n"), id_map)
    with pytest.raises(ValueError, match="line 2"):
        read_partition_file(io.BytesIO(b"1\t0\n2\tzero\n"), id_map)


def test_pipeline_handles_awkward_graphs():
    rng = np.random.default_rng(77)
    cases = []
    # isolated nodes: more nodes than the edges touch
    cases.append(from_edges(12, [0, 1, 2], [1, 2, 3]))
    # thin path
    cases.append(from_edges(15, list(range(14)), list(range(1, 15))))
    # two stars bridged by one edge
    u = [0] * 6 + [10] * 6 + [0]
    v = list(range(1, 7)) + list(range(11, 17)) + [10]
    cases.append(from_edges(17, u, v))
    for g in cases:
        for k in (1, 2, g.node_count):
            result = partition_graph(g, PartitionConfig(k=k, lp=LpParams(seed=3)))
            assert result.parts.num_parts == k
            assert np.all(result.parts.part_sizes() > 0)
            repeat = partition_graph(g, PartitionConfig(k=k, lp=LpParams(seed=3)))
            assert np.array_equal(result.parts.assignment, repeat.parts.assignment)


def test_level_maps_chain_dimensionally():
    g = generate(GeneratorSpec("planted_partition", (4, 60, 0.2, 0.02), seed=5))
    result = partition_graph(g, PartitionConfig(k=4, lp=LpParams(seed=5)))
    assert len(result.level_maps[0]) == g.node_count
    for prev, nxt in zip(result.level_maps, result.level_maps[1:]):
        assert prev.num_parts == len(nxt)  # communities become next level's nodes
    assert result.level_sizes[0]["nodes"] == g.node_count
    for size, pm in zip(result.level_sizes, result.level_maps):
        assert size["communities"] == pm.num_parts
