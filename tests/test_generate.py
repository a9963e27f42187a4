import numpy as np
import pytest

from lppart.generate import GeneratorSpec, generate

from oracles import neighbors, validate_graph


def _components(g):
    seen = np.full(g.node_count, -1)
    comp = 0
    for s in range(g.node_count):
        if seen[s] >= 0:
            continue
        stack = [s]
        seen[s] = comp
        while stack:
            u = stack.pop()
            for v in neighbors(g, u):
                if seen[v] < 0:
                    seen[v] = comp
                    stack.append(int(v))
        comp += 1
    return seen, comp


def test_complete_bipartite_8_8():
    g = generate(GeneratorSpec("complete_bipartite", (8, 8)))
    assert g.node_count == 16
    assert g.edge_count == 64
    # a proper 2-coloring exists: sides are [0,8) and [8,16)
    u, v, _ = g.edge_array()
    assert np.all((u < 8) & (v >= 8))
    validate_graph(g)


def test_ring_degrees():
    g = generate(GeneratorSpec("ring", (5,)))
    assert g.node_count == 5 and g.edge_count == 5
    assert np.all(g.degrees == 2)
    tiny = generate(GeneratorSpec("ring", (2,)))
    assert tiny.edge_count == 1
    lone = generate(GeneratorSpec("ring", (1,)))
    assert lone.node_count == 1 and lone.edge_count == 0


def test_planted_partition_extreme_probabilities_gives_cliques():
    g = generate(GeneratorSpec("planted_partition", (2, 50, 1.0, 0.0), seed=3))
    assert g.node_count == 100
    assert g.edge_count == 2 * (50 * 49 // 2)
    labels, count = _components(g)
    assert count == 2
    assert np.array_equal(labels, np.arange(100) // 50)


def test_planted_partition_blocks_are_consecutive_ids():
    g = generate(GeneratorSpec("planted_partition", (3, 4, 0.9, 0.0), seed=1))
    u, v, _ = g.edge_array()
    assert g.node_count == 12 and g.edge_count > 0
    assert np.array_equal(u // 4, v // 4)  # with p_out = 0 no edge leaves block i // block_size


def test_random_weighted_respects_counts_and_bounds():
    g = generate(GeneratorSpec("random_weighted", (40, 100, 0.25, 2.5), seed=9))
    assert g.node_count == 40
    assert g.edge_count == 100
    _, _, w = g.edge_array()
    assert w.min() >= 0.25 and w.max() <= 2.5
    validate_graph(g)


def test_generation_is_deterministic_per_seed():
    a = generate(GeneratorSpec("random_weighted", (30, 60, 0.1, 1.0), seed=5))
    b = generate(GeneratorSpec("random_weighted", (30, 60, 0.1, 1.0), seed=5))
    c = generate(GeneratorSpec("random_weighted", (30, 60, 0.1, 1.0), seed=6))
    assert np.array_equal(a.neighbor_targets, b.neighbor_targets)
    assert np.array_equal(a.edge_weights, b.edge_weights)
    assert not (np.array_equal(a.neighbor_targets, c.neighbor_targets)
                and np.array_equal(a.edge_weights, c.edge_weights))


def test_spec_parsing_and_validation():
    spec = GeneratorSpec.parse("planted_partition(2, 50, 1.0, 0.0)", seed=7)
    assert spec.model == "planted_partition"
    assert spec.args == (2, 50, 1.0, 0.0)
    assert spec.seed == 7
    with pytest.raises(ValueError):
        GeneratorSpec.parse("no_such_model(1)")
    with pytest.raises(ValueError):
        GeneratorSpec.parse("ring()")
    with pytest.raises(ValueError):
        generate(GeneratorSpec("ring", (0,)))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("planted_partition", (2, 3, 1.5, 0.0)))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("random_weighted", (5, 100, 0.1, 1.0)))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("random_weighted", (5, 4, 0.0, 1.0)))
