"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Everything is seeded and deterministic.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from lppart.cli import run as cli_run
from lppart.coarsen import CoarseGraph, coarsen
from lppart.generate import GeneratorSpec, generate
from lppart.graph import PartitionMap, from_edges
from lppart.kway import BisectConfig, cut_weight, kway_partition
from lppart.labelprop import LpParams, multilevel_label_prop, vote_update
from lppart.metrics import balance, edge_cut, std_dev
from lppart.pipeline import PartitionConfig, partition_graph, sample_subgraphs
from lppart.seeding import derive_seed

from oracles import neighbor_weights, plain_vote, total_edge_weight


def _report(number, name, started):
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:2d}] {name}: PASS ({elapsed:.2f}s)")


def _fail(number, name):
    print(f"[criterion {number:2d}] {name}: FAIL")


def test_criterion_1_worked_example_fidelity():
    t0 = time.perf_counter()
    name = "worked-example fidelity"
    try:
        # weighted vote: 0.026 for one label beats 0.01 + 0.003 for the other
        g = from_edges(4, [0, 0, 0], [1, 2, 3], [0.026, 0.01, 0.003])
        out = vote_update(g, np.array([0, 50, 60, 60]))
        assert out[0] == 50

        # contraction example: group values 5,5,4,7,5 vs 3,2; cross edges 0.3 + 0.4
        gg = from_edges(7, [0, 1, 2, 3, 0, 1, 5], [1, 2, 3, 4, 5, 6, 6],
                        [1.0, 1.0, 1.0, 1.0, 0.3, 0.4, 0.6])
        gg = gg.with_node_values([5, 5, 4, 7, 5, 3, 2])
        parts = PartitionMap(np.array([0, 0, 0, 0, 0, 1, 1]), 2)
        by_node = coarsen(parts, "node", gg)
        by_edge = coarsen(parts, "edge", gg)
        assert by_node.graph.node_values[0] == 26
        assert by_edge.graph.node_values[0] == 5
        _, _, w = by_node.graph.edge_array()
        assert w[0] == 0.3 + 0.4
    except AssertionError:
        _fail(1, name)
        raise
    _report(1, name, t0)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    name = "oracle equivalence"
    try:
        rng = np.random.default_rng(2024)
        # EC / BAL / STD against direct enumeration, 50 instances
        for _ in range(50):
            n = int(rng.integers(4, 64))
            m = int(rng.integers(1, 3 * n))
            g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                           rng.uniform(0.1, 2.0, m))
            k = int(rng.integers(2, 6))
            parts = PartitionMap(rng.integers(0, k, n), k)
            u, v, _ = g.edge_array()
            cut = sum(1 for a, b in zip(u, v) if parts.assignment[a] != parts.assignment[b])
            intra = [0] * k
            for a, b in zip(u, v):
                if parts.assignment[a] == parts.assignment[b]:
                    intra[parts.assignment[a]] += 1
            counts = np.bincount(parts.assignment, minlength=k)
            mu = n / k
            assert edge_cut(g, parts) == cut / len(u)
            assert balance(g, parts, k) == max(intra) / (len(u) / k)
            assert std_dev(parts, k) == pytest.approx(
                math.sqrt(float(((counts - mu) ** 2).sum()) / (k - 1)), abs=1e-15)

        # pruning with p_bound = 0 equals the per-endpoint threshold rule
        from lppart.labelprop import edge_retention
        for trial in range(25):
            n = int(rng.integers(4, 50))
            m = int(rng.integers(n, 3 * n))
            g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                           rng.uniform(0.05, 2.0, m))
            ratio = float(rng.uniform(0.1, 0.9))
            pruned = edge_retention(g, LpParams(p_ratio=ratio, p_bound=0.0), 0)
            wdeg = np.array([neighbor_weights(g, i).sum() for i in range(n)])
            u, v, w = g.edge_array()
            expected = {(int(a), int(b)) for a, b, ww in zip(u, v, w)
                        if ww / wdeg[a] >= ratio or ww / wdeg[b] >= ratio}
            pu, pv, _ = pruned.edge_array()
            assert set(zip(pu.tolist(), pv.tolist())) == expected

        # two-way cuts vs exhaustive optimum on tiny graphs (soft 1.5x bound)
        soft_violations = 0
        checked = 0
        for trial in range(10):
            n = int(rng.integers(6, 13))
            m = int(rng.integers(n, n * (n - 1) // 2))
            g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                           rng.uniform(0.2, 2.0, m))
            got = cut_weight(g, kway_partition(
                CoarseGraph.wrap(g), 2, BisectConfig(epsilon=0.1, seed=trial)).assignment)
            cap = 1.1 * math.ceil(n / 2)
            best = math.inf
            for bits in range(1, 2 ** (n - 1)):
                side = np.array([(bits >> i) & 1 for i in range(n)], dtype=np.int8)
                c0 = int((side == 0).sum())
                if 0 < c0 < n and c0 <= cap and n - c0 <= cap:
                    best = min(best, cut_weight(g, side))
            checked += 1
            if best > 0 and got / best > 1.5:
                soft_violations += 1
                print(f"  (soft) cut quality {got / best:.2f}x optimum on trial {trial}")
        print(f"  cut-quality soft bound: {checked - soft_violations}/{checked} within 1.5x")
    except AssertionError:
        _fail(2, name)
        raise
    _report(2, name, t0)


def test_criterion_3_oscillation_vs_convergence():
    t0 = time.perf_counter()
    name = "oscillation vs convergence"
    try:
        g = generate(GeneratorSpec("complete_bipartite", (8, 8)))
        # plain synchronous frequency voting flip-flops forever
        labels = np.array([0] * 8 + [1] * 8)
        hist = []
        for _ in range(12):
            labels = plain_vote(g, labels)
            hist.append(labels)
        for i in range(10):
            assert np.array_equal(hist[i], hist[i + 2])
            assert not np.array_equal(hist[i], hist[i + 1])

        # the full propagate-and-coarsen scheme reaches a fixed point: the
        # per-level composed community assignment is stable from round 3 on
        def canon(a):
            seen = {}
            return np.array([seen.setdefault(int(x), len(seen)) for x in a])

        base = LpParams(seed=42)
        work = g
        composed = None
        per_round = []
        for level in range(4):
            lp = replace(base, seed=derive_seed(base.seed, "lp-level", level))
            parts = multilevel_label_prop(work, lp)
            composed = parts.assignment if composed is None else parts.assignment[composed]
            per_round.append(canon(composed))
            work = coarsen(parts, "edge", work).graph
        assert np.array_equal(per_round[2], per_round[3])
    except AssertionError:
        _fail(3, name)
        raise
    _report(3, name, t0)


def test_criterion_4_pipeline_correctness():
    t0 = time.perf_counter()
    name = "pipeline correctness"
    try:
        cliques = generate(GeneratorSpec("planted_partition", (4, 10, 1.0, 0.0), seed=7))
        result = partition_graph(cliques, PartitionConfig(k=4))
        assert edge_cut(cliques, result.parts) == 0.0
        assert std_dev(result.parts, 4) == 0.0

        g = generate(GeneratorSpec("planted_partition", (8, 500, 0.05, 0.001), seed=42))
        u, v, _ = g.edge_array()
        planted_cross = float(np.mean(u // 500 != v // 500))
        # unit-weight benchmark: every edge ties under relative-weight pruning,
        # so random pruning is disabled for this graph family (p_bound = 1)
        cfg = PartitionConfig(k=8, lp=LpParams(p_bound=1.0, seed=42))
        result = partition_graph(g, cfg)
        ec = edge_cut(g, result.parts)
        bal = balance(g, result.parts, 8)
        print(f"  planted: EC={ec:.4f} (bound {2 * planted_cross:.4f}) BAL={bal:.3f}")
        assert ec <= 2.0 * planted_cross
        assert bal <= 1.5
    except AssertionError:
        _fail(4, name)
        raise
    _report(4, name, t0)


def test_criterion_5_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    name = "CLI determinism"
    try:
        graph = tmp_path / "det.tsv"
        assert cli_run(["gen", "--model", "random_weighted(2000,10000,0.1,1.0)",
                        "--seed", "42", "--out", str(graph)]) == 0
        blobs = []
        for rep, threads in (("r1", "1"), ("r2", "1"), ("r3", "8")):
            out = tmp_path / f"{rep}.tsv"
            assert cli_run(["partition", "--input", str(graph), "--k", "6",
                            "--seed", "42", "--threads", threads, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0] == blobs[2]
    except AssertionError:
        _fail(5, name)
        raise
    _report(5, name, t0)


@pytest.mark.slow
def test_criterion_6_near_linear_scaling(tmp_path):
    t0 = time.perf_counter()
    name = "near-linear scaling"
    try:
        paths = {}
        for tag, n, m in (("1m", 100_000, 1_000_000), ("2m", 200_000, 2_000_000)):
            path = tmp_path / f"{tag}.tsv"
            assert cli_run(["gen", "--model", f"random_weighted({n},{m},0.1,1.0)",
                            "--seed", "42", "--out", str(path)]) == 0
            paths[tag] = path
        # the sizes alternate, so a drift in machine speed reaches both alike
        times = {tag: [] for tag in paths}
        for rep in range(3):
            for tag, path in paths.items():
                out = tmp_path / f"{tag}_{rep}.parts"
                start = time.perf_counter()
                assert cli_run(["partition", "--input", str(path), "--k", "8",
                                "--seed", "42", "--out", str(out)]) == 0
                times[tag].append(time.perf_counter() - start)
        medians = {tag: sorted(t)[1] for tag, t in times.items()}
        ratio = medians["2m"] / medians["1m"]
        summary = f"medians: 1M={medians['1m']:.1f}s 2M={medians['2m']:.1f}s ratio={ratio:.2f}"
        print(f"  {summary}")
        assert ratio <= 2.5, summary
    except AssertionError:
        _fail(6, name)
        raise
    _report(6, name, t0)


def test_criterion_7_pagerank_properties():
    t0 = time.perf_counter()
    name = "pagerank properties"
    try:
        from lppart.augment import pagerank, refine_structure
        for spec in ("ring(7)", "ring(16)", "complete_bipartite(5,9)",
                     "random_weighted(60,240,0.1,1.0)"):
            g = generate(GeneratorSpec.parse(spec, seed=5))
            scores = pagerank(g)
            assert abs(scores.sum() - 1.0) <= 1e-9
        for n in (3, 6, 11):
            ring = generate(GeneratorSpec("ring", (n,)))
            assert pagerank(ring) == pytest.approx(np.full(n, 1.0 / n), abs=1e-9)

        path = from_edges(3, [0, 1], [1, 2])
        scores = pagerank(path)
        # dense fixed-point oracle, iterated to machine precision
        dense = np.full(3, 1 / 3)
        m = np.array([[0.0, 0.5, 0.0], [1.0, 0.0, 1.0], [0.0, 0.5, 0.0]])
        for _ in range(10000):
            nxt = 0.15 / 3 + 0.85 * (m @ dense)
            if np.abs(nxt - dense).sum() < 1e-16:
                break
            dense = nxt
        assert scores == pytest.approx(dense, abs=1e-9)

        g = generate(GeneratorSpec("random_weighted", (40, 160, 0.1, 1.0), seed=11))
        refined, _ = refine_structure(g, 0.05, mode="nodes")
        assert refined.node_count == 40 - math.ceil(0.05 * 40)
    except AssertionError:
        _fail(7, name)
        raise
    _report(7, name, t0)


def test_criterion_8_coarsening_conservation():
    t0 = time.perf_counter()
    name = "coarsening conservation"
    try:
        rng = np.random.default_rng(88)
        for _ in range(50):
            n = int(rng.integers(3, 64))
            m = int(rng.integers(1, 3 * n))
            g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                           rng.uniform(0.05, 4.0, m))
            k = int(rng.integers(1, n + 1))
            parts = PartitionMap(rng.integers(0, k, n), k)
            cg = coarsen(parts, "node", g)
            total = total_edge_weight(cg.graph) + cg.self_loop_weight.sum()
            assert total == pytest.approx(total_edge_weight(g), rel=1e-9)
            assert cg.graph.node_values.sum() == n  # unit values: sums to |V|
    except AssertionError:
        _fail(8, name)
        raise
    _report(8, name, t0)


def test_criterion_9_submatrix_spectral_norm():
    t0 = time.perf_counter()
    name = "submatrix spectral norm"
    try:
        # no principal submatrix of the weighted adjacency has a larger spectral norm
        g = generate(GeneratorSpec("random_weighted", (64, 512, 0.1, 1.0), seed=9))
        n = g.node_count
        a = np.zeros((n, n))
        a[g.arc_sources(), g.neighbor_targets] = g.edge_weights

        def norm(m):
            return float(np.abs(np.linalg.eigvalsh(m)).max())

        full = norm(a)
        rng = np.random.default_rng(9)
        ratios = []
        for _ in range(100):
            subset = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
            sub = norm(a[np.ix_(subset, subset)])
            assert sub <= full + 1e-6
            ratios.append(sub / full)
        print(f"  full norm {full:.6f}, max subnorm ratio {max(ratios):.6f}")
    except AssertionError:
        _fail(9, name)
        raise
    _report(9, name, t0)


def test_criterion_10_sampling_contract():
    t0 = time.perf_counter()
    name = "sampling contract"
    try:
        parts = PartitionMap(np.arange(50), 50)
        ids = sample_subgraphs(parts, 0.1, seed=42)
        assert len(ids) == 5
        assert len(np.unique(ids)) == 5
        assert ids.min() >= 0 and ids.max() < 50
        for _ in range(3):
            assert np.array_equal(sample_subgraphs(parts, 0.1, seed=42), ids)
        small = sample_subgraphs(parts, 0.05, seed=42)
        assert len(small) == math.ceil(0.05 * 50)
    except AssertionError:
        _fail(10, name)
        raise
    _report(10, name, t0)
