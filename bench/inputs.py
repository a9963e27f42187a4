"""Workload inputs, derived only from the benchmark seed.

Both the set-up processes and the output checks import this module, so the
checks see exactly the inputs the program was given. It imports numpy but
never lppart; the functions that need lppart take it as an argument.
"""

from __future__ import annotations

import numpy as np

# ROADMAP reference graph: random_weighted(100000, 1000000, 0.1, 1.0), k=8.
CLI_NODES = 100_000
CLI_EDGES = 1_000_000
CLI_K = 8

# 500x500 four-neighbour grid; label propagation barely shrinks it, so the
# k-way finisher sees most of the graph.
MESH_SIDE = 500
MESH_K = 16

# Downstream chain: graph size chosen so one pass of the six commands takes
# a few seconds and a run holds several passes.
DOWN_NODES = 20_000
DOWN_EDGES = 100_000
DOWN_K = 16
DOWN_DIM = 8
DOWN_FRACTION = 0.05

WEIGHT_LOW = 0.1
WEIGHT_HIGH = 1.0
PIPELINE_SEED = 42
EPSILON = 0.1

GRAPH_FILE = "graph.tsv"
PARTS_FILE = "parts.tsv"
FEATURES_FILE = "features.tsv"


def mesh_edges(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid edges (u, v, w) with u < v, weights uniform in [0.1, 1.0)."""
    idx = np.arange(MESH_SIDE * MESH_SIDE, dtype=np.int64).reshape(MESH_SIDE, MESH_SIDE)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    w = np.random.default_rng([seed, 0]).uniform(WEIGHT_LOW, WEIGHT_HIGH, len(u))
    return u, v, w


def build_mesh_graph(lppart, seed: int):
    """The in-memory mesh graph, built with ``lppart.from_edges``."""
    u, v, w = mesh_edges(seed)
    return lppart.from_edges(MESH_SIDE * MESH_SIDE, u, v, w)


def write_cli_random(lppart, seed: int, root) -> None:
    """The reference graph, written as the ``lppart gen`` command would."""
    spec = lppart.GeneratorSpec("random_weighted",
                                (CLI_NODES, CLI_EDGES, WEIGHT_LOW, WEIGHT_HIGH), seed=seed)
    lppart.write_edge_list(lppart.generate(spec), root / GRAPH_FILE)


def write_downstream(lppart, seed: int, root, nodes: int = DOWN_NODES,
                     edges: int = DOWN_EDGES) -> None:
    """Graph, a numpy-drawn partition and a feature table over the graph's nodes.

    Only nodes that appear in the edge list get a part and a feature row,
    because the CLI maps partition and feature ids through the loaded graph.
    Part ids are a shuffled near-equal split, so all ``DOWN_K`` parts are
    non-empty and the partition does not depend on any lppart algorithm.
    """
    spec = lppart.GeneratorSpec("random_weighted",
                                (nodes, edges, WEIGHT_LOW, WEIGHT_HIGH), seed=seed)
    g = lppart.generate(spec)
    lppart.write_edge_list(g, root / GRAPH_FILE)
    ids = np.flatnonzero(g.degrees > 0)
    rng = np.random.default_rng([seed, 1])
    parts = rng.permutation(np.arange(len(ids)) % DOWN_K)
    lppart.write_partition_file(lppart.PartitionMap(parts, DOWN_K), lppart.IdMap(ids),
                                root / PARTS_FILE)
    feats = lppart.FeatureTable(rng.standard_normal((len(ids), DOWN_DIM)))
    lppart.augment.write_feature_table(feats, root / FEATURES_FILE, ids=ids)
