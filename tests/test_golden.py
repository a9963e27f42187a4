"""Golden outputs of a small CLI chain and of the pipeline's fallback path,
pinned by sha256.

Every command and call below is deterministic for its flags and seed, so the
bytes it writes are the equivalence oracle for refactors: a change that only
restructures code must leave every constant here as it is. A change that
alters outputs on purpose (for example a new k-way balance rule) updates the
constants in the same commit and says so in CHANGES.md, naming each file
whose hash moved.
"""

import hashlib
import json

import numpy as np

from lppart import graph
from lppart.cli import run
from lppart.graph import from_edges
from lppart.labelprop import LpParams
from lppart.pipeline import PartitionConfig, partition_graph

GOLDEN = {
    "graph.tsv": "e5abcf5cdfa1fc4f3138dad0d3118f9ccbc196300346bcf873a9d05ae218ffee",
    "parts.tsv": "9cd2cd07b27e677fcf17a1c6ab4f565624c6e1958d24759ab52904d489c5e9b1",
    "metrics.json": "7887cca6c6d451cc5190eafa798c6b8b34f6cfc6ba62d6534d0490bc65b46641",
    "coarse-node.tsv": "f535dbeba3a6525783a3cf6803521393d47c941ea17b85a6a485f4856cc6e068",
    "coarse-node.tsv.values": "2020565b1fdcddb36a8eee7e702825ba0d45ede62033660826ce988068c8c6c0",
    "coarse-edge.tsv": "f535dbeba3a6525783a3cf6803521393d47c941ea17b85a6a485f4856cc6e068",
    "coarse-edge.tsv.values": "2020565b1fdcddb36a8eee7e702825ba0d45ede62033660826ce988068c8c6c0",
    "refined-nodes.tsv": "d4763d37e9f323ef82b611900fbe1850430a4ec46edafa43e6457eed5f03ca26",
    "refined-edges.tsv": "55a08daef5963b4d1ab774b3cd5452724294e96044e346d8546c64f2506337bb",
    "pagerank.tsv": "b153e60ad66e3f35d292b1bd910172f9d787e788be1628b58a670091bc39ce61",
    "features.tsv": "644b2ce47f795132c2846d9f5f0fbe31e2635edfa3194639399ec1e158d760e4",
    "global.tsv": "59bc386c24cbb1e95ed1644ff28081b0abdcb69d7a89b2990307606708d3da74",
    "joined.tsv": "2b5e13db3b399482ff072d4806f8f0e2e898035351b1428bd49c417f8ddd19ef",
}

# partition_graph(...).parts.assignment.tobytes() on graphs where the level
# loop stops early and the finisher runs on the original graph
FALLBACK_GOLDEN = {
    "star": "beb1a32de187e1e1273cc4326f92ec4f894df6467aba4dbbd73ecadd91db08a0",
    "clique": "039d4e55f472b209e10541b2d69cb1c9a7241814626506b6e632728a59398aea",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv) -> None:
    assert run([str(a) for a in argv]) == 0, argv


def test_cli_chain_outputs_match_golden_hashes(tmp_path):
    d = tmp_path
    _cli("gen", "--model", "planted_partition(8,200,0.05,0.002)", "--seed", 3,
         "--out", d / "graph.tsv")
    _cli("partition", "--input", d / "graph.tsv", "--k", 8, "--seed", 42,
         "--out", d / "parts.tsv")
    _cli("metrics", "--input", d / "graph.tsv", "--parts", d / "parts.tsv",
         "--json", d / "report.json")
    for mode in ("node", "edge"):
        _cli("coarsen", "--input", d / "graph.tsv", "--parts", d / "parts.tsv",
             "--mode", mode, "--out", d / f"coarse-{mode}.tsv")
    for mode in ("nodes", "edges"):
        _cli("refine", "--input", d / "graph.tsv", "--fraction", 0.05, "--mode", mode,
             "--out", d / f"refined-{mode}.tsv")
    _cli("pagerank", "--input", d / "graph.tsv", "--out", d / "pagerank.tsv")

    # feature rows for every partitioned node, formatted here rather than by lppart
    ids = [line.split("\t")[0] for line in (d / "parts.tsv").read_text().splitlines()]
    rows = np.random.default_rng(3).standard_normal((len(ids), 3))
    (d / "features.tsv").write_text("#dim 3\n" + "".join(
        f"{i}\t" + "\t".join(repr(float(x)) for x in row) + "\n" for i, row in zip(ids, rows)))
    _cli("features", "aggregate", "--features", d / "features.tsv", "--parts", d / "parts.tsv",
         "--out", d / "global.tsv")
    _cli("features", "concat", "--features", d / "features.tsv", "--global", d / "global.tsv",
         "--parts", d / "parts.tsv", "--out", d / "joined.tsv")

    report = json.loads((d / "report.json").read_text())
    report.pop("wall_times_ms")
    (d / "metrics.json").write_text(json.dumps(report, sort_keys=True))
    actual = {name: _sha((d / name).read_bytes()) for name in GOLDEN}
    assert actual == GOLDEN


def test_cli_chain_outputs_match_golden_hashes_on_forked_parse(tmp_path, monkeypatch,
                                                               forked_parse):
    copies = []
    copy = graph._copy_lines
    monkeypatch.setattr(graph, "_copy_lines", lambda *args: copies.append(copy(*args)) or copies[-1])
    test_cli_chain_outputs_match_golden_hashes(tmp_path)
    assert any(rows is not None for rows in forked_parse)
    assert copies and all(copies)  # writes forked, and each child sent its rows


def test_fallback_assignments_match_golden_hashes():
    n = 5000
    star = from_edges(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n))
    u, v = np.triu_indices(30, 1)
    clique = from_edges(30, u, v)
    results = {
        "star": partition_graph(star, PartitionConfig(k=4)),
        "clique": partition_graph(clique, PartitionConfig(k=4, lp=LpParams(seed=3))),
    }
    assert all(r.fallback_splits > 0 for r in results.values())
    actual = {name: _sha(r.parts.assignment.tobytes()) for name, r in results.items()}
    assert actual == FALLBACK_GOLDEN
