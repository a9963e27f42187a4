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

from lppart.cli import run
from lppart.graph import from_edges
from lppart.labelprop import LpParams
from lppart.pipeline import PartitionConfig, partition_graph

GOLDEN = {
    "graph.tsv": "e5abcf5cdfa1fc4f3138dad0d3118f9ccbc196300346bcf873a9d05ae218ffee",
    "parts.tsv": "0346f2cd45da336c88af00d841e165d0af0f5e70ccb55c53de82144d46e905e7",
    "metrics.json": "09ba18a208064446b0c89250cc4247f7c68942cab9bff9705520174b49b235c6",
    "coarse-node.tsv": "c12314dec56f8a66eee79a4b567a435e6d2b4e645746063ff012af3b41223649",
    "coarse-node.tsv.values": "a9d37dfd61796b7b11fc1a5acfa338f531dded81600c2c35d16507642a8c74b7",
    "coarse-edge.tsv": "c12314dec56f8a66eee79a4b567a435e6d2b4e645746063ff012af3b41223649",
    "coarse-edge.tsv.values": "a9d37dfd61796b7b11fc1a5acfa338f531dded81600c2c35d16507642a8c74b7",
    "refined-nodes.tsv": "d4763d37e9f323ef82b611900fbe1850430a4ec46edafa43e6457eed5f03ca26",
    "refined-edges.tsv": "55a08daef5963b4d1ab774b3cd5452724294e96044e346d8546c64f2506337bb",
    "pagerank.tsv": "b153e60ad66e3f35d292b1bd910172f9d787e788be1628b58a670091bc39ce61",
    "features.tsv": "644b2ce47f795132c2846d9f5f0fbe31e2635edfa3194639399ec1e158d760e4",
    "global.tsv": "cf9000c4fcbedad040d28fa86c56a5926280b649ca27d8d81ee241e5404004e9",
    "joined.tsv": "b15ce1a385da0c08fff307d454cf51cfba01cbe148046154a176958ddc89d66c",
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
