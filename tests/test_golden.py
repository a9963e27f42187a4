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
    "parts.tsv": "bc458ca7aea59834b87fdb71baa2a50804acb42692aedf0896aef3a9b94bdfcc",
    "metrics.json": "43f5c45db7b36e031dcf99ab2cc1f72a73d69442448e32332f20cced1a05c15a",
    "coarse-node.tsv": "8023fc85398b46f9c8fe2a2083749dabd2c794c65612af10b4854e3f4e36ca24",
    "coarse-node.tsv.values": "ffb9bd14078730ecc8cad7524708498c9b6294939126cea275987e00a4c246c9",
    "coarse-edge.tsv": "8023fc85398b46f9c8fe2a2083749dabd2c794c65612af10b4854e3f4e36ca24",
    "coarse-edge.tsv.values": "ffb9bd14078730ecc8cad7524708498c9b6294939126cea275987e00a4c246c9",
    "refined-nodes.tsv": "d4763d37e9f323ef82b611900fbe1850430a4ec46edafa43e6457eed5f03ca26",
    "refined-edges.tsv": "55a08daef5963b4d1ab774b3cd5452724294e96044e346d8546c64f2506337bb",
    "pagerank.tsv": "b153e60ad66e3f35d292b1bd910172f9d787e788be1628b58a670091bc39ce61",
    "features.tsv": "644b2ce47f795132c2846d9f5f0fbe31e2635edfa3194639399ec1e158d760e4",
    "global.tsv": "53141a17322674b85c728fd65be104513d3a81c8c8ea8edd59a441987b64763c",
    "joined.tsv": "e3697649b11e88f139354a226201ef87040a443ac34a333df5b3dc7966713643",
}

# partition_graph(...).parts.assignment.tobytes() on graphs where the level
# loop stops early and the finisher runs on the original graph
FALLBACK_GOLDEN = {
    "star": "16cd53d3da49d6395da5d2c1fd2a487b317bfab4ea2f1dbde4560dac795353f0",
    "clique": "cade28935b19c9160a6484af4af541c4a61ca034d45d69cc0a64c287540f905b",
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
