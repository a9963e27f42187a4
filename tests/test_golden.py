"""Golden outputs of a small CLI chain, pinned by sha256.

Every command below is deterministic for its flags and seed, so the bytes it
writes are the equivalence oracle for refactors: a change that only
restructures code must leave every constant here as it is. A change that
alters outputs on purpose (for example a new k-way balance rule) updates the
constants in the same commit and says so in CHANGES.md, naming each file
whose hash moved.
"""

import hashlib
import json

import numpy as np

from lppart.cli import run

GOLDEN = {
    "graph.tsv": "e5abcf5cdfa1fc4f3138dad0d3118f9ccbc196300346bcf873a9d05ae218ffee",
    "parts.tsv": "18854c80587f993c659847a35ac86b2ccb8bb84e1510e23cfdb8c3bfdb13d706",
    "metrics.json": "f4b29df085397739180e103283c284c59cfb7cf7a5993df7d202f9778594578f",
    "coarse-node.tsv": "60154e48107e839af94cd3f6b81107bdd1156fb741e8caa2dfd1879f84f3036b",
    "coarse-node.tsv.values": "e1f0fe216b4977966e099fc2f7663375c538b44994db375c261d042a2d56e03d",
    "coarse-edge.tsv": "60154e48107e839af94cd3f6b81107bdd1156fb741e8caa2dfd1879f84f3036b",
    "coarse-edge.tsv.values": "e1f0fe216b4977966e099fc2f7663375c538b44994db375c261d042a2d56e03d",
    "refined-nodes.tsv": "d4763d37e9f323ef82b611900fbe1850430a4ec46edafa43e6457eed5f03ca26",
    "refined-edges.tsv": "55a08daef5963b4d1ab774b3cd5452724294e96044e346d8546c64f2506337bb",
    "pagerank.tsv": "b153e60ad66e3f35d292b1bd910172f9d787e788be1628b58a670091bc39ce61",
    "features.tsv": "644b2ce47f795132c2846d9f5f0fbe31e2635edfa3194639399ec1e158d760e4",
    "global.tsv": "a473c32eb131b8f8707fa44080f6c7d57d8c1efcc040435c70c1e3adfcb83b99",
    "joined.tsv": "cba5d95a550dec5e41aadbb6b59371acb6011dcd90ddac12e82517dddccf91b5",
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
