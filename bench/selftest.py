"""Shows that every output check accepts a real output and rejects a corrupted one.

    python3 bench/selftest.py

Builds small inputs, runs the real lppart commands on them, then corrupts
each output in one place and requires the matching check to raise.
Exits 1 if any check accepts a corrupted output or rejects a real one.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import lppart  # noqa: E402
import lppart.cli  # noqa: E402
import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from inputs import FEATURES_FILE, GRAPH_FILE, PARTS_FILE, write_downstream  # noqa: E402
from run import check_same, digest  # noqa: E402
from worker import downstream_pass  # noqa: E402

K = 4
failures: list[str] = []


def expect(name: str, fn, *args, rejects: bool):
    try:
        value = fn(*args)
    except CheckError:
        if not rejects:
            failures.append(f"{name}: rejected a real output")
        return None
    if rejects:
        failures.append(f"{name}: accepted a corrupted output")
    return value


def rewrite(src: Path, dest: Path, edit) -> Path:
    """Copy a text table, letting ``edit`` change its list of split rows."""
    rows = [line.split("\t") for line in src.read_text().splitlines()]
    edit(rows)
    dest.write_text("".join("\t".join(r) + "\n" for r in rows))
    return dest


def bump(rows, row: int, col: int, factor: float = 1.001) -> None:
    rows[row][col] = repr(float(rows[row][col]) * factor)


def partition_cases(tmp: Path) -> None:
    g = lppart.generate(lppart.GeneratorSpec("random_weighted", (300, 1500, 0.1, 1.0), seed=5))
    lppart.write_edge_list(g, tmp / "g.tsv")
    assert lppart.cli.run(["partition", "--input", str(tmp / "g.tsv"), "--k", str(K),
                           "--min-subgraph-warn", "0", "--out", str(tmp / "p.tsv")]) == 0
    edges = checks.Edges.read(tmp / "g.tsv")
    ids, parts = checks.read_partition(tmp / "p.tsv")
    expect("partition", checks.check_partition, edges, ids, parts, K, rejects=False)
    cut = checks.edge_cut(edges, ids, parts)
    expect("cut", checks.check_cut, cut, K, rejects=False)

    dup = ids.copy()
    dup[0] = dup[1]
    expect("partition/duplicate id", checks.check_partition, edges, dup, parts, K, rejects=True)
    expect("partition/missing id", checks.check_partition, edges, ids[1:], parts[1:], K,
           rejects=True)
    out_of_range = parts.copy()
    out_of_range[0] = K
    expect("partition/part id out of range", checks.check_partition, edges, ids, out_of_range,
           K, rejects=True)
    expect("partition/empty part", checks.check_partition, edges, ids,
           np.where(parts == K - 1, 0, parts), K, rejects=True)
    expect("cut/no better than random", checks.check_cut, 1 - 1 / K, K, rejects=True)


def downstream_cases(tmp: Path) -> None:
    write_downstream(lppart, 7, tmp, nodes=400, edges=2000)
    out = tmp / "pass0"
    out.mkdir()
    downstream_pass(tmp, out)
    edges = checks.Edges.read(tmp / GRAPH_FILE)
    ids, parts = checks.read_partition(tmp / PARTS_FILE)
    feat_ids, feats = checks.read_features(tmp / FEATURES_FILE)
    bad = tmp / "bad"
    bad.mkdir()

    expect("metrics", checks.check_metrics_report, edges, ids, parts, out / "metrics.json",
           rejects=False)
    text = (out / "metrics.json").read_text()
    for key in ("edge_cut_ratio", "bal", "std"):
        rep = json.loads(text)
        rep[key] += 1e-3
        (bad / "metrics.json").write_text(json.dumps(rep))
        expect(f"metrics/{key}", checks.check_metrics_report, edges, ids, parts,
               bad / "metrics.json", rejects=True)
    for key in ("per_part_nodes", "per_part_intra_edges"):
        rep = json.loads(text)
        rep[key][0] += 1
        (bad / "metrics.json").write_text(json.dumps(rep))
        expect(f"metrics/{key}", checks.check_metrics_report, edges, ids, parts,
               bad / "metrics.json", rejects=True)

    coarse, values = out / "coarse.tsv", out / "coarse.tsv.values"
    expect("coarse", checks.check_coarse, edges, ids, parts, coarse, values, rejects=False)
    expect("coarse/edge weight", checks.check_coarse, edges, ids, parts,
           rewrite(coarse, bad / "c.tsv", lambda r: bump(r, 0, 2)), values, rejects=True)
    expect("coarse/self-loop weight", checks.check_coarse, edges, ids, parts, coarse,
           rewrite(values, bad / "c.values", lambda r: bump(r, 0, 2)), rejects=True)
    expect("coarse/node value", checks.check_coarse, edges, ids, parts, coarse,
           rewrite(values, bad / "c.values", lambda r: r[0].__setitem__(1, "1")), rejects=True)
    expect("coarse/node count", checks.check_coarse, edges, ids, parts, coarse,
           rewrite(values, bad / "c.values", lambda r: r.pop()), rejects=True)

    pr_path = out / "pagerank.tsv"
    scores = expect("pagerank", checks.check_pagerank, edges, pr_path, rejects=False)
    expect("pagerank/sum", checks.check_pagerank, edges,
           rewrite(pr_path, bad / "pr.tsv", lambda r: bump(r, 0, 1)), rejects=True)

    def swap_scores(rows):
        rows[0][1], rows[1][1] = rows[1][1], rows[0][1]

    expect("pagerank/fixed point", checks.check_pagerank, edges,
           rewrite(pr_path, bad / "pr.tsv", swap_scores), rejects=True)

    refined = out / "refined.tsv"
    expect("refine", checks.check_refine, edges, *scores, 0.05, refined, rejects=False)
    expect("refine/dropped edge", checks.check_refine, edges, *scores, 0.05,
           rewrite(refined, bad / "r.tsv", lambda r: r.pop(0)), rejects=True)
    expect("refine/one node fewer", checks.check_refine, edges, *scores, 0.04, refined,
           rejects=True)

    agg_path = out / "global.tsv"
    agg = expect("aggregate", checks.check_aggregate, ids, parts, feat_ids, feats, agg_path,
                 rejects=False)
    expect("aggregate/value", checks.check_aggregate, ids, parts, feat_ids, feats,
           rewrite(agg_path, bad / "a.tsv", lambda r: bump(r, 1, 1)), rejects=True)
    joined = out / "joined.tsv"
    expect("concat", checks.check_concat, ids, parts, feat_ids, feats, agg, joined,
           rejects=False)
    expect("concat/value", checks.check_concat, ids, parts, feat_ids, feats, agg,
           rewrite(joined, bad / "j.tsv", lambda r: bump(r, 1, -1)), rejects=True)

    first = digest(out)
    expect("same", check_same, first, digest(out), rejects=False)
    shutil.copy(bad / "j.tsv", out / "joined.tsv")
    expect("same/changed output", check_same, first, digest(out), rejects=True)


def main() -> int:
    out = BENCH.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        partition_cases(tmp)
        downstream_cases(tmp)
    finally:
        shutil.rmtree(tmp)
    for msg in failures:
        print(f"FAIL {msg}")
    print("selftest:",
          "failed" if failures else "all checks accept real and reject corrupted output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
