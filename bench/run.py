"""lppart benchmark: three workloads, each leaning on a different layer.

    python3 bench/run.py --workload cli-random --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one caller, each call after the previous one
returns):

- ``cli-random``: ``lppart.cli.run(["partition", ...])`` in-process, from the
  reference edge-list file to a parts file (load, LP, coarsen, k-way, write).
- ``mesh-lib``: ``partition_graph`` on an in-memory 500x500 grid, k=16 (the
  k-way finisher gets most of the graph; no file I/O).
- ``downstream``: the CLI commands metrics, coarsen, refine, pagerank and
  features aggregate/concat on a graph, a numpy-drawn partition and a
  feature table (I/O, augment and metrics; no LP or k-way).

Inputs are built from ``--seed`` in fresh set-up processes, several times
per run; passes run in one more process, so its peak RSS is the program's
own. Every pass's outputs are checked here with numpy, apart from lppart.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # 2 cores: one for the measured process, one for the rest

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import checks
from inputs import (CLI_K, DOWN_FRACTION, EPSILON, FEATURES_FILE, GRAPH_FILE, MESH_K,
                    MESH_SIDE, PARTS_FILE, mesh_edges)
from tracing import per_layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-random", "mesh-lib", "downstream")
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170


class Ledger:
    """Operations attempted and failed; ``correct`` turns false on a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def fail(self, what: str, wrong_output: bool) -> None:
        self.attempted += 1
        self.failed += 1
        self.correct = self.correct and not wrong_output
        print(f"FAILED {what}", file=sys.stderr)

    def check(self, fn, *args):
        """Run one output check; returns its value, or None if it failed."""
        try:
            value = fn(*args)
        except (checks.CheckError, ValueError, IndexError, KeyError, OSError) as exc:
            self.fail(f"{fn.__name__}: {exc}", wrong_output=True)
            return None
        self.attempted += 1
        return True if value is None else value


def _child(*args) -> float:
    """Run a worker process to completion; returns its wall time."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    # a blocking wait ends the moment the child exits; wait(timeout) polls in 50 ms steps
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        returncode = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    if returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited with {returncode}")
    return wall


def digest(d: Path) -> dict[str, str]:
    """sha256 of every file in ``d``; the report's measured times are left out."""
    out = {}
    for p in sorted(d.iterdir()):
        if p.is_dir():
            continue
        data = p.read_bytes()
        if p.name == "metrics.json":
            report = json.loads(data)
            report.pop("wall_times_ms")
            data = json.dumps(report, sort_keys=True).encode()
        out[p.name] = hashlib.sha256(data).hexdigest()
    return out


def check_same(first: dict, other: dict) -> None:
    if first != other:
        diff = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
        raise checks.CheckError(f"outputs differ from the first pass: {diff}")


def check_partition_passes(ledger: Ledger, edges: checks.Edges, dirs: list[Path], k: int,
                           read) -> tuple[float, float]:
    """Validity, cut below random, byte-identical to the first pass."""
    cut = ratio = float("nan")
    first = None
    for d in dirs:
        ids, parts = read(d)
        if ledger.check(checks.check_partition, edges, ids, parts, k):
            cut = checks.edge_cut(edges, ids, parts)
            ratio = checks.max_part_ratio(parts, k, EPSILON)
            ledger.check(checks.check_cut, cut, k)
        else:
            ledger.fail("edge cut of an invalid partition", wrong_output=True)
        if first is None:
            first = digest(d)
        else:
            ledger.check(check_same, first, digest(d))
    return cut, ratio


def check_downstream_passes(ledger: Ledger, root: Path, dirs: list[Path]) -> tuple[float, float]:
    edges = checks.Edges.read(root / GRAPH_FILE)
    ids, parts = checks.read_partition(root / PARTS_FILE)
    feat_ids, feats = checks.read_features(root / FEATURES_FILE)
    first = None
    for d in dirs:
        ledger.check(checks.check_metrics_report, edges, ids, parts, d / "metrics.json")
        ledger.check(checks.check_coarse, edges, ids, parts, d / "coarse.tsv",
                     d / "coarse.tsv.values")
        scores = ledger.check(checks.check_pagerank, edges, d / "pagerank.tsv")
        if scores is None:
            ledger.fail("refine check needs valid PageRank scores", wrong_output=True)
        else:
            ledger.check(checks.check_refine, edges, *scores, DOWN_FRACTION, d / "refined.tsv")
        agg = ledger.check(checks.check_aggregate, ids, parts, feat_ids, feats,
                           d / "global.tsv")
        if agg is None:
            ledger.fail("concat check needs valid aggregate rows", wrong_output=True)
        else:
            ledger.check(checks.check_concat, ids, parts, feat_ids, feats, agg,
                         d / "joined.tsv")
        if first is None:
            first = digest(d)
        else:
            ledger.check(check_same, first, digest(d))
    # the workload's given partition: fixed by the seed, not by the program
    k = int(parts.max()) + 1
    return checks.edge_cut(edges, ids, parts), checks.max_part_ratio(parts, k, EPSILON)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ledger = Ledger()

    # set-up: fresh processes, each in its own directory; the first one's inputs are used
    setup_times, setup_spans = [], []
    for rep in range(2 if trace else SETUP_REPS):
        d = work / f"setup{rep}"
        d.mkdir()
        spans_file = work / "setup-spans.json"
        traced = trace and rep == 1
        setup_times.append(_child("setup", workload, seed, d, *([spans_file] if traced else [])))
        if traced:
            setup_spans = json.loads(spans_file.read_text())
            ledger.check(check_same, digest(work / "setup0"), digest(d))
        if rep:
            shutil.rmtree(d)
    root = work / "setup0"

    result_file = work / "passes.json"
    _child("passes", workload, seed, root, seconds, int(trace), result_file)
    res = json.loads(result_file.read_text())
    dirs = []
    for i, error in enumerate(res["errors"]):
        if error is None:
            dirs.append(root / f"pass{i}")
        else:
            ledger.fail(f"pass {i}: {error}", wrong_output=False)
    ledger.attempted += len(dirs)

    if workload == "cli-random":
        cut, ratio = check_partition_passes(ledger, checks.Edges.read(root / GRAPH_FILE), dirs,
                                            CLI_K, lambda d: checks.read_partition(d / "parts.tsv"))
    elif workload == "mesh-lib":
        ids = np.arange(MESH_SIDE * MESH_SIDE, dtype=np.int64)
        cut, ratio = check_partition_passes(ledger, checks.Edges(*mesh_edges(seed)), dirs,
                                            MESH_K, lambda d: (ids, np.load(d / "parts.npy")))
    else:
        cut, ratio = check_downstream_passes(ledger, root, dirs)

    plain = [w for w, t in zip(res["walls"], res["traced"]) if not t]
    if trace:
        traced_walls = [w for w, t in zip(res["walls"], res["traced"]) if t]
        overhead = statistics.median(traced_walls) - statistics.median(plain)
        OUT.joinpath(f"spans-{workload}-seed{seed}.json").write_text(
            json.dumps({"setup": setup_spans, "passes": res["spans"]}))
        metrics = per_layer_metrics(setup_spans, res["spans"], overhead)
    else:
        metrics = {"wall_s": (statistics.median(plain), "s"),
                   "setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (res["peak_rss_mb"], "MB"),
                   "edge_cut": (cut, "ratio"),
                   "max_part_ratio": (ratio, "ratio")}
    return {"correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="passes continue while the next one would end within this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lppart" / "__init__.py").is_file():
        print(f"error: no lppart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
