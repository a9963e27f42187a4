"""Child process of the benchmark: builds inputs, or runs timed passes.

    worker.py setup  WORKLOAD SEED DIR [SPANS]
    worker.py passes WORKLOAD SEED DIR SECONDS TRACE RESULT

``setup`` builds the workload's inputs in DIR (files, or for ``mesh-lib``
the in-memory graph) and exits; with SPANS it records spans while doing so.
``passes`` runs closed-loop passes, one after another, until the next pass
would end after SECONDS (at least two), writing each pass's outputs to
DIR/pass<i>. With TRACE=1 odd passes run traced. It writes wall times,
errors, the peak RSS after the first pass and spans to the RESULT JSON
file. The set-up and the checks live in other processes, so this process's
peak RSS is the program's own.
"""

from __future__ import annotations

import functools
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import lppart
import lppart.cli
from inputs import (CLI_K, DOWN_FRACTION, FEATURES_FILE, GRAPH_FILE, MESH_K, PARTS_FILE,
                    PIPELINE_SEED, build_mesh_graph, write_cli_random, write_downstream)
from tracing import Tracer

MIN_PASSES = 2


def _cli(argv: list[str]) -> None:
    rc = lppart.cli.run(argv)
    if rc != 0:
        raise RuntimeError(f"lppart {' '.join(argv)} exited with {rc}")


def cli_random_pass(root: Path, out: Path) -> None:
    _cli(["partition", "--input", str(root / GRAPH_FILE), "--k", str(CLI_K),
          "--seed", str(PIPELINE_SEED), "--out", str(out / "parts.tsv")])


def downstream_pass(root: Path, out: Path) -> None:
    g, p, f = (str(root / name) for name in (GRAPH_FILE, PARTS_FILE, FEATURES_FILE))
    _cli(["metrics", "--input", g, "--parts", p, "--json", str(out / "metrics.json")])
    _cli(["coarsen", "--input", g, "--parts", p, "--mode", "node",
          "--out", str(out / "coarse.tsv")])
    _cli(["refine", "--input", g, "--fraction", str(DOWN_FRACTION), "--mode", "nodes",
          "--out", str(out / "refined.tsv")])
    _cli(["pagerank", "--input", g, "--out", str(out / "pagerank.tsv")])
    _cli(["features", "aggregate", "--features", f, "--parts", p, "--out", str(out / "global.tsv")])
    _cli(["features", "concat", "--features", f, "--global", str(out / "global.tsv"),
          "--parts", p, "--out", str(out / "joined.tsv")])


def setup(workload: str, seed: int, root: Path, spans_path: Path | None) -> None:
    tracer = Tracer()
    if spans_path:
        tracer.install()
    if workload == "cli-random":
        write_cli_random(lppart, seed, root)
    elif workload == "mesh-lib":
        build_mesh_graph(lppart, seed)
    else:
        write_downstream(lppart, seed, root)
    if spans_path:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.spans))


def passes(workload: str, seed: int, root: Path, seconds: float, trace: bool,
           result_path: Path) -> None:
    if workload == "mesh-lib":
        g = build_mesh_graph(lppart, seed)
        cfg = lppart.PartitionConfig(k=MESH_K)

        def run_pass(out: Path) -> np.ndarray:
            return lppart.partition_graph(g, cfg).parts.assignment
    else:
        run_pass = functools.partial(
            {"cli-random": cli_random_pass, "downstream": downstream_pass}[workload], root)

    tracer = Tracer()
    walls, traced, errors, spans = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        out = root / f"pass{i}"
        out.mkdir()
        on = trace and i % 2 == 1
        gc.collect()
        if on:
            tracer.install()
        t0 = time.perf_counter()
        try:
            assignment = run_pass(out)
            error = None
        except Exception as exc:  # a failed pass is counted by the caller, not fatal
            traceback.print_exc()
            assignment, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if on:
            tracer.uninstall()
            spans.append(list(tracer.spans))
            tracer.spans.clear()
        if assignment is not None:
            np.save(out / "parts.npy", assignment)
        walls.append(wall)
        traced.append(on)
        errors.append(error)
        i += 1
        if i == 1:  # one pass is what a CLI user's process does; later passes add heap leftovers
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if i >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    result_path.write_text(json.dumps({"walls": walls, "traced": traced, "errors": errors,
                                       "peak_rss_mb": peak_rss_mb, "spans": spans}))


def main(argv: list[str]) -> int:
    mode, workload, seed, root = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if mode == "setup":
        setup(workload, seed, root, Path(argv[4]) if len(argv) > 4 else None)
    else:
        passes(workload, seed, root, float(argv[4]), argv[5] == "1", Path(argv[6]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
