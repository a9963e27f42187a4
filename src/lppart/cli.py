"""Command-line interface for generating, partitioning, and scoring graphs.

Exit codes: 0 success, 1 input error, 2 infeasible request (e.g. more parts
than nodes). Warnings go to stderr only; data files never contain them.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

import numpy as np

from lppart import __version__
from lppart.augment import (PagerankParams, aggregate_features, concat_global, pagerank,
                            read_feature_table, refine_structure, write_feature_table)
from lppart.coarsen import coarsen, write_coarse_graph
from lppart.generate import GeneratorSpec, generate
from lppart.graph import (GraphFormatError, IdMap, PartitionMap, _read_table, _read_text,
                          _write_table, load_edge_list, thread_count, worker_threads,
                          write_edge_list)
from lppart.kway import BisectConfig, InfeasibleError
from lppart.labelprop import LpParams
from lppart.metrics import build_report
from lppart.pipeline import (_PARTITION_COLUMNS, PartitionConfig, partition_graph,
                             read_partition_file, sample_subgraphs, write_manifest,
                             write_partition_file)

logger = logging.getLogger("lppart.cli")


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(prog="lppart", formatter_class=fmt,
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lppart {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", formatter_class=fmt, help="generate a synthetic graph")
    p.add_argument("--model", required=True,
                   help="generator spec, e.g. 'planted_partition(2,50,1.0,0.0)'")
    p.add_argument("--seed", type=int, default=42, help="generator seed")
    p.add_argument("--out", required=True, help="output edge-list TSV path")

    p = sub.add_parser("partition", formatter_class=fmt,
                       help="partition a graph into k balanced parts")
    p.add_argument("--input", required=True, help="edge-list TSV path")
    p.add_argument("--k", type=int, required=True, help="number of parts")
    p.add_argument("--p-ratio", type=float, default=0.5, help="edge retention ratio threshold")
    p.add_argument("--p-bound", type=float, default=0.1, help="random edge retention probability")
    p.add_argument("--t", type=int, default=2,
                   help="propagation loop bound T (T+1 vote/prune rounds per level)")
    p.add_argument("--outer-t", type=int, default=2,
                   help="level loop bound (builds outer_t+1 levels)")
    p.add_argument("--epsilon", type=float, default=0.1, help="allowed value imbalance")
    p.add_argument("--seed", type=int, default=42, help="pipeline seed")
    p.add_argument("--threads", type=int, default=thread_count(),
                   help="threads the label-propagation and k-way arc passes run on, "
                        "by default the CPUs this process may use (results never "
                        "depend on this)")
    p.add_argument("--min-subgraph-warn", type=int, default=30000,
                   help="warn for parts smaller than this many nodes")
    p.add_argument("--out", required=True, help="output partition TSV path")
    p.add_argument("--manifest", default=None, help="optional run-manifest JSON path")

    p = sub.add_parser("metrics", formatter_class=fmt, help="score a partition")
    p.add_argument("--input", required=True, help="edge-list TSV path")
    p.add_argument("--parts", required=True, help="partition TSV path")
    p.add_argument("--json", required=True, help="output report JSON path")

    p = sub.add_parser("coarsen", formatter_class=fmt, help="contract a partition")
    p.add_argument("--input", required=True, help="edge-list TSV path")
    p.add_argument("--parts", required=True, help="partition TSV path")
    p.add_argument("--mode", choices=["edge", "node"], default="node",
                   help="coarse node value semantics")
    p.add_argument("--out", required=True,
                   help="output coarse edge TSV path ('.values' table written alongside)")

    p = sub.add_parser("refine", formatter_class=fmt,
                       help="drop the least influential nodes or lightest edges")
    p.add_argument("--input", required=True, help="edge-list TSV path")
    p.add_argument("--fraction", type=float, default=0.05, help="fraction to remove")
    p.add_argument("--mode", choices=["nodes", "edges"], default="nodes", help="what to remove")
    p.add_argument("--alpha", type=float, default=0.85, help="PageRank damping")
    p.add_argument("--out", required=True, help="output edge-list TSV path")

    p = sub.add_parser("pagerank", formatter_class=fmt, help="per-node PageRank scores")
    p.add_argument("--input", required=True, help="edge-list TSV path")
    p.add_argument("--alpha", type=float, default=0.85, help="damping factor")
    p.add_argument("--out", required=True, help="output score TSV path")

    p = sub.add_parser("sample", formatter_class=fmt, help="sample part ids from a partition")
    p.add_argument("--parts", required=True, help="partition TSV path")
    p.add_argument("--ratio", type=float, default=0.05, help="fraction of parts to sample")
    p.add_argument("--seed", type=int, default=42, help="sampling seed")

    p = sub.add_parser("features", formatter_class=fmt, help="feature table operations")
    fsub = p.add_subparsers(dest="features_command", required=True)
    fa = fsub.add_parser("aggregate", formatter_class=fmt,
                         help="aggregate node features into one row per part")
    fa.add_argument("--features", required=True, help="feature TSV path")
    fa.add_argument("--parts", required=True, help="partition TSV path")
    fa.add_argument("--op", choices=["mean", "sum"], default="mean", help="aggregation operator")
    fa.add_argument("--out", required=True, help="output feature TSV path (row per part)")
    fc = fsub.add_parser("concat", formatter_class=fmt,
                         help="append each node's part-level row to its features")
    fc.add_argument("--features", required=True, help="per-node feature TSV path")
    fc.add_argument("--global", dest="global_features", required=True,
                    help="per-part feature TSV path")
    fc.add_argument("--parts", required=True, help="partition TSV path")
    fc.add_argument("--out", required=True, help="output feature TSV path")
    return parser


def _cmd_gen(args) -> int:
    spec = GeneratorSpec.parse(args.model, seed=args.seed)
    g = generate(spec)
    write_edge_list(g, args.out)
    logger.info("wrote %d nodes / %d edges to %s", g.node_count, g.edge_count, args.out)
    return 0


def _cmd_partition(args) -> int:
    with worker_threads(args.threads):
        t0 = time.perf_counter()
        g, id_map = load_edge_list(args.input)
        load_ms = (time.perf_counter() - t0) * 1000.0
        cfg = PartitionConfig(
            k=args.k,
            lp=LpParams(p_ratio=args.p_ratio, p_bound=args.p_bound,
                        t_iterations=args.t, seed=args.seed),
            outer_t=args.outer_t,
            bisect=BisectConfig(epsilon=args.epsilon, seed=args.seed),
            min_subgraph_warn=args.min_subgraph_warn,
        )
        result = partition_graph(g, cfg)
        t0 = time.perf_counter()
        write_partition_file(result.parts, id_map, args.out)
        result.timings_ms = {"load_ms": load_ms, **result.timings_ms,
                             "write_ms": (time.perf_counter() - t0) * 1000.0}
        if args.manifest:
            write_manifest(args.manifest, cfg, result)
        logger.info("partitioned %d nodes into %d parts", g.node_count, args.k)
        return 0


def _load_graph_and_parts(input_path: str, parts_path: str):
    g, id_map = load_edge_list(input_path)
    parts = read_partition_file(parts_path, id_map)
    return g, id_map, parts


def _cmd_metrics(args) -> int:
    g, _, parts = _load_graph_and_parts(args.input, args.parts)
    t0 = time.perf_counter()
    report = build_report(g, parts, parts.num_parts)
    report.wall_times_ms["metrics"] = (time.perf_counter() - t0) * 1000.0
    with open(args.json, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(f"edge_cut_ratio={report.edge_cut_ratio:.6f} bal={report.bal:.6f} "
          f"std={report.std:.6f} k={parts.num_parts}")
    return 0


def _cmd_coarsen(args) -> int:
    g, _, parts = _load_graph_and_parts(args.input, args.parts)
    cg = coarsen(parts, args.mode, g)
    write_coarse_graph(cg, args.out, args.out + ".values")
    logger.info("coarse graph: %d nodes / %d edges", cg.graph.node_count, cg.graph.edge_count)
    return 0


def _cmd_refine(args) -> int:
    g, id_map = load_edge_list(args.input)
    refined, kept = refine_structure(g, args.fraction, args.mode, PagerankParams(alpha=args.alpha))
    write_edge_list(refined, args.out, IdMap(id_map.external_ids[kept.external_ids]))
    logger.info("removed %d node(s) and %d edge(s)",
                g.node_count - refined.node_count, g.edge_count - refined.edge_count)
    return 0


def _cmd_pagerank(args) -> int:
    g, id_map = load_edge_list(args.input)
    scores = pagerank(g, PagerankParams(alpha=args.alpha))
    _write_table(args.out, (id_map.external_ids,), scores)
    return 0


def _cmd_sample(args) -> int:
    rows, _ = _read_table(args.parts, _read_text(args.parts), _PARTITION_COLUMNS)
    if not len(rows):
        raise GraphFormatError("empty partition file")
    _, last = np.unique(rows[::-1, 0], return_index=True)  # a repeated id keeps its last part
    assign = rows[::-1, 1][last]
    for pid in sample_subgraphs(PartitionMap(assign, int(assign.max()) + 1), args.ratio, args.seed):
        print(int(pid))
    return 0


def _cmd_features(args) -> int:
    table, ids = read_feature_table(args.features)
    parts = read_partition_file(args.parts, IdMap(ids))
    if args.features_command == "aggregate":
        write_feature_table(aggregate_features(parts, table, op=args.op), args.out)
    else:
        global_table, _ = read_feature_table(args.global_features)
        write_feature_table(concat_global(table, global_table, parts), args.out, ids=ids)
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "partition": _cmd_partition,
    "metrics": _cmd_metrics,
    "coarsen": _cmd_coarsen,
    "refine": _cmd_refine,
    "pagerank": _cmd_pagerank,
    "sample": _cmd_sample,
    "features": _cmd_features,
}


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
