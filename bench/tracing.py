"""Span recorder wrapped around the public functions of lppart's layers.

``Tracer.install`` replaces every public function defined in a layer module
wherever a loaded ``lppart`` module holds a reference to it (for example
both ``lppart.graph.load_edge_list`` and ``lppart.cli.load_edge_list``), so
spans follow the program's own control flow. ``uninstall`` puts the
originals back. Spans stay in memory until the process writes them out.

A span is ``[name, parent, start, end, counts]``; ``parent`` is the index of
the enclosing span or ``None``. Counts are read from arguments and return
values outside the timed interval.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "labelprop", "coarsen", "kway", "pipeline", "augment", "metrics", "cli",
          "generate")

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _coarsen_name(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    return f"coarsen.coarsen.{mode}"


# qualified name -> (args, kwargs, result) -> counts
_COUNTERS = {
    "labelprop.vote_update": lambda a, kw, r: {"arcs": a[0].arc_count},
    "labelprop.edge_retention": lambda a, kw, r: {"edges_in": a[0].edge_count,
                                                  "edges_out": r.edge_count},
    "labelprop.multilevel_label_prop": lambda a, kw, r: {"communities": r.num_parts},
    "kway.kway_partition": lambda a, kw, r: {"input_nodes": a[0].graph.node_count,
                                             "input_edges": a[0].graph.edge_count},
    "kway.heavy_edge_matching": lambda a, kw, r: {"pairs": len(r), "nodes": a[0].node_count},
    "pipeline.partition_graph": lambda a, kw, r: {"fallback_splits": r.fallback_splits},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        counter = _COUNTERS.get(qualname)
        track_rss = qualname == "graph.load_edge_list"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _coarsen_name(args, kwargs) if qualname == "coarsen.coarsen" else qualname
            rss0 = _rss_mb() if track_rss else 0.0
            span = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            if track_rss:
                counts["rss_rise_mb"] = _rss_mb() - rss0
            span[4] = counts or None
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lppart.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "lppart" and not modname.startswith("lppart."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._installed):
            setattr(mod, attr, val)
        self._installed.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[3] - s[2]
    return own


class Totals:
    """Per-name sums of time, self time, calls and counts over a span list."""

    def __init__(self, spans: list[list]):
        self.s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.last = {}
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            self.s[name] += span[3] - span[2]
            self.self_s[name] += own
            self.calls[name] += 1
            for key, val in (span[4] or {}).items():
                self.counts[f"{name}.{key}"] += val
                self.last[f"{name}.{key}"] = val
        self.total_self_s = sum(self.self_s.values())


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith("ratio") else "count"


def per_layer_metrics(setup_spans: list[list], pass_spans: list[list[list]],
                      overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one set-up plus one average traced pass.

    Times and call counts add the set-up's spans to the mean over traced
    passes; ratios pool every call; ``labelprop.communities`` is the last
    propagation level's community count, averaged over passes.
    """
    setup = Totals(setup_spans)
    passes = [Totals(sp) for sp in pass_spans]
    n = len(passes)

    def per_pass(field: str, name: str) -> float:
        return (getattr(setup, field)[name]
                + sum(getattr(p, field)[name] for p in passes) / n)

    def pooled(num: str, den: str, scale: float = 1.0) -> float:
        d = sum(p.counts[den] for p in passes)
        return scale * sum(p.counts[num] for p in passes) / d if d else 0.0

    def mean_count(key: str) -> float:
        calls = sum(p.calls[key.rsplit(".", 1)[0]] for p in passes)
        return sum(p.counts[key] for p in passes) / calls if calls else 0.0

    m = {}
    for name in ("graph.load_edge_list", "graph.write_edge_list", "graph.from_edges",
                 "graph.induced_subgraph", "labelprop.vote_update", "labelprop.edge_retention",
                 "coarsen.coarsen.edge", "coarsen.coarsen.node", "coarsen.write_coarse_graph",
                 "kway.kway_partition", "kway.heavy_edge_matching",
                 "pipeline.write_partition_file", "pipeline.read_partition_file",
                 "augment.pagerank", "augment.read_feature_table", "augment.write_feature_table",
                 "augment.aggregate_features", "augment.concat_global", "metrics.build_report"):
        m[f"{name}.s"] = per_pass("s", name)
    for name in ("graph.induced_subgraph", "labelprop.vote_update", "coarsen.coarsen.edge",
                 "kway.heavy_edge_matching", "pipeline.read_partition_file", "augment.pagerank"):
        m[f"{name}.calls"] = per_pass("calls", name)
    for name in ("labelprop.multilevel_label_prop", "kway.kway_partition",
                 "pipeline.partition_graph", "cli.run"):
        m[f"{name}.self_s"] = per_pass("self_s", name)
    m["graph.load_edge_list.rss_rise_mb"] = mean_count("graph.load_edge_list.rss_rise_mb")
    m["labelprop.vote_update.arcs"] = sum(p.counts["labelprop.vote_update.arcs"]
                                          for p in passes) / n
    m["labelprop.edge_retention.kept_ratio"] = pooled("labelprop.edge_retention.edges_out",
                                                      "labelprop.edge_retention.edges_in")
    m["labelprop.communities"] = sum(p.last.get("labelprop.multilevel_label_prop.communities", 0)
                                     for p in passes) / n
    m["kway.kway_partition.input_nodes"] = mean_count("kway.kway_partition.input_nodes")
    m["kway.kway_partition.input_edges"] = mean_count("kway.kway_partition.input_edges")
    m["kway.heavy_edge_matching.matched_ratio"] = pooled("kway.heavy_edge_matching.pairs",
                                                         "kway.heavy_edge_matching.nodes", 2.0)
    m["pipeline.fallback_splits"] = sum(p.counts["pipeline.partition_graph.fallback_splits"]
                                        for p in passes) / n
    m["trace.overhead_s"] = overhead_s
    m["trace.self_total_s"] = sum(p.total_self_s for p in passes) / n
    return {name: (value, unit_of(name)) for name, value in m.items()}
