"""Undirected weighted graph in compressed neighbor-list form, plus edge-list I/O.

Graphs are immutable once built. Construction canonicalizes raw edges:
parallel edges are merged by summing their weights, self-loops are dropped,
and both directions of every undirected edge are stored in CSR-style arrays
sorted by (source, target). Every node carries an integer value (default 1)
recording how many original nodes it represents after coarsening.
"""

from __future__ import annotations

import contextlib
import io
import logging
import os
import re
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

logger = logging.getLogger(__name__)

# pair keys (u * node_count + v) are packed into signed 64-bit integers
_MAX_NODES = 2**31
# external node ids are stored as signed 64-bit integers
_ID_MIN, _ID_MAX = -2**63, 2**63 - 1
# rows the text writers convert to Python scalars at a time
_ROW_BLOCK = 1 << 16
# arcs an arc pass handles at a time (whole rows, so one hub row can exceed it)
_ARC_BLOCK = 1 << 16
# threads an arc pass runs on, the calling one included (see ``worker_threads``)
_threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# the worker pool as (process id, thread count, pool), made by ``_pool`` on first use
_pool_key: tuple[int, int, ThreadPoolExecutor] | None = None


class GraphFormatError(ValueError):
    """Malformed or empty input in one of the tab-separated text formats."""


@dataclass
class IdMap:
    """Bijection between external 64-bit node ids and dense internal indices.

    ``external_ids[i]`` is the external id of internal node ``i``. For induced
    subgraphs the "external" side holds parent-graph indices.
    """

    external_ids: np.ndarray

    def __post_init__(self):
        self.external_ids = np.asarray(self.external_ids, dtype=np.int64)
        self._order = np.argsort(self.external_ids)
        self._sorted = self.external_ids[self._order]
        if (self._sorted[1:] == self._sorted[:-1]).any():
            raise ValueError("external ids are not unique")

    def __len__(self) -> int:
        return len(self.external_ids)

    def lookup(self, external: np.ndarray) -> np.ndarray:
        """Internal index of each external id, -1 where the id is unknown."""
        external = np.asarray(external, dtype=np.int64)
        if not len(self._sorted):
            return np.full(external.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._sorted, external), len(self._sorted) - 1)
        return np.where(self._sorted[pos] == external, self._order[pos], -1)

    def to_internal(self, external: int) -> int:
        index = int(self.lookup([external])[0])
        if index < 0:
            raise KeyError(f"unknown external id {external}")
        return index

    def to_external(self, index: int) -> int:
        return int(self.external_ids[index])

    @classmethod
    def identity(cls, node_count: int) -> "IdMap":
        return cls(np.arange(node_count, dtype=np.int64))


@dataclass
class WeightedGraph:
    """Symmetric weighted graph over dense node indices ``[0, node_count)``.

    ``neighbor_offsets`` has length ``node_count + 1``; the arcs of node ``i``
    live at ``[neighbor_offsets[i], neighbor_offsets[i + 1])`` in
    ``neighbor_targets`` / ``edge_weights``. Every undirected edge is stored
    as two arcs with identical weight; self-loop arcs are never stored.
    """

    node_count: int
    neighbor_offsets: np.ndarray
    neighbor_targets: np.ndarray
    edge_weights: np.ndarray
    node_values: np.ndarray
    # ground-truth block of each node, set only by the planted-partition generator
    planted_blocks: np.ndarray | None = None

    @property
    def arc_count(self) -> int:
        return len(self.neighbor_targets)

    @property
    def edge_count(self) -> int:
        return self.arc_count // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.neighbor_offsets)

    def neighbors(self, i: int) -> np.ndarray:
        return self.neighbor_targets[self.neighbor_offsets[i]:self.neighbor_offsets[i + 1]]

    def neighbor_weights(self, i: int) -> np.ndarray:
        return self.edge_weights[self.neighbor_offsets[i]:self.neighbor_offsets[i + 1]]

    def arc_sources(self) -> np.ndarray:
        """Source index of every stored arc (parallel to neighbor_targets)."""
        return np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)

    def total_edge_weight(self) -> float:
        return float(self.edge_weights.sum()) / 2.0

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical undirected edges as (u, v, w) arrays with u < v, in arc order."""
        keep, counts = _arc_mask(self, lambda src, dst, w: src < dst)
        u = np.repeat(np.arange(self.node_count, dtype=np.int64), counts)
        return u, self.neighbor_targets[keep], self.edge_weights[keep]

    def with_node_values(self, values: np.ndarray) -> "WeightedGraph":
        """Same topology with replaced per-node values."""
        return WeightedGraph(self.node_count, self.neighbor_offsets, self.neighbor_targets,
                             self.edge_weights, _checked_values(values, self.node_count))


def thread_count() -> int:
    """Threads an arc pass runs on, the calling one included.

    The CPUs this process may use, unless ``worker_threads`` set another count.
    """
    return _threads


@contextlib.contextmanager
def worker_threads(n: int):
    """Run every arc pass inside the ``with`` block on ``n`` threads, the calling one included.

    The count is process-wide and restored on exit. Results never depend on it.
    """
    global _threads
    if n < 1:
        raise ValueError(f"thread count must be at least 1, got {n}")
    old, _threads = _threads, n
    try:
        yield
    finally:
        _threads = old


def _pool() -> ThreadPoolExecutor:
    """The shared pool of ``thread_count() - 1`` workers.

    It is made anew when the count changes, shutting the old one down, and
    after ``os.fork``: a pool made before a fork has no threads in the
    child, where a task submitted to it would wait forever.
    """
    global _pool_key
    pid = os.getpid()
    if _pool_key is None or _pool_key[:2] != (pid, _threads):
        if _pool_key is not None and _pool_key[0] == pid:
            _pool_key[2].shutdown()
        _pool_key = (pid, _threads, ThreadPoolExecutor(_threads - 1, "lppart-rows"))
    return _pool_key[2]


def _map_rows(g: WeightedGraph, fn) -> None:
    """Run ``fn(a, b, src)`` on each row block ``[a, b)`` of ``g``, ``src``
    the source of each of the block's arcs.

    Each block holds whole rows: as many as fit in ``_ARC_BLOCK`` arcs, but
    at least one arc, so a row with more arcs is a block of its own. The
    blocks tile the rows from 0 up to the last arc; empty rows after it may
    be left out. A pass holds temporaries for one block per thread, not for
    the whole arc array.

    The calling thread and up to ``thread_count() - 1`` pooled workers, but
    never more workers than blocks less one, each take the next block left.
    Blocks may run in any order, so ``fn`` writes only its own rows' slices
    of shared outputs (rows ``[a, b)``, arcs ``[offsets[a], offsets[b])``),
    and the outputs are the same for every thread count. With one thread the
    blocks run inline, in order. An exception in ``fn`` is raised here once
    no block is running.
    """
    off = g.neighbor_offsets
    blocks = []
    a = 0
    while off[a] < off[-1]:
        b = max(int(np.searchsorted(off, off[a] + _ARC_BLOCK, side="right")) - 1,
                int(np.searchsorted(off, off[a], side="right")))
        blocks.append((a, b))
        a = b
    todo = iter(blocks)
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                block = next(todo, None)
            if block is None:
                return
            a, b = block
            fn(a, b, np.repeat(np.arange(a, b, dtype=np.int64), np.diff(off[a:b + 1])))

    workers = min(_threads, len(blocks)) - 1
    futures = [_pool().submit(drain) for _ in range(workers)]
    try:
        drain()
    finally:
        todo = iter(())  # after an error here, the workers take no further block
        wait(futures)
    for f in futures:
        f.result()


def _arc_mask(g: WeightedGraph, rule) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the arcs for which ``rule(src, dst, w)`` holds, and each row's count of them.

    ``rule`` maps one row block's arc sources, targets and weights to a
    boolean array (``_map_rows``).
    """
    off = g.neighbor_offsets
    keep = np.zeros(g.arc_count, dtype=bool)
    counts = np.zeros(g.node_count, dtype=np.int64)

    def block(a, b, src):
        lo, hi = off[a], off[b]
        kept = rule(src, g.neighbor_targets[lo:hi], g.edge_weights[lo:hi])
        keep[lo:hi] = kept
        counts[a:b] = np.bincount(src[kept] - a, minlength=b - a)

    _map_rows(g, block)
    return keep, counts


def _checked_values(values, node_count: int) -> np.ndarray:
    """``values`` as an int64 array of one value >= 1 per node; raises ValueError otherwise."""
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (node_count,):
        raise ValueError("node value array has wrong length")
    if len(values) and values.min() < 1:
        raise ValueError("node values must be >= 1")
    return values


@dataclass
class PartitionMap:
    """Total assignment of every node to one of ``num_parts`` subgraphs."""

    assignment: np.ndarray
    num_parts: int

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        if len(self.assignment):
            lo, hi = self.assignment.min(), self.assignment.max()
            if lo < 0 or hi >= self.num_parts:
                raise ValueError("partition ids out of range")

    def __len__(self) -> int:
        return len(self.assignment)

    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_parts)


def _read_text(source: str | Path | IO) -> str:
    """Whole contents of a path, a binary handle (decoded as UTF-8) or a text handle."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def _write_table(dest: str | Path | IO, ids: tuple[np.ndarray, ...],
                 values: np.ndarray | None = None, header: str = "") -> None:
    """Write ``header``, then one tab-separated line per row: each id column
    formatted with ``%s``, then each column of the 1-d or 2-d ``values`` with
    ``%r``.

    ``dest`` is a path (UTF-8, no newline translation) or a text handle.
    Columns are converted with ``tolist`` one block of rows at a time:
    formatting Python scalars is faster than formatting numpy scalars, and
    memory stays bounded by the block.
    """
    n = len(ids[0])
    if any(len(c) != n for c in ids) or (values is not None and len(values) != n):
        raise ValueError("columns differ in length")
    columns = list(ids)
    if values is not None:
        columns += list(values.T) if values.ndim == 2 else [values]
    line = "\t".join(["%s"] * len(ids) + ["%r"] * (len(columns) - len(ids))) + "\n"
    with (open(dest, "w", encoding="utf-8", newline="") if isinstance(dest, (str, Path))
          else contextlib.nullcontext(dest)) as fh:
        fh.write(header)
        for start in range(0, n, _ROW_BLOCK):
            rows = zip(*(c[start:start + _ROW_BLOCK].tolist() for c in columns))
            fh.writelines(line % row for row in rows)


def _stable_order(key: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative int64 keys.

    Keys already in order (as the (node, label) keys of a first vote are)
    give the identity at the cost of one comparison pass. Otherwise, with
    ``b`` bits enough for every position, where ``key << b`` fits in int64,
    each composite ``key << b | position`` is unique, so numpy's default
    sort of the composites (SIMD, unstable) gives exactly the stable order,
    read back as the low ``b`` bits. The positions are added one block at a
    time. Larger keys fall back to ``np.argsort(kind="stable")``, a timsort
    on int64.
    """
    n = len(key)
    if n < 2 or not (key[1:] < key[:-1]).any():
        return np.arange(n, dtype=np.int64)
    bits = (n - 1).bit_length()
    if int(key.max()) >> (63 - bits) == 0:
        order = key << bits
        for start in range(0, n, _ARC_BLOCK):
            stop = min(start + _ARC_BLOCK, n)
            order[start:stop] |= np.arange(start, stop, dtype=np.int64)
        order.sort()
        order &= (1 << bits) - 1
        return order
    return np.argsort(key, kind="stable")


def _csr_from_canonical(node_count: int, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                        node_values: np.ndarray | None = None,
                        planted_blocks: np.ndarray | None = None) -> WeightedGraph:
    """Build a graph from unique canonical edges (u < v, no duplicates).

    Both arcs of each edge get the key ``source << b | target`` in one
    array, the edges' forward arcs first. The keys are unique, so any sort
    of them gives the CSR order; the sorted keys' low ``b`` bits are the
    targets, and each arc takes its edge's weight.
    """
    m = len(u)
    bits = max(node_count - 1, 0).bit_length()
    key = np.empty(2 * m, dtype=np.int64)
    np.left_shift(u, bits, out=key[:m])
    key[:m] |= v
    np.left_shift(v, bits, out=key[m:])
    key[m:] |= u
    offsets = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=node_count) + np.bincount(v, minlength=node_count),
              out=offsets[1:])
    order = _stable_order(key)
    dst = key[order]
    del key
    dst &= (1 << bits) - 1
    ww = np.take(w, order, mode="wrap")  # position i + m is edge i's backward arc
    if node_values is None:
        node_values = np.ones(node_count, dtype=np.int64)
    else:
        node_values = np.asarray(node_values, dtype=np.int64)
    return WeightedGraph(node_count, offsets, dst, ww, node_values, planted_blocks)


def _merge_edges(node_count: int, edges: list[np.ndarray],
                 node_values: np.ndarray | None = None,
                 planted_blocks: np.ndarray | None = None) -> WeightedGraph:
    """Build a graph from index pairs: self-loops are dropped, parallel edges summed.

    ``edges`` is a list ``[src, dst, w]``, emptied here once its pairs are
    keyed, so that a caller holding no other reference to the three arrays
    frees them before the CSR build. Each pair becomes the key ``min *
    node_count + max``. A stable sort of the keys (``_stable_order``) groups
    parallel edges, and each group sums its weights in input order, so the
    merged float weights depend only on the order of the input. The sorted
    keys decode back to the canonical pairs; the keys and the sort order are
    freed before the CSR build, whose key, order and target arrays (8 bytes
    per arc each) are the merge's peak.
    """
    src, dst, w = edges
    edges.clear()
    keep = src != dst
    key = np.minimum(src, dst)[keep] * np.int64(node_count)
    key += np.maximum(src, dst)[keep]
    w = w[keep]
    del src, dst, keep
    if len(key):
        order = _stable_order(key)
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        w = np.add.reduceat(w[order], starts)
        del order
        key = key[starts]
    u, v = np.divmod(key, node_count)
    del key
    return _csr_from_canonical(node_count, u, v, w, node_values, planted_blocks)


def from_edges(node_count: int, src, dst, weight=None, node_values=None,
               planted_blocks=None) -> WeightedGraph:
    """Build a graph from raw edge arrays.

    Edges may appear in any direction and any number of times; duplicates are
    merged by summing weights and self-loops are dropped.
    """
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
    if node_count > _MAX_NODES:
        raise ValueError(f"node_count {node_count} exceeds supported maximum {_MAX_NODES}")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if weight is None:
        weight = np.ones(len(src), dtype=np.float64)
    else:
        weight = np.asarray(weight, dtype=np.float64)
    if not (len(src) == len(dst) == len(weight)):
        raise ValueError("edge arrays must have equal length")
    if len(src):
        if src.min() < 0 or dst.min() < 0 or src.max() >= node_count or dst.max() >= node_count:
            raise ValueError("node index out of range")
        if not np.all(np.isfinite(weight)) or weight.min() <= 0:
            raise ValueError("edge weights must be finite and positive")
    if node_values is not None:
        node_values = _checked_values(node_values, node_count)
    if planted_blocks is not None and np.shape(planted_blocks) != (node_count,):
        raise ValueError("planted block array has wrong length")
    return _merge_edges(node_count, [src, dst, weight], node_values, planted_blocks)


def validate_graph(g: WeightedGraph) -> None:
    """Check structural invariants; raises ValueError on the first violation."""
    off = g.neighbor_offsets
    if off.shape != (g.node_count + 1,) or off[0] != 0:
        raise ValueError("neighbor_offsets has wrong shape or start")
    if np.any(np.diff(off) < 0):
        raise ValueError("neighbor_offsets is not non-decreasing")
    if off[-1] != g.arc_count:
        raise ValueError("last offset does not equal arc count")
    if len(g.edge_weights) != g.arc_count:
        raise ValueError("edge_weights length mismatch")
    if g.node_values.shape != (g.node_count,):
        raise ValueError("node_values length mismatch")
    if g.node_count and len(g.node_values) and g.node_values.min() < 1:
        raise ValueError("node values must be >= 1")
    if g.arc_count == 0:
        return
    src = g.arc_sources()
    dst = g.neighbor_targets
    if dst.min() < 0 or dst.max() >= g.node_count:
        raise ValueError("neighbor target out of range")
    if np.any(src == dst):
        raise ValueError("self-loop arc stored in adjacency")
    if not np.all(np.isfinite(g.edge_weights)) or g.edge_weights.min() <= 0:
        raise ValueError("edge weights must be finite and positive")
    fwd = np.lexsort((dst, src))
    rev = np.lexsort((src, dst))
    if (not np.array_equal(src[fwd], dst[rev])
            or not np.array_equal(dst[fwd], src[rev])
            or not np.array_equal(g.edge_weights[fwd], g.edge_weights[rev])):
        raise ValueError("adjacency is not symmetric with identical weights")
    dup = (src[fwd][1:] == src[fwd][:-1]) & (dst[fwd][1:] == dst[fwd][:-1])
    if dup.any():
        raise ValueError("duplicate arcs stored in adjacency")


# np.loadtxt opens a str path through numpy's DataSource, which fetches URLs and
# decompresses by suffix (a plain-text "x.tsv.gz" would fail); such names are
# parsed from the text already read instead.
_DATASOURCE_NAMES = re.compile(r"://|\.(gz|bz2|xz|lzma)$")


def _data_lines(text: str):
    """Line number and stripped text of each line neither blank nor a ``#`` comment, lazily."""
    start, lineno = 0, 1
    while start <= len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end].strip()
        if line and not line.startswith("#"):
            yield lineno, line
        start, lineno = end + 1, lineno + 1


def _comment_lines(text: str):
    """Line number and stripped text of each ``#`` comment line, found from the ``#`` characters."""
    lineno, counted = 1, 0
    for match in re.finditer("#.*", text):
        start = text.rfind("\n", 0, match.start()) + 1
        if not text[start:match.start()].strip():
            lineno += text.count("\n", counted, start)
            counted = start
            yield lineno, match.group().strip()


def _line_of_row(text: str, row: int) -> int:
    """Line number of data row ``row`` (counted from 0) of a table."""
    return next(lineno for i, (lineno, _) in enumerate(_data_lines(text)) if i == row)


def _parse_lines(text: str, ids: tuple[str, ...], values: tuple[str, ...],
                 required: int) -> tuple[np.ndarray, np.ndarray]:
    """Line parser of ``_read_table``; raises a ``GraphFormatError`` naming the first bad line."""
    total = len(ids) + len(values)
    want = f"{required} to {total}" if required < total else str(total)
    columns = [(n, int, "an integer") for n in ids] + [(n, float, "a number") for n in values]
    rows = []
    for lineno, line in _data_lines(text):
        fields = line.split("\t")
        if not required <= len(fields) <= total:
            raise GraphFormatError(
                f"line {lineno}: expected {want} tab-separated field(s), got {len(fields)}")
        row = []
        for (name, parse, kind), field in zip(columns, fields):
            try:
                row.append(parse(field))
            except ValueError:
                raise GraphFormatError(f"line {lineno}: {name} is not {kind}") from None
        for name, value in zip(ids, row):
            if not _ID_MIN <= value <= _ID_MAX:
                raise GraphFormatError(
                    f"line {lineno}: {name} {value} is outside the signed 64-bit range")
        rows.append(row + [1.0] * (total - len(fields)))
    table = np.array(rows, dtype=object).reshape(len(rows), total)
    return table[:, :len(ids)].astype(np.int64), table[:, len(ids):].astype(np.float64)


def _parse_columns(source: str | Path | IO, text: str, ints: int, total: int, required: int):
    """One ``np.loadtxt`` pass over input the line parser would read the same way.

    Returns None when the input needs the line parser: a ``#`` that does not
    start a line, a ``\\r`` outside a CRLF pair, a first data line with a
    field count out of range, or anything ``np.loadtxt`` rejects or warns
    about (ids outside int64 included).
    """
    if "#" in text and text.count("#") != text.count("\n#") + text.startswith("#"):
        return None
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    first = next(_data_lines(text), None)
    ncols = first[1].count("\t") + 1 if first else 0
    if not required <= ncols <= total:
        return None
    dtype = [("ids", np.int64, (ints,))]
    if ncols > ints:
        dtype.append(("values", np.float64, (ncols - ints,)))
    if isinstance(source, (str, Path)) and not _DATASOURCE_NAMES.search(str(source)):
        lines = source  # loadtxt reads the file in its own chunks
    else:
        lines = io.BytesIO(text.encode("utf-8"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. float-to-int parsing on older numpy
            cols = np.loadtxt(lines, dtype=dtype, delimiter="\t", comments="#",
                              encoding="utf-8", ndmin=1)
    except (ValueError, Warning):
        return None
    values = cols["values"] if ncols > ints else np.empty((len(cols), 0))
    if ncols < total:
        values = np.hstack([values, np.ones((len(cols), total - ncols))])
    return cols["ids"], values


def _read_table(source: str | Path | IO, text: str, ids: tuple[str, ...],
                values: tuple[str, ...] = (), required: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The int64 id block and float64 value block of ``text``, the contents of ``source``.

    Each line that is not blank or a ``#`` comment holds a tab-separated
    field per name in ``ids``, then in ``values``, or at least ``required``
    of them; missing values read as 1.0. One ``np.loadtxt`` call parses a
    well-formed table; else the line parser names the first bad line.
    """
    total = len(ids) + len(values)
    required = total if required is None else required
    blocks = _parse_columns(source, text, len(ids), total, required)
    return blocks if blocks is not None else _parse_lines(text, ids, values, required)


def _number_ids(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the ids of an ``(n, 2)`` block densely in first-appearance order, row by row.

    Returns the ids in that order and the indices of both columns.
    """
    ids = pairs.reshape(-1)
    unique, inverse = np.unique(ids, return_inverse=True)
    first = np.full(len(unique), len(ids))
    np.minimum.at(first, inverse, np.arange(len(ids)))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return unique[order], rank[inverse[0::2]], rank[inverse[1::2]]


def load_edge_list(source: str | Path | IO, weighted: bool = True) -> tuple[WeightedGraph, IdMap]:
    """Parse an edge-list TSV into a graph plus an id map.

    Lines are ``src<TAB>dst[<TAB>weight]``; ``#``-prefixed lines are ignored.
    Node ids are parsed as exact signed 64-bit integers, weights as float64.
    Parallel edges are merged by summing their weights, self-loops are
    dropped with a counted warning, and the graph is symmetrized. With
    ``weighted=False`` any weight column is still validated but every edge
    gets weight 1.0. Internal indices are assigned in first-appearance order.

    A well-formed file is parsed by one ``np.loadtxt`` call, anything else
    by the line parser; a malformed line, or a weight that is not finite and
    positive, raises a ``GraphFormatError`` naming its line.
    """
    text = _read_text(source)
    pairs, weights = _read_table(source, text, ("node id", "node id"), ("edge weight",),
                                 required=2)
    w = weights[:, 0]
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if len(bad):
        raise GraphFormatError(f"line {_line_of_row(text, bad[0])}: edge weight must be "
                               f"finite and positive, got {float(w[bad[0]])!r}")
    # a copy, so the parsed rows are freed once the ids are numbered
    w = w.copy() if weighted else np.ones(len(w))
    del text, weights  # freed before the id numbering, which sets the load's peak memory
    if not len(pairs):
        raise GraphFormatError("empty input: no edges or nodes found")
    ext_ids, src, dst = _number_ids(pairs)
    del pairs
    loops = src == dst
    if loops.any():
        logger.warning("dropped %d self-loop edge(s) while loading", int(loops.sum()))
        keep = ~loops
        src, dst, w = src[keep], dst[keep], w[keep]
    return from_edges(len(ext_ids), src, dst, w), IdMap(ext_ids)


def write_edge_list(g: WeightedGraph, dest: str | Path | IO, id_map: IdMap | None = None) -> None:
    """Write canonical undirected edges as ``src<TAB>dst<TAB>weight`` lines."""
    u, v, w = g.edge_array()
    ext = id_map.external_ids if id_map is not None else np.arange(g.node_count, dtype=np.int64)
    _write_table(dest, (ext[u], ext[v]), w)


def write_node_set(nodes, dest: str | Path | IO, id_map: IdMap | None = None) -> None:
    """Write a node set as one external id per line."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    ids = id_map.external_ids[nodes] if id_map is not None else nodes
    _write_table(dest, (ids,))


def read_node_set(source: str | Path | IO) -> np.ndarray:
    """Read a one-id-per-line node set; returns sorted unique external ids."""
    ids, _ = _read_table(source, _read_text(source), ("node id",))
    return np.unique(ids)


def induced_subgraph(g: WeightedGraph, nodes) -> tuple[WeightedGraph, IdMap]:
    """Subgraph on a node subset, keeping exactly the edges internal to it.

    Returned subgraph indices are the subset in ascending parent order; the
    IdMap translates subgraph indices back to parent indices. Node values are
    copied from the parent.
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= g.node_count):
        raise ValueError("node index out of range")
    mark = np.full(g.node_count, -1, dtype=np.int64)
    mark[nodes] = np.arange(len(nodes), dtype=np.int64)
    keep, counts = _arc_mask(g, lambda src, dst, w: (src < dst) & (mark[src] >= 0)
                             & (mark[dst] >= 0))
    # rows outside the subset keep no arc, so their (negative) marks repeat 0 times
    sub = _csr_from_canonical(len(nodes), np.repeat(mark, counts),
                              mark[g.neighbor_targets[keep]], g.edge_weights[keep],
                              node_values=g.node_values[nodes])
    return sub, IdMap(nodes)
