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
import mmap
import os
import re
import select
import signal
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

logger = logging.getLogger(__name__)

# pair keys (u * node_count + v) are packed into signed 64-bit integers, arc targets into int32
_MAX_NODES = 2**31
# external node ids are stored as signed 64-bit integers
_ID_MIN, _ID_MAX = -2**63, 2**63 - 1
# rows the text writers convert to Python scalars at a time
_ROW_BLOCK = 1 << 16
# characters from which a table read from a path parses its second half in a forked child
_FORK_CHARS = 1 << 23
# cells (rows times columns) from which a table write shares its rows with a forked child;
# below about this many the fork, and the page copies it causes, cost more than it saves
_FORK_CELLS = 1 << 18
# cells a forked write formats on each side between two looks at the other side's progress
_SHARE_CELLS = 1 << 13
# bytes a forked write's rows are copied from its child at a time
_PIPE_CHUNK = 1 << 16
# id spans up to this many times the ids read (with repeats) are numbered through a span-sized table
_SPAN_PER_ID = 2
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
    Offsets and node values are int64, targets int32 (``_MAX_NODES`` bounds
    every index below 2^31) and weights float64: 12 bytes per arc. numpy
    gathers by an int32 index array more than twice as slowly as by an intp
    one, so a pass that gathers by a slice of targets casts it to intp first.
    """

    node_count: int
    neighbor_offsets: np.ndarray
    neighbor_targets: np.ndarray
    edge_weights: np.ndarray
    node_values: np.ndarray

    @property
    def arc_count(self) -> int:
        return len(self.neighbor_targets)

    @property
    def edge_count(self) -> int:
        return self.arc_count // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.neighbor_offsets)

    def arc_sources(self) -> np.ndarray:
        """Source index of every stored arc (parallel to neighbor_targets)."""
        return np.repeat(np.arange(self.node_count, dtype=np.int32), self.degrees)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical undirected edges as (u, v, w) arrays with u < v, in arc order."""
        keep, counts = _arc_mask(self, lambda src, dst, w: src < dst)
        u = np.repeat(np.arange(self.node_count, dtype=np.int32), counts)
        return u, self.neighbor_targets[keep], self.edge_weights[keep]

    def with_node_values(self, values: np.ndarray) -> "WeightedGraph":
        """A graph sharing this one's arc arrays, with ``values`` as its node values."""
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
        kept = rule(src, g.neighbor_targets[lo:hi].astype(np.intp), g.edge_weights[lo:hi])
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

    A table of at least ``_FORK_CELLS`` cells is written on two cores where
    ``_can_fork()`` holds (``_share_rows``), and the text never depends on it.
    """
    n = len(ids[0])
    if any(len(c) != n for c in ids) or (values is not None and len(values) != n):
        raise ValueError("columns differ in length")
    columns = list(ids)
    if values is not None:
        columns += list(values.T) if values.ndim == 2 else [values]
    line = "\t".join(["%s"] * len(ids) + ["%r"] * (len(columns) - len(ids))) + "\n"

    def blocks(start, stop):
        """The lines of rows ``[start, stop)``, one iterator per block of rows."""
        for a in range(start, stop, _ROW_BLOCK):
            # no local name keeps a block's rows alive while the next block is converted
            yield (line % row for row in
                   zip(*(c[a:min(a + _ROW_BLOCK, stop)].tolist() for c in columns)))

    with (open(dest, "w", encoding="utf-8", newline="") if isinstance(dest, (str, Path))
          else contextlib.nullcontext(dest)) as fh:
        fh.write(header)
        done = 0
        if len(columns) * n >= _FORK_CELLS and _can_fork():
            done = _share_rows(fh, n, max(_SHARE_CELLS // len(columns), 1), blocks)
        for block in blocks(done, n):
            fh.writelines(block)


def _share_rows(fh: IO[str], n: int, step: int, blocks) -> int:
    """Write lines of an ``n``-row table to ``fh`` on two cores; returns the
    first row left unwritten, the rest being the caller's to write.

    ``blocks(a, b)`` gives the lines of rows ``[a, b)``, one iterator per
    block of rows. Rows are written here from row 0 up, ``step`` at a time,
    while a forked child (``_forked``) formats them from row ``n`` down,
    ``step`` at a time, until it meets the rows written here, which it reads
    from a shared counter. The halves so meet wherever the two cores' speeds
    put them: the child's CPU may well run slower than this one. The child
    then sends the first row it formatted and its byte count, then its
    bytes, and once they are ready (``_ready``) they are copied to ``fh``
    past the rows already written here (``_copy_lines``). Rows the child does
    not deliver, all of them where the fork fails, are left to the caller.
    """
    with mmap.mmap(-1, 8) as shared:  # rows written here, shared with the child

        def send_tail(pipe):
            first, data = n, []
            while first > (written := int.from_bytes(shared[:8], "little")):
                a = max(first - step, written)
                # ids and floats format as ASCII, so every chunk of these bytes decodes alone
                data.append("".join(line for block in blocks(a, first) for line in block)
                            .encode("ascii"))
                first = a
            pipe.write(first.to_bytes(8, "little") + sum(map(len, data)).to_bytes(8, "little"))
            pipe.writelines(reversed(data))

        with _forked(send_tail) as child:
            if child is None:
                return 0
            pipe, done = child[0], 0
            while done < n and not _ready(pipe):
                for block in blocks(done, min(done + step, n)):
                    fh.writelines(block)
                done = min(done + step, n)
                shared[:8] = done.to_bytes(8, "little")
            head = pipe.read(16) if done < n else b""
            if len(head) < 16:
                return done
            first, size = int.from_bytes(head[:8], "little"), int.from_bytes(head[8:], "little")
            # the child stops at rows it read as written here; a torn read of the
            # counter could only make it stop short of them
            for block in blocks(done, first):
                fh.writelines(block)
            done = max(done, first)
            return first + _copy_lines(pipe, fh, size, done - first)


def _ready(pipe: IO[bytes]) -> bool:
    """Whether ``pipe`` holds data or has ended, looked up without waiting."""
    return bool(select.select([pipe], [], [], 0)[0])


def _copy_lines(pipe: IO[bytes], fh: IO[str], size: int, skip: int) -> int:
    """Copy to ``fh`` the ASCII lines in the next ``size`` bytes of ``pipe``
    but the first ``skip``; returns how many lines are then accounted for,
    the skipped ones included.

    The bytes move in chunks of at most ``_PIPE_CHUNK``, and only whole
    lines are written: where the pipe ends early, the count tells the caller
    where to resume. With the byte count a complete copy ends without
    waiting for the pipe to close.
    """
    lines, rest = 0, b""
    while size:
        chunk = pipe.read(min(size, _PIPE_CHUNK))
        if not chunk:
            break
        size -= len(chunk)
        chunk = rest + chunk
        cut = chunk.rfind(b"\n") + 1
        count = chunk.count(b"\n", 0, cut)
        if lines + count > skip:
            start = 0 if lines >= skip else int(
                np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10)[skip - lines - 1]) + 1
            fh.write(chunk[start:cut].decode("ascii"))
        lines += count
        rest = chunk[cut:]
    return max(lines, skip)


def _pack_sort(key: np.ndarray) -> int:
    """Sort non-negative int64 keys in place as ``key << b | position``; returns ``b``.

    ``b`` is the fewest bits that hold every position. The composites are
    unique, so numpy's default sort of them (SIMD, unstable) gives exactly
    the stable order of the keys: a sorted composite ``c`` holds its key in
    ``c >> b`` and its input position in the low ``b`` bits. The positions
    are added one block at a time, so nothing but ``key`` is arc-sized.
    Where the composites would not fit in int64, ``key`` is left as it is
    and the result is -1.
    """
    n = len(key)
    bits = max(n - 1, 0).bit_length()
    if n and int(key.max()) >> (63 - bits):
        return -1
    key <<= bits
    for start in range(0, n, _ARC_BLOCK):
        stop = min(start + _ARC_BLOCK, n)
        key[start:stop] |= np.arange(start, stop, dtype=np.int64)
    key.sort()
    return bits


def _stable_order(key: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative int64 keys.

    Keys already in order (as the (node, label) keys of a first vote are)
    give the identity at the cost of one comparison pass. Otherwise a copy
    of the keys is sorted with their positions (``_pack_sort``), which are
    read back as its low bits. Keys too large for that fall back to
    ``np.argsort(kind="stable")``, a timsort on int64.
    """
    n = len(key)
    if n < 2 or not (key[1:] < key[:-1]).any():
        return np.arange(n, dtype=np.int64)
    order = key.copy()
    bits = _pack_sort(order)
    if bits < 0:
        return np.argsort(key, kind="stable")
    order &= (1 << bits) - 1
    return order


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal consecutive keys."""
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return head


def _merge_edges(node_count: int, edges: list[np.ndarray],
                 node_values: np.ndarray | None = None) -> WeightedGraph:
    """Build a graph from index pairs: self-loops are dropped, parallel edges summed.

    ``edges`` is a list ``[src, dst, w]``, emptied here once its pairs are
    keyed, so that a caller holding no other reference to the three arrays
    frees them as soon as they are no longer read. The endpoints may have
    any integer dtype: each pair's key ``min * node_count + max`` is int64,
    built in place as ``min * (node_count - 1) + src + dst``. The keys are
    sorted in place with their positions (``_pack_sort``), and the weights
    gathered into that order one block at a time, so parallel edges form
    runs and each run sums its weights in input order: the merged float
    weights depend only on the order of the input. Pairs already in key
    order, as a filtered edge list is, skip the sort.

    The ``m`` merged keys decode to the canonical pairs ``u < v``. Both arcs
    of each pair get the key ``source << b | target`` in one int64 buffer,
    forward arcs first. The keys are unique, so sorting the buffer with its
    positions gives the CSR order. Then, one block at a time, each target is
    read from its sorted key into the int32 targets, and each arc takes the
    weight of its edge by position, written into the same buffer viewed as
    float64. The merge peaks at about 32 bytes per pair: 8 for the
    merged weights, 16 for the buffer and 8 for the targets. Where the
    composites would not fit in int64, both sorts fall back to a stable
    argsort and a gather, which holds 56 bytes per merged edge.
    """
    if node_count > _MAX_NODES:
        raise ValueError(f"node_count {node_count} exceeds supported maximum {_MAX_NODES}")
    src, dst, w = edges
    edges.clear()
    key = np.minimum(src, dst, dtype=np.int64)
    key *= max(node_count - 1, 0)
    key += src
    key += dst
    keep = src != dst
    del src, dst
    if not keep.all():
        key, w = key[keep], w[keep]
    del keep
    if len(key) > 1 and (key[1:] < key[:-1]).any():
        bits = _pack_sort(key)
        if bits < 0:
            order = np.argsort(key, kind="stable")
            key, w = key[order], w[order]
            del order
        else:
            sorted_w = np.empty_like(w)
            for start in range(0, len(key), _ARC_BLOCK):
                block = key[start:start + _ARC_BLOCK]
                sorted_w[start:start + _ARC_BLOCK] = w[block & ((1 << bits) - 1)]
                block >>= bits
            w = sorted_w
            del sorted_w, block
    if len(key):
        starts = np.flatnonzero(_run_heads(key))
        if len(starts) < len(key):
            w = np.add.reduceat(w, starts)
            key = key[starts]
        del starts
    m = len(key)
    bits = max(node_count - 1, 0).bit_length()
    arcs = np.empty(2 * m, dtype=np.int64)
    for start in range(0, m, _ARC_BLOCK):
        stop = min(start + _ARC_BLOCK, m)
        u, v = np.divmod(key[start:stop], node_count)
        np.left_shift(u, bits, out=arcs[start:stop])
        arcs[start:stop] |= v
        np.left_shift(v, bits, out=arcs[m + start:m + stop])
        arcs[m + start:m + stop] |= u
    del key
    shift = _pack_sort(arcs)
    order = None
    if shift < 0:
        order = np.argsort(arcs)
        arcs = arcs[order]
        shift = 0
    offsets = np.empty(node_count + 1, dtype=np.int64)
    offsets[:-1] = np.searchsorted(arcs, np.arange(node_count, dtype=np.int64) << (bits + shift))
    offsets[-1] = 2 * m
    dst = np.empty(2 * m, dtype=np.int32)
    weights = arcs.view(np.float64)
    for start in range(0, 2 * m, _ARC_BLOCK):
        stop = min(start + _ARC_BLOCK, 2 * m)
        block = arcs[start:stop]
        pos = order[start:stop] if order is not None else block & ((1 << shift) - 1)
        dst[start:stop] = (block >> shift) & ((1 << bits) - 1)
        # position i + m is edge i's backward arc; the block is read, so its weights overwrite it
        weights[start:stop] = np.take(w, pos, mode="wrap")
    values = (np.ones(node_count, dtype=np.int64) if node_values is None
              else np.asarray(node_values, dtype=np.int64))
    return WeightedGraph(node_count, offsets, dst, weights, values)


def _keep_arcs(g: WeightedGraph, rule, index: np.ndarray | None = None) -> WeightedGraph:
    """The graph of the arcs of ``g`` for which ``rule(src, dst, w)`` holds (``_arc_mask``).

    ``rule`` holds for both arcs of an edge or for neither, so the kept
    arcs, in their CSR order, already form a graph and nothing is sorted.
    Without ``index`` the graph keeps every node. Otherwise the int32
    ``index`` maps each node of ``g`` to its index in the new graph,
    ascending, or to -1 for a node left out, and ``rule`` keeps no arc of a
    node left out: the kept rows stay sorted once their targets are renumbered.
    """
    keep, counts = _arc_mask(g, rule)
    dst, values = g.neighbor_targets[keep], g.node_values
    if index is not None:
        rows = index >= 0
        counts, values, dst = counts[rows], values[rows], index[dst]
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return WeightedGraph(len(counts), offsets, dst, g.edge_weights[keep], values)


def from_edges(node_count: int, src, dst, weight=None, node_values=None) -> WeightedGraph:
    """Build a graph from raw edge arrays.

    Edges may appear in any direction and any number of times; duplicates are
    merged by summing weights and self-loops are dropped.
    """
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
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
    return _merge_edges(node_count, [src, dst, weight], node_values)


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


def _loadtxt(lines, dtype: list, **kwargs) -> np.ndarray | None:
    """``np.loadtxt`` of tab-separated ``lines`` into ``dtype``, or None on any error or warning."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. float-to-int parsing on older numpy
            return np.loadtxt(lines, dtype=dtype, delimiter="\t", comments="#",
                              encoding="utf-8", ndmin=1, **kwargs)
    except (ValueError, Warning):
        return None


def _can_fork() -> bool:
    """Whether a table read or write may fork (``_forked``): more than one
    thread allowed, and on Python 3.12 and later, which warn on ``fork`` in a
    threaded process, no other thread running."""
    if not hasattr(os, "fork") or _threads < 2:
        return False
    if sys.version_info < (3, 12):
        return True
    try:  # the threads the warning counts, numpy's own included
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return threading.active_count() == 1


def _other_cpus() -> set[int]:
    """The CPUs this process may use other than the one the calling thread
    last ran on; empty where that CPU is unknown or no other one is allowed."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            # field 39, "processor", is the 37th after the parenthesized command name
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError, ValueError, IndexError):  # e.g. no /proc
        return set()


@contextlib.contextmanager
def _forked(work):
    """Run ``work(pipe)`` in a forked child, ``pipe`` the write end of a new
    pipe as a binary file, and yield ``(pipe, exited)`` here, ``pipe`` the
    read end; yield None where the fork fails (e.g. no process or memory left
    for the child).

    The child runs on the CPUs this process may use other than the one the
    calling thread last ran on (``_other_cpus``): left to the scheduler, a
    short-lived child often shares its parent's CPU while another one idles,
    and then the two halves take as long as the serial work or longer.
    The child ends with ``os._exit``, status 0 once ``work`` returns and 1 if
    it raises, so it never runs the caller's code or flushes its buffers.
    ``exited()`` waits for the child and tells whether its status was 0. On
    leaving the block the pipe is closed, and a child not yet waited for is
    killed and reaped: no child outlives the block.
    """
    cpus = _other_cpus()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        yield None
        return
    if pid == 0:
        status = 1
        try:
            os.close(r)
            if cpus:
                os.sched_setaffinity(0, cpus)
            with os.fdopen(w, "wb") as pipe:
                work(pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    reaped = False

    def exited() -> bool:
        nonlocal reaped
        reaped = True
        return os.waitpid(pid, 0)[1] == 0

    try:
        with os.fdopen(r, "rb") as pipe:
            yield pipe, exited
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _loadtxt_forked(path: str | Path, text: str, dtype: list) -> np.ndarray | None:
    """``_loadtxt(path, dtype)``, the file's contents ``text``, on two cores, or
    None where that cannot be sure to give the same rows or ``text`` is
    shorter than ``_FORK_CHARS``.

    The head, the lines up to the first newline past the middle of ``text``,
    is parsed here with ``max_rows`` set to its line count, and the tail in a
    forked child (``_forked``) with ``skiprows`` set to it. ``skiprows``
    counts every line but ``max_rows`` only rows of data, so a head holding a
    blank line is left to the serial parse, and so is any ``#``. The child
    sends its row count and rows through the pipe into an array that takes
    the head's rows too; a failed fork, a half that fails to parse, a short
    read or a non-zero exit status gives None.
    """
    cut = text.find("\n", len(text) // 2) + 1
    if len(text) < _FORK_CHARS or not cut or "#" in text or not _can_fork():
        return None
    data = np.frombuffer(text[:cut].encode("utf-8"), np.uint8)
    ends = np.flatnonzero(data == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # a line is blank when empty or a lone "\r" (every "\r" here ends a CRLF)
    if ((ends == starts) | ((ends == starts + 1) & (data[starts] == 13))).any():
        return None
    lines = len(ends)
    del data, ends, starts

    def send_tail(pipe):
        rows = _loadtxt(path, dtype, skiprows=lines)
        if rows is not None:
            pipe.write(np.int64(len(rows)).tobytes())
            pipe.write(rows)

    with _forked(send_tail) as child:
        if child is None:
            return None
        pipe, exited = child
        head = _loadtxt(path, dtype, max_rows=lines)
        if head is None or len(head) != lines:
            return None
        count = pipe.read(8)
        if len(count) != 8:
            return None
        rows = np.empty(lines + int(np.frombuffer(count, np.int64)[0]), dtype)
        rows[:lines] = head
        del head
        if pipe.readinto(rows[lines:]) != rows[lines:].nbytes:
            return None
        return rows if exited() else None


def _parse_columns(source: str | Path | IO, text: str, ints: int, total: int, required: int):
    """One ``np.loadtxt`` pass over input the line parser would read the same way.

    Returns None when the input needs the line parser: a ``#`` that does not
    start a line, a ``\\r`` outside a CRLF pair, a first data line with a
    field count out of range, or anything ``np.loadtxt`` rejects or warns
    about (ids outside int64 included). A path is parsed from the file in
    ``np.loadtxt``'s own chunks, other sources from ``text``. A path of at
    least ``_FORK_CHARS`` characters parses its second half in a forked
    child (``_loadtxt_forked``) when more than one thread is allowed, and
    falls back to the serial parse wherever that cannot be sure to give the
    same rows; results never depend on it.
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
        cols = _loadtxt_forked(source, text, dtype)
        if cols is None:
            cols = _loadtxt(source, dtype)
    else:
        cols = _loadtxt(io.BytesIO(text.encode("utf-8")), dtype)
    if cols is None:
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

    Returns the ids in that order and the indices of both columns. Each id
    gets a dense key: its offset from the smallest id where the ids span at
    most ``_SPAN_PER_ID`` times ``pairs.size``, else its ``np.unique`` index.
    One table over the keys holds each key's first position, then its rank.
    """
    lo, hi = int(pairs.min()), int(pairs.max())  # Python ints: the span may exceed int64
    if hi - lo < _SPAN_PER_ID * pairs.size:
        # offsets from lo, exact although the int64 arithmetic wraps where lo is near -2**63
        key, keys = (pairs - lo).reshape(-1), hi - lo + 1
    else:
        unique, key = np.unique(pairs.reshape(-1), return_inverse=True)
        keys = len(unique)
    first = np.full(keys, len(key))
    np.minimum.at(first, key, np.arange(len(key)))
    firsts = np.sort(first[first < len(key)])  # positions of first appearances
    rank = first
    rank[key[firsts]] = np.arange(len(firsts))
    return pairs.flat[firsts], rank[key[0::2]], rank[key[1::2]]


def load_edge_list(source: str | Path | IO) -> tuple[WeightedGraph, IdMap]:
    """Parse an edge-list TSV into a graph plus an id map.

    Lines are ``src<TAB>dst[<TAB>weight]``; ``#``-prefixed lines are ignored.
    Node ids are parsed as exact signed 64-bit integers, weights as float64.
    Parallel edges are merged by summing their weights, self-loops are
    dropped with a counted warning, and the graph is symmetrized. A missing
    weight is 1.0. Internal indices are assigned in first-appearance order.

    A well-formed file is parsed by ``np.loadtxt``, a large one from a path
    on two cores where more than one thread is allowed (``_parse_columns``),
    anything else by the line parser; a malformed line, or a weight that is
    not finite and positive, raises a ``GraphFormatError`` naming its line.
    The rows checked here go to ``_merge_edges`` without ``from_edges``'
    checks, which they already pass.
    """
    text = _read_text(source)
    pairs, weights = _read_table(source, text, ("node id", "node id"), ("edge weight",),
                                 required=2)
    w = weights[:, 0]
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if len(bad):
        raise GraphFormatError(f"line {_line_of_row(text, bad[0])}: edge weight must be "
                               f"finite and positive, got {float(w[bad[0]])!r}")
    # contiguous copies of the two strided columns of the parsed rows, which
    # are then freed: the id numbering reads contiguous ids twice as fast
    w = w.copy()
    del text, weights
    pairs = np.ascontiguousarray(pairs)
    if not len(pairs):
        raise GraphFormatError("empty input: no edges or nodes found")
    ext_ids, src, dst = _number_ids(pairs)
    del pairs
    loops = int(np.count_nonzero(src == dst))
    if loops:
        logger.warning("dropped %d self-loop edge(s) while loading", loops)
    edges = [src, dst, w]
    del src, dst, w  # _merge_edges frees them once keyed
    return _merge_edges(len(ext_ids), edges), IdMap(ext_ids)


def write_edge_list(g: WeightedGraph, dest: str | Path | IO, id_map: IdMap | None = None) -> None:
    """Write canonical undirected edges as ``src<TAB>dst<TAB>weight`` lines."""
    u, v, w = g.edge_array()
    ext = id_map.external_ids if id_map is not None else np.arange(g.node_count, dtype=np.int64)
    _write_table(dest, (ext[u], ext[v]), w)


def induced_subgraph(g: WeightedGraph, nodes) -> tuple[WeightedGraph, IdMap]:
    """Subgraph on a node subset, keeping exactly the edges internal to it.

    Returned subgraph indices are the subset in ascending parent order; the
    IdMap translates subgraph indices back to parent indices. Node values are
    copied from the parent. Both arcs of every internal edge are kept in the
    parent's order and renumbered (``_keep_arcs``), so no sort runs.
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= g.node_count):
        raise ValueError("node index out of range")
    mark = np.full(g.node_count, -1, dtype=np.int32)
    mark[nodes] = np.arange(len(nodes), dtype=np.int32)
    sub = _keep_arcs(g, lambda src, dst, w: (mark[src] >= 0) & (mark[dst] >= 0), mark)
    return sub, IdMap(nodes)
