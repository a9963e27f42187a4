"""Synthetic graph generators: planted blocks, bipartite, rings, random weighted."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from lppart.graph import WeightedGraph, from_edges

_SIGNATURES = {
    "planted_partition": (int, int, float, float),
    "complete_bipartite": (int, int),
    "ring": (int,),
    "random_weighted": (int, int, float, float),
}

_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator model plus its arguments and seed.

    Models: ``planted_partition(blocks, block_size, p_in, p_out)``,
    ``complete_bipartite(n_left, n_right)``, ``ring(n)``,
    ``random_weighted(n, m, weight_low, weight_high)``. In a planted
    partition the block of node ``i`` is ``i // block_size``.
    """

    model: str
    args: tuple
    seed: int = 42

    def __post_init__(self):
        if self.model not in _SIGNATURES:
            raise ValueError(f"unknown generator model {self.model!r}")
        sig = _SIGNATURES[self.model]
        if len(self.args) != len(sig):
            raise ValueError(f"{self.model} takes {len(sig)} argument(s), got {len(self.args)}")
        for kind, arg in zip(sig, self.args):
            if kind is int and float(arg) != int(arg):
                raise ValueError(f"{self.model} expects integer sizes, got {arg!r}")
        object.__setattr__(self, "args", tuple(t(a) for t, a in zip(sig, self.args)))

    @classmethod
    def parse(cls, text: str, seed: int = 42) -> "GeneratorSpec":
        """Parse a spec string such as ``planted_partition(2,50,1.0,0.0)``."""
        m = _SPEC_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse generator spec {text!r}")
        name = m.group(1)
        raw = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
        return cls(name, tuple(float(a) for a in raw), seed)


def generate(spec: GeneratorSpec) -> WeightedGraph:
    """Build the graph described by ``spec``; deterministic for a fixed seed."""
    if spec.model == "planted_partition":
        return _planted_partition(*spec.args, seed=spec.seed)
    if spec.model == "complete_bipartite":
        return _complete_bipartite(*spec.args)
    if spec.model == "ring":
        return _ring(*spec.args)
    return _random_weighted(*spec.args, seed=spec.seed)


def _planted_partition(blocks: int, block_size: int, p_in: float, p_out: float,
                       seed: int) -> WeightedGraph:
    if blocks < 1 or block_size < 1:
        raise ValueError("blocks and block_size must be >= 1")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    n = blocks * block_size
    rng = np.random.default_rng(seed)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []

    iu, iv = np.triu_indices(block_size, 1)
    for b in range(blocks):
        pick = rng.random(len(iu)) < p_in
        us.append(iu[pick] + b * block_size)
        vs.append(iv[pick] + b * block_size)

    cross_u = np.repeat(np.arange(block_size, dtype=np.int64), block_size)
    cross_v = np.tile(np.arange(block_size, dtype=np.int64), block_size)
    for b1 in range(blocks):
        for b2 in range(b1 + 1, blocks):
            pick = rng.random(block_size * block_size) < p_out
            us.append(cross_u[pick] + b1 * block_size)
            vs.append(cross_v[pick] + b2 * block_size)

    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    return from_edges(n, u, v)


def _complete_bipartite(n_left: int, n_right: int) -> WeightedGraph:
    if n_left < 1 or n_right < 1:
        raise ValueError("bipartite side sizes must be >= 1")
    u = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
    v = np.tile(np.arange(n_right, dtype=np.int64), n_left) + n_left
    return from_edges(n_left + n_right, u, v)


def _ring(n: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("ring size must be >= 1")
    if n == 1:
        return from_edges(1, [], [])
    if n == 2:
        return from_edges(2, [0], [1])
    u = np.arange(n, dtype=np.int64)
    v = (u + 1) % n
    return from_edges(n, u, v)


def _random_weighted(n: int, m: int, weight_low: float, weight_high: float,
                     seed: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("node count must be >= 1")
    if m < 0:
        raise ValueError("edge count must be >= 0")
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"cannot place {m} distinct edges on {n} nodes (max {max_edges})")
    if not (0.0 < weight_low <= weight_high) or not np.isfinite(weight_high):
        raise ValueError("need 0 < weight_low <= weight_high")
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        batch = 2 * (m - len(keys)) + 16
        a = rng.integers(0, n, size=batch, dtype=np.int64)
        b = rng.integers(0, n, size=batch, dtype=np.int64)
        ok = a != b
        k = np.minimum(a[ok], b[ok]) * np.int64(n) + np.maximum(a[ok], b[ok])
        keys = np.concatenate([keys, k])
        # keep first occurrence in draw order
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:m]
    w = rng.uniform(weight_low, weight_high, size=m)
    return from_edges(n, keys // n, keys % n, w)
