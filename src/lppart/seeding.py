"""Deterministic seed derivation and per-edge uniform hashing.

Everything random in this package flows either through numpy Generators
seeded by ``derive_seed`` or through the stateless per-edge hash below, so
results are reproducible bit-for-bit regardless of traversal order or
worker count.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _C1) & _MASK64
    x = ((x ^ (x >> 27)) * _C2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(*parts) -> int:
    """Fold integers/strings into one 63-bit seed, order-sensitively."""
    h = _GOLDEN
    for p in parts:
        if isinstance(p, str):
            for ch in p.encode("utf-8"):
                h = _mix64(h ^ ch)
        else:
            h = _mix64(h ^ (int(p) & _MASK64))
    return h >> 1


def pair_hash64(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stateless 64-bit hash of index pairs; used for unbiased tie-breaking."""
    c1 = np.uint64(_C1)
    c2 = np.uint64(_C2)
    with np.errstate(over="ignore"):
        x = u.astype(np.uint64) * np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * c1
        x = x ^ (v.astype(np.uint64) * c2)
        x = (x ^ (x >> np.uint64(27))) * c1
        return x ^ (x >> np.uint64(31))


def edge_uniform(seed: int, iteration: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One uniform [0, 1) variate per unordered endpoint pair.

    The value depends only on (seed, iteration) and the pair ``(min(u, v),
    max(u, v))``, so ``(u, v)`` and ``(v, u)`` draw the same value; it never
    depends on array order.
    """
    u, v = np.minimum(u, v), np.maximum(u, v)
    s = np.uint64(_mix64((int(seed) & _MASK64) ^ _mix64(int(iteration) + 0x51ED)))
    c1 = np.uint64(_C1)
    c2 = np.uint64(_C2)
    with np.errstate(over="ignore"):
        x = u.astype(np.uint64) ^ s
        x = (x ^ (x >> np.uint64(30))) * c1
        x = x ^ (v.astype(np.uint64) * np.uint64(_GOLDEN))
        x = (x ^ (x >> np.uint64(27))) * c2
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
