"""Output checks made with numpy alone, apart from lppart.

Each check raises ``CheckError`` when an output is wrong and returns
nothing (or the figure it measured) when it is right.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

ALPHA = 0.85
PAGERANK_RESIDUAL_TOL = 1e-8


class CheckError(Exception):
    """An output that contradicts the independent recomputation."""


def _require(ok, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


def read_table(path: Path, dtype=np.float64) -> np.ndarray:
    """A tab-separated numeric file as a 2-d array (``#`` lines skipped)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file is a valid empty table
        return np.loadtxt(path, delimiter="\t", comments="#", ndmin=2, dtype=dtype)


class Edges:
    """An undirected edge list as external-id arrays plus its node id set."""

    def __init__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        self.u, self.v, self.w = u, v, w
        self.ids = np.unique(np.concatenate([u, v]))

    @classmethod
    def read(cls, path: Path) -> "Edges":
        t = read_table(path)
        return cls(t[:, 0].astype(np.int64), t[:, 1].astype(np.int64), t[:, 2])


def lookup(ids: np.ndarray, values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``values[i]`` for each key, where ``ids[i] == key``; every key must occur."""
    order = np.argsort(ids)
    return values[order][np.searchsorted(ids[order], keys)]


def read_partition(path: Path) -> tuple[np.ndarray, np.ndarray]:
    t = read_table(path, dtype=np.int64)
    return t[:, 0], t[:, 1]


def check_partition(edges: Edges, ids: np.ndarray, parts: np.ndarray, k: int) -> None:
    """Every input node exactly once, part ids in [0, k), all k parts non-empty."""
    _require(len(ids) == len(edges.ids), f"{len(ids)} output rows for {len(edges.ids)} nodes")
    _require(np.array_equal(np.sort(ids), edges.ids), "output ids differ from input node ids")
    _require(parts.min() >= 0 and parts.max() < k, f"part id outside [0, {k})")
    _require(np.all(np.bincount(parts, minlength=k) > 0), "some part is empty")


def edge_cut(edges: Edges, ids: np.ndarray, parts: np.ndarray) -> float:
    """Fraction of undirected input edges whose endpoints lie in different parts."""
    pu = lookup(ids, parts, edges.u)
    pv = lookup(ids, parts, edges.v)
    return float(np.count_nonzero(pu != pv)) / len(edges.u)


def check_cut(cut: float, k: int) -> None:
    """A partitioner must beat a uniformly random assignment's expected cut."""
    _require(cut < 1.0 - 1.0 / k, f"edge cut {cut:.4f} not below random {1 - 1 / k:.4f}")


def max_part_ratio(parts: np.ndarray, k: int, epsilon: float) -> float:
    """Largest part over the documented per-part cap (1 + eps) * ceil(n / k)."""
    return float(np.bincount(parts, minlength=k).max()) / ((1.0 + epsilon)
                                                          * math.ceil(len(parts) / k))


def check_metrics_report(edges: Edges, ids: np.ndarray, parts: np.ndarray,
                         report_path: Path) -> None:
    rep = json.loads(Path(report_path).read_text(encoding="utf-8"))
    k = int(parts.max()) + 1
    n, e = len(edges.ids), len(edges.u)
    pu = lookup(ids, parts, edges.u)
    pv = lookup(ids, parts, edges.v)
    cross = pu != pv
    nodes = np.bincount(parts, minlength=k)
    intra = np.bincount(pu[~cross], minlength=k)
    _require(rep["per_part_nodes"] == nodes.tolist(), "per_part_nodes differ")
    _require(rep["per_part_intra_edges"] == intra.tolist(), "per_part_intra_edges differ")
    expect = {"edge_cut_ratio": np.count_nonzero(cross) / e,
              "bal": intra.max() / (e / k),
              "std": math.sqrt(float(np.square(nodes - n / k).sum()) / (k - 1))}
    for key, val in expect.items():
        _require(math.isclose(rep[key], val, rel_tol=1e-9, abs_tol=1e-12),
                 f"{key} is {rep[key]}, recount gives {val}")


def check_coarse(edges: Edges, ids: np.ndarray, parts: np.ndarray, coarse_path: Path,
                 values_path: Path) -> None:
    """k coarse nodes whose values sum to n; edge plus self-loop weight conserved."""
    k = int(parts.max()) + 1
    vals = read_table(values_path)
    _require(vals.shape == (k, 3), f"values table has shape {vals.shape}, expected ({k}, 3)")
    _require(np.array_equal(vals[:, 0], np.arange(k)), "coarse ids are not 0..k-1")
    _require(vals[:, 1].sum() == len(edges.ids), "coarse values do not sum to n")
    _require(np.array_equal(vals[:, 1], np.bincount(parts, minlength=k)),
             "coarse values differ from part sizes")
    ce = read_table(coarse_path)
    _require(ce.size == 0 or (ce[:, :2].min() >= 0 and ce[:, :2].max() < k),
             "coarse edge endpoint outside 0..k-1")
    total = float(ce[:, 2].sum() if ce.size else 0.0) + float(vals[:, 2].sum())
    _require(math.isclose(total, float(edges.w.sum()), rel_tol=1e-9),
             f"coarse weight {total} differs from input weight {edges.w.sum()}")
    pu = lookup(ids, parts, edges.u)
    pv = lookup(ids, parts, edges.v)
    intra = pu == pv
    self_loop = np.bincount(pu[intra], weights=edges.w[intra], minlength=k)
    _require(np.allclose(vals[:, 2], self_loop, rtol=1e-9), "self-loop weights differ")


def check_pagerank(edges: Edges, scores_path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Positive scores summing to 1 that solve the PageRank fixed point.

    Returns the (ids, scores) columns in file order for the refine check.
    """
    t = read_table(scores_path)
    pr_ids, pr = t[:, 0].astype(np.int64), t[:, 1]
    _require(np.array_equal(np.sort(pr_ids), edges.ids), "scores do not cover the nodes")
    _require(np.all(pr > 0), "non-positive score")
    _require(math.isclose(pr.sum(), 1.0, abs_tol=1e-9), f"scores sum to {pr.sum()}")
    n = len(pr)
    rows = np.arange(n)
    iu = lookup(pr_ids, rows, edges.u)
    iv = lookup(pr_ids, rows, edges.v)
    deg = np.bincount(np.concatenate([iu, iv]), minlength=n).astype(np.float64)
    share = (np.bincount(iv, weights=pr[iu] / deg[iu], minlength=n)
             + np.bincount(iu, weights=pr[iv] / deg[iv], minlength=n))
    dangling = pr[deg == 0].sum()
    residual = np.abs((1.0 - ALPHA) / n + ALPHA * (share + dangling / n) - pr).sum()
    _require(residual < PAGERANK_RESIDUAL_TOL, f"fixed-point residual {residual:.3g}")
    return pr_ids, pr


def _canonical(u, v, w) -> np.ndarray:
    a, b = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((b, a))
    return np.stack([a[order], b[order], w[order]], axis=1)


def check_refine(edges: Edges, pr_ids: np.ndarray, pr: np.ndarray, fraction: float,
                 refined_path: Path) -> None:
    """The output is the input induced on all but the ceil(f*n) lowest-ranked nodes.

    PageRank ties resolve by the score file's row order, which is the
    program's internal node order.
    """
    count = math.ceil(fraction * len(pr))
    doomed = pr_ids[np.argsort(pr, kind="stable")[:count]]
    keep = ~(np.isin(edges.u, doomed) | np.isin(edges.v, doomed))
    expect = _canonical(edges.u[keep], edges.v[keep], edges.w[keep])
    out = read_table(refined_path)
    got = _canonical(out[:, 0].astype(np.int64), out[:, 1].astype(np.int64), out[:, 2])
    _require(got.shape == expect.shape, f"{len(got)} refined edges, expected {len(expect)}")
    _require(np.array_equal(got, expect), "refined edges differ from the induced subgraph")


def read_features(path: Path) -> tuple[np.ndarray, np.ndarray]:
    t = read_table(path)
    return t[:, 0].astype(np.int64), t[:, 1:]


def check_aggregate(ids: np.ndarray, parts: np.ndarray, feat_ids: np.ndarray,
                    feats: np.ndarray, agg_path: Path) -> np.ndarray:
    """One row per part holding the mean of its members' features."""
    k = int(parts.max()) + 1
    part = lookup(ids, parts, feat_ids)
    sums = np.stack([np.bincount(part, weights=col, minlength=k) for col in feats.T], axis=1)
    expect = sums / np.bincount(part, minlength=k)[:, None]
    agg_ids, agg = read_features(agg_path)
    _require(np.array_equal(agg_ids, np.arange(k)), "aggregate rows are not parts 0..k-1")
    _require(agg.shape == expect.shape and np.allclose(agg, expect, rtol=1e-9, atol=1e-12),
             "aggregate rows differ from per-part means")
    return agg


def check_concat(ids: np.ndarray, parts: np.ndarray, feat_ids: np.ndarray, feats: np.ndarray,
                 agg: np.ndarray, joined_path: Path) -> None:
    """Each node's row is its own features followed by its part's row."""
    part = lookup(ids, parts, feat_ids)
    expect = np.concatenate([feats, agg[part]], axis=1)
    got_ids, got = read_features(joined_path)
    _require(np.array_equal(got_ids, feat_ids), "joined ids differ from feature ids")
    _require(np.array_equal(got, expect), "joined rows differ from row concatenation")
