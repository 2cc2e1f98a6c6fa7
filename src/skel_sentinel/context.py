"""Test-time context analysis: per-video nearest-neighbor graphs over snippet
features and the uniqueness scores derived from them.

Each branch searches a whole scene at once and returns its k-NN graph as one
array triple, `Neighbors(members, distances, counts)`.

Neighbor search is exact, and exactness is part of the contract: every
neighbor, distance and score is bit for bit what a brute-force scan gives for
each snippet i, where the scan computes `sqrt(sum((x_j - x_i)**2))` for every
admitted snippet j and sorts by (distance, snippet_ref).

The search is the brute-force "flat" index done by matrix products (Johnson,
Douze & Jegou, *Billion-scale similarity search with GPUs*, 2017), as a
shortlist followed by an exact re-rank:

1. For a block of at most `BLOCK_ROWS` = 128 query rows, squared distances
   to every column come from the Gram identity |a|^2 + |b|^2 - 2 a.b,
   assembled in place in the (block, n) buffer of one BLAS matmul: the
   products are scaled by -2, then |a|^2 and |b|^2 are added. Masked pairs
   are set to +inf. Memory stays O(128 * n + candidates * D): the buffer, a
   partition copy of it and a few boolean (128, n) masks.
2. `np.partition` finds each row's k-th smallest Gram value g_k. Every
   admitted column whose Gram value is within `tol` of g_k is a candidate.
3. Candidates are re-ranked with the scan's own formula and the scan's
   (distance, ref rank) order, and the first k are kept.

Why no true neighbor is missed. With u the unit roundoff and D the feature
dimension, both the Gram value G and the scan's squared distance S of a pair
(a, b) lie within gamma_{D+2} (|a| + |b|)^2 of the exact squared distance,
for any summation order and with or without FMA (gamma_n = n u / (1 - n u)):
so for any order of the three Gram terms, and for the sums a GEMM, a gemv
(a one-row block) or any block size gives the dot products.
So |G - S| <= E = 2 gamma_{D+2} R^2, with R = |a| + max |b| over the block.
The k columns with the smallest G all have S <= g_k + E, so the scan's k-th
distance comes from some S <= g_k + E. A true member j has a rounded distance
no larger than that one; since sqrt is monotone and correctly rounded,
S_j <= (g_k + E)(1 + 4u), and then G_j <= g_k + 2E + 4u (g_k + E), where
4u (g_k + E) is about 4u R^2 since g_k <= R^2 (1 + gamma_{D+2}). `tol` is
4 (D + 2) eps R^2 = 8 (D + 2) u R^2, about 4E: twice the 2E term, and its
second half, about 4 (D + 2) u R^2 >= 8u R^2, covers the 4u R^2 term. So
every true member is a candidate. The candidates' order and distances come
from the scan's formula, so the kept set, its order and its distances are
the scan's. So members, distances and scores do not depend on the block
size, or on how the Gram value is summed (checked by a test).

Features are assumed finite; the feature stores and the flow reject
non-finite values before scoring.
"""

from __future__ import annotations

import logging
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, SchemaError

logger = logging.getLogger(__name__)

BLOCK_ROWS = 128  # query rows per Gram block


class Neighbors(NamedTuple):
    """One branch's k-NN graph over a whole scene, one row per snippet.

    Row i keeps `counts[i]` neighbors: scene rows `members[i, :counts[i]]` at
    distances `distances[i, :counts[i]]`, in the scan's (distance, ref)
    order. The rest of the row is zero. Both matrices are min(k, n) wide.
    """

    members: np.ndarray
    distances: np.ndarray
    counts: np.ndarray


class SceneIndex:
    """Immutable per-video index of (snippet_ref, person_id, timestamp, feature)."""

    def __init__(
        self,
        video_id: str,
        refs: list[str],
        person_ids: np.ndarray,
        times: np.ndarray,
        features: np.ndarray,
    ):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise DimensionError(f"features must be 2-D, got shape {features.shape}")
        n = features.shape[0]
        if not (len(refs) == len(person_ids) == len(times) == n):
            raise SchemaError("refs, person_ids, times, and features must align")
        pairs = set(zip(person_ids.tolist(), times.tolist()))
        if len(pairs) != n:
            raise SchemaError(f"{video_id}: (person_id, timestamp) pairs must be unique")
        self.video_id = video_id
        self.refs = list(refs)
        self.person_ids = np.asarray(person_ids, dtype=np.int64)
        self.times = np.asarray(times, dtype=np.int64)
        self.features = features
        # rank of each row's ref in lexicographic order, for deterministic ties
        order = sorted(range(n), key=lambda i: refs[i])
        self._ref_rank = np.empty(n, dtype=np.int64)
        self._ref_rank[order] = np.arange(n)

    def __len__(self) -> int:
        return len(self.refs)


# admit(rows, cols) -> boolean (len(rows), len(cols)) matrix of allowed pairs
Admit = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _search(
    index: SceneIndex, rows: np.ndarray, cols: np.ndarray, admit: Admit, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact k nearest admitted `cols` of each of `rows` (see the module docstring).

    Returns `(members, dists, counts)`: row i keeps `counts[i]` neighbors,
    scene rows `members[i, :counts[i]]` at distances `dists[i, :counts[i]]`.
    """
    features = index.features
    queries, columns = features[rows], features[cols]
    q_sq = np.einsum("ij,ij->i", queries, queries)
    c_sq = np.einsum("ij,ij->i", columns, columns)
    allowed = admit(rows, cols)
    # assembled in the one (B, n) buffer the GEMM writes
    gram = np.matmul(queries, columns.T)
    gram *= -2.0
    gram += q_sq[:, None]
    gram += c_sq
    gram[~allowed] = np.inf
    counts = np.minimum(allowed.sum(axis=1), k)
    if k < len(cols):
        kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
    else:
        kth = np.full(len(rows), np.inf)
    reach = np.sqrt(q_sq) + np.sqrt(c_sq.max(initial=0.0))
    tol = 4 * (features.shape[1] + 2) * np.finfo(np.float64).eps * reach * reach
    qi, cj = np.nonzero(allowed & (gram <= (kth + tol)[:, None]))

    diff = features[cols[cj]] - features[rows[qi]]
    dist = np.sqrt((diff * diff).sum(axis=1))
    order = np.lexsort((index._ref_rank[cols[cj]], dist, qi))
    qi, cj, dist = qi[order], cj[order], dist[order]
    slot = np.arange(len(qi)) - np.searchsorted(qi, qi)
    keep = slot < counts[qi]
    qi, slot = qi[keep], slot[keep]
    width = min(k, len(cols))
    members = np.zeros((len(rows), width), dtype=np.int64)
    dists = np.zeros((len(rows), width))
    members[qi, slot] = cols[cj[keep]]
    dists[qi, slot] = dist[keep]
    return members, dists, counts


def _branch(index: SceneIndex, k: int, groups: list[np.ndarray], admit: Admit) -> Neighbors:
    """Search each group's rows against the group's own rows (disjoint groups
    covering the scene), BLOCK_ROWS query rows at a time."""
    n = len(index)
    members = np.zeros((n, min(k, n)), dtype=np.int64)
    distances = np.zeros((n, min(k, n)))
    counts = np.zeros(n, dtype=np.int64)
    for group in groups:
        for start in range(0, len(group), BLOCK_ROWS):
            rows = group[start:start + BLOCK_ROWS]
            block_members, block_dists, counts[rows] = _search(index, rows, group, admit, k)
            members[rows, :block_members.shape[1]] = block_members
            distances[rows, :block_dists.shape[1]] = block_dists
    return Neighbors(members, distances, counts)


def cross_person_neighbors(index: SceneIndex, k: int) -> Neighbors:
    """k nearest snippets of *other* persons, ties broken by snippet_ref."""
    if k < 1:
        raise SchemaError(f"k must be >= 1, got {k}")
    persons = index.person_ids

    def admit(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return persons[rows, None] != persons[None, cols]

    return _branch(index, k, [np.arange(len(index))], admit)


def self_inspection_neighbors(
    index: SceneIndex, k: int, alpha: float, window_length: int
) -> Neighbors:
    """k nearest snippets of the *same* person outside the temporal mask
    |t_i - t_j| > alpha * window_length."""
    if k < 1:
        raise SchemaError(f"k must be >= 1, got {k}")
    if alpha < 0:
        raise SchemaError(f"alpha must be >= 0, got {alpha}")
    times = index.times

    def admit(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        gap = np.abs(times[None, cols] - times[rows, None])
        return gap > alpha * window_length

    persons = index.person_ids
    groups = [np.flatnonzero(persons == p) for p in np.unique(persons)]
    return _branch(index, k, groups, admit)


def _branch_scores(graph: Neighbors, k: int) -> np.ndarray:
    """k * mean distance of each row's kept neighbors; 0 for a row with none.

    With fewer than k members this keeps sparse scenes comparable; with
    exactly k it equals the plain sum of the distances.

    Why the scores are the same bits. Rows are averaged in groups of equal
    member count m, each over exactly m columns, so NumPy's pairwise summation
    adds the same numbers in the same order as `np.mean` over the scan's list.
    Averaging the zero-padded rows would change that order.
    """
    scores = np.zeros(len(graph.counts))
    for m in np.unique(graph.counts[graph.counts > 0]):
        rows = np.flatnonzero(graph.counts == m)
        scores[rows] = k * graph.distances[rows, :m].mean(axis=1)
    return scores


def video_uniqueness_scores(
    index: SceneIndex, k: int, alpha: float, window_length: int
) -> tuple[np.ndarray, set[str]]:
    """Uniqueness score of every snippet in index row order, plus the isolated refs.

    A snippet's score is the larger of its two branch scores; a snippet with
    no neighbor in either branch is isolated and scores 0.
    """
    cross = cross_person_neighbors(index, k)
    inspect = self_inspection_neighbors(index, k, alpha, window_length)
    # branch scores are >= 0 and exactly 0 when the branch is empty, so the
    # elementwise max is the max over the non-empty branches
    values = np.maximum(_branch_scores(cross, k), _branch_scores(inspect, k))
    isolated = set()
    for i in np.flatnonzero((cross.counts == 0) & (inspect.counts == 0)):
        logger.debug("snippet %s is isolated (no context neighbors)", index.refs[i])
        isolated.add(index.refs[i])
    return values, isolated
