"""Test-time context analysis: per-video nearest-neighbor graphs over snippet
features and the uniqueness scores derived from them.

Neighbor search is exact, and exactness is part of the contract: every
neighbor, distance and score is bit for bit what a per-query brute-force scan
gives, where the scan computes `sqrt(sum((x_j - x_i)**2))` for every admitted
snippet j and sorts by (distance, snippet_ref).

The search is the brute-force "flat" index done by matrix products (Johnson,
Douze & Jegou, *Billion-scale similarity search with GPUs*, 2017), as a
shortlist followed by an exact re-rank:

1. For a block of at most `BLOCK_ROWS` query rows, squared distances to every
   column come from the Gram identity |a|^2 + |b|^2 - 2 a.b in one BLAS
   matmul. Masked pairs are set to +inf. Memory stays O(block * (n + k * D)).
2. `np.partition` finds each row's k-th smallest Gram value g_k. Every
   admitted column whose Gram value is within `tol` of g_k is a candidate.
3. Candidates are re-ranked with the scan's own formula and the scan's
   (distance, ref rank) order, and the first k are kept.

Why no true neighbor is missed. With u the unit roundoff and D the feature
dimension, both the Gram value G and the scan's squared distance S of a pair
(a, b) lie within gamma_{D+2} (|a| + |b|)^2 of the exact squared distance,
for any summation order and with or without FMA (gamma_n = n u / (1 - n u)).
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
the scan's.

Why the scores are the same bits. A branch scores k * mean(distances) over
its m <= k kept members. Rows are averaged in groups of equal m, each over
exactly m columns, so NumPy's pairwise summation adds the same numbers in the
same order as `np.mean` over the scan's list. Padding rows to k columns would
change that order.

Features are assumed finite; the feature stores and the flow reject
non-finite values before scoring.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, SchemaError, UnknownSnippetError

logger = logging.getLogger(__name__)

CROSS_PERSON = "cross_person"
SELF_INSPECTION = "self_inspection"

BLOCK_ROWS = 256  # query rows per Gram block


@dataclass(frozen=True)
class Neighborhood:
    query_ref: str
    kind: str
    members: list[tuple[str, float]]  # (snippet_ref, euclidean distance), sorted
    threshold: float  # distance of the k-th kept member; 0 when empty

    @property
    def distances(self) -> list[float]:
        return [d for _, d in self.members]


class BranchScores(NamedTuple):
    """One branch over a whole scene, per row: k * mean distance of the kept
    neighbors (0 when there are none) and how many neighbors were kept."""

    scores: np.ndarray
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
        self._row = {ref: i for i, ref in enumerate(refs)}
        # rank of each row's ref in lexicographic order, for deterministic ties
        order = sorted(range(n), key=lambda i: refs[i])
        self._ref_rank = np.empty(n, dtype=np.int64)
        self._ref_rank[order] = np.arange(n)

    def __len__(self) -> int:
        return len(self.refs)

    def row(self, ref: str) -> int:
        try:
            return self._row[ref]
        except KeyError:
            raise UnknownSnippetError(f"{ref!r} is not in scene {self.video_id!r}")


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
    gram = q_sq[:, None] + c_sq[None, :] - 2.0 * (queries @ columns.T)
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


def _branch(
    index: SceneIndex,
    query_ref: str | None,
    k: int,
    kind: str,
    groups: list[np.ndarray],
    admit: Admit,
) -> Neighborhood | BranchScores:
    """Search each group's rows against the group's own rows (disjoint groups
    covering the scene): one query's Neighborhood, or the whole scene's scores."""
    if query_ref is not None:
        row = index.row(query_ref)
        group = next(g for g in groups if row in g)
        members, dists, counts = _search(index, np.array([row]), group, admit, k)
        m = int(counts[0])
        kept = [(index.refs[j], float(d)) for j, d in zip(members[0, :m], dists[0, :m])]
        return Neighborhood(query_ref, kind, kept, kept[-1][1] if kept else 0.0)

    n = len(index)
    all_dists = np.zeros((n, min(k, n)))
    all_counts = np.zeros(n, dtype=np.int64)
    for group in groups:
        for start in range(0, len(group), BLOCK_ROWS):
            rows = group[start:start + BLOCK_ROWS]
            _, dists, counts = _search(index, rows, group, admit, k)
            all_dists[rows, :dists.shape[1]] = dists
            all_counts[rows] = counts
    scores = np.zeros(n)
    for m in np.unique(all_counts[all_counts > 0]):
        rows = np.flatnonzero(all_counts == m)
        # one mean per member count: see "Why the scores are the same bits"
        scores[rows] = k * all_dists[rows, :m].mean(axis=1)
    return BranchScores(scores, all_counts)


def cross_person_neighbors(
    index: SceneIndex, query_ref: str | None, k: int
) -> Neighborhood | BranchScores:
    """k nearest snippets of *other* persons, ties broken by snippet_ref.

    With `query_ref` None, searches for every row of the scene at once and
    returns its `BranchScores`.
    """
    if k < 1:
        raise SchemaError(f"k must be >= 1, got {k}")
    persons = index.person_ids

    def admit(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return persons[rows, None] != persons[None, cols]

    return _branch(index, query_ref, k, CROSS_PERSON, [np.arange(len(index))], admit)


def self_inspection_neighbors(
    index: SceneIndex, query_ref: str | None, k: int, alpha: float, window_length: int
) -> Neighborhood | BranchScores:
    """k nearest snippets of the *same* person outside the temporal mask
    |t_i - t_j| > alpha * window_length.

    With `query_ref` None, searches for every row of the scene at once and
    returns its `BranchScores`.
    """
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
    return _branch(index, query_ref, k, SELF_INSPECTION, groups, admit)


def uniqueness_score(nc: Neighborhood, ns: Neighborhood, k: int) -> float:
    """Larger of the two neighborhood distance sums.

    With fewer than k members a branch uses k * mean(distance) so that sparse
    scenes stay comparable; with exactly k members that equals the plain sum.
    Two empty branches yield 0 (isolated snippet).
    """
    if nc.query_ref != ns.query_ref:
        raise ContractError(
            f"neighborhoods disagree on the query: {nc.query_ref!r} vs {ns.query_ref!r}"
        )
    branches = []
    for nbh in (nc, ns):
        if nbh.members:
            branches.append(k * float(np.mean(nbh.distances)))
    if not branches:
        logger.debug("snippet %s is isolated (no context neighbors)", nc.query_ref)
        return 0.0
    return max(branches)


def video_uniqueness_scores(
    index: SceneIndex, k: int, alpha: float, window_length: int
) -> tuple[np.ndarray, set[str]]:
    """Uniqueness score of every snippet in index row order, plus the isolated refs.

    Per snippet this is `uniqueness_score` of its two neighborhoods, computed
    for the whole scene with one call per branch.
    """
    cross = cross_person_neighbors(index, None, k)
    inspect = self_inspection_neighbors(index, None, k, alpha, window_length)
    # branch scores are >= 0 and exactly 0 when the branch is empty, so the
    # elementwise max is uniqueness_score's max over the non-empty branches
    values = np.maximum(cross.scores, inspect.scores)
    isolated = set()
    for i in np.flatnonzero((cross.counts == 0) & (inspect.counts == 0)):
        logger.debug("snippet %s is isolated (no context neighbors)", index.refs[i])
        isolated.add(index.refs[i])
    return values, isolated
