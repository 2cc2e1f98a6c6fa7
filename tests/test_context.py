import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skel_sentinel import context
from skel_sentinel.context import (
    BLOCK_ROWS,
    Neighbors,
    SceneIndex,
    cross_person_neighbors,
    self_inspection_neighbors,
    video_uniqueness_scores,
)
from skel_sentinel.errors import SchemaError


def make_index(video="v0", n=40, dim=8, persons=4, seed=0):
    rng = np.random.default_rng(seed)
    person_ids = rng.integers(0, persons, n)
    times = np.arange(n) * 3  # distinct timestamps keep (p, t) unique
    refs = [f"{video}:{p}:{t}" for p, t in zip(person_ids, times)]
    feats = rng.standard_normal((n, dim))
    return SceneIndex(video, refs, person_ids, times, feats)


def oracle_neighbors(index, row, k, predicate):
    """Independent exhaustive scan: filter, then sort by (distance, ref)."""
    scored = []
    for j, ref in enumerate(index.refs):
        if j == row or not predicate(j):
            continue
        d = math.sqrt(float(((index.features[j] - index.features[row]) ** 2).sum()))
        scored.append((d, ref))
    scored.sort()
    return [(ref, d) for d, ref in scored[:k]]


def graph_row(graph, index, row):
    """Row `row` of a whole-scene graph as the oracle's (ref, distance) list."""
    m = int(graph.counts[row])
    return [
        (index.refs[j], float(d))
        for j, d in zip(graph.members[row, :m], graph.distances[row, :m])
    ]


class TestCrossPerson:
    def test_same_person_only_gives_empty(self):
        rng = np.random.default_rng(1)
        refs = [f"v:0:{t}" for t in range(10)]
        idx = SceneIndex(
            "v", refs, np.zeros(10, dtype=int), np.arange(10), rng.standard_normal((10, 4))
        )
        graph = cross_person_neighbors(idx, k=4)
        assert not graph.counts.any()
        assert not graph.members.any() and not graph.distances.any()

    def test_three_candidates_distances(self):
        # query at origin; candidates at exact distances 1, 2, 3
        feats = np.zeros((4, 2))
        feats[1, 0] = 1.0
        feats[2, 0] = 2.0
        feats[3, 0] = 3.0
        refs = [f"v:{p}:0" for p in range(4)]
        idx = SceneIndex("v", refs, np.arange(4), np.zeros(4, dtype=int), feats)
        graph = cross_person_neighbors(idx, k=2)
        assert graph.counts[0] == 2
        assert graph.members[0].tolist() == [1, 2]
        assert graph.distances[0].tolist() == [1.0, 2.0]

    def test_matches_oracle_exactly(self):
        for seed in range(10):
            idx = make_index(n=80, persons=5, seed=seed)
            graph = cross_person_neighbors(idx, k=6)
            for row in range(len(idx)):
                want = oracle_neighbors(
                    idx, row, 6, lambda j: idx.person_ids[j] != idx.person_ids[row]
                )
                assert graph_row(graph, idx, row) == want


class TestSelfInspection:
    def test_temporal_mask_excludes_near_windows(self):
        # alpha=4, T=16: |dt| must exceed 64
        feats = np.random.default_rng(2).standard_normal((3, 4))
        refs = ["v:0:100", "v:0:150", "v:0:200"]
        idx = SceneIndex(
            "v", refs, np.zeros(3, dtype=int), np.array([100, 150, 200]), feats
        )
        graph = self_inspection_neighbors(idx, k=5, alpha=4, window_length=16)
        # dt=50 masked, dt=100 kept
        assert [ref for ref, _ in graph_row(graph, idx, 0)] == ["v:0:200"]

    def test_short_track_has_no_partners(self):
        feats = np.random.default_rng(3).standard_normal((4, 4))
        refs = [f"v:0:{t}" for t in (0, 10, 20, 30)]
        idx = SceneIndex("v", refs, np.zeros(4, dtype=int), np.array([0, 10, 20, 30]), feats)
        graph = self_inspection_neighbors(idx, k=3, alpha=4, window_length=16)
        assert graph.counts[1] == 0  # v:0:10

    def test_matches_oracle_exactly(self):
        for seed in range(10):
            idx = make_index(n=80, persons=3, seed=100 + seed)
            graph = self_inspection_neighbors(idx, k=4, alpha=2, window_length=16)
            for row in range(len(idx)):
                want = oracle_neighbors(
                    idx, row, 4,
                    lambda j: idx.person_ids[j] == idx.person_ids[row]
                    and abs(int(idx.times[j]) - int(idx.times[row])) > 32,
                )
                assert graph_row(graph, idx, row) == want

    def test_filter_symmetry_invariant(self):
        idx = make_index(n=60, persons=4, seed=11)
        nc = cross_person_neighbors(idx, k=5)
        ns = self_inspection_neighbors(idx, k=5, alpha=1, window_length=4)
        for row in range(len(idx)):
            for j in nc.members[row, :nc.counts[row]]:
                assert idx.person_ids[j] != idx.person_ids[row]
            for j in ns.members[row, :ns.counts[row]]:
                assert idx.person_ids[j] == idx.person_ids[row]
                assert abs(int(idx.times[j]) - int(idx.times[row])) > 4


class TestUniquenessScore:
    def test_identical_features_score_zero(self):
        feats = np.ones((6, 4))
        refs = [f"v:{p}:{t}" for p, t in zip([0, 0, 1, 1, 2, 2], [0, 100, 0, 100, 0, 100])]
        idx = SceneIndex(
            "v", refs, np.array([0, 0, 1, 1, 2, 2]), np.array([0, 100, 0, 100, 0, 100]), feats
        )
        scores, isolated = video_uniqueness_scores(idx, 3, 4, 16)
        assert scores[0] == 0.0 and not isolated

    def test_full_neighborhood_equals_plain_sum(self):
        idx = make_index(n=60, persons=3, seed=12)
        nc = cross_person_neighbors(idx, k=5)
        ns = self_inspection_neighbors(idx, k=5, alpha=0, window_length=1)
        assert nc.counts[0] == 5
        scores, _ = video_uniqueness_scores(idx, 5, 0, 1)
        sums = [sum(d for _, d in graph_row(g, idx, 0)) for g in (nc, ns) if g.counts[0]]
        assert scores[0] == pytest.approx(max(sums), rel=1e-12)

    def test_scaling_features_scales_scores(self):
        idx = make_index(n=50, persons=4, seed=13)
        scaled = SceneIndex(
            "v0", idx.refs, idx.person_ids, idx.times, idx.features * 3.0
        )
        s1, _ = video_uniqueness_scores(idx, 4, 1.0, 4)
        s3, _ = video_uniqueness_scores(scaled, 4, 1.0, 4)
        for row in range(len(idx)):
            assert s3[row] == pytest.approx(3.0 * s1[row], rel=1e-9)

    def test_outlier_agent_attains_max_mean_score(self):
        rng = np.random.default_rng(14)
        # 9 agents share one tight pattern; agent 9 sits far away
        rows, refs, persons, times = [], [], [], []
        base = rng.standard_normal(6)
        for p in range(10):
            center = base if p < 9 else base + 8.0
            for t in range(12):
                rows.append(center + 0.1 * rng.standard_normal(6))
                refs.append(f"v:{p}:{t * 20}")
                persons.append(p)
                times.append(t * 20)
        idx = SceneIndex("v", refs, np.array(persons), np.array(times), np.array(rows))
        scores, _ = video_uniqueness_scores(idx, 4, 1.0, 16)
        per_agent = {
            p: np.mean([scores[i] for i, pp in enumerate(persons) if pp == p])
            for p in range(10)
        }
        assert max(per_agent, key=per_agent.get) == 9

    def test_isolated_snippets_flagged(self):
        feats = np.random.default_rng(15).standard_normal((2, 4))
        refs = ["v:0:0", "v:0:10"]
        idx = SceneIndex("v", refs, np.zeros(2, dtype=int), np.array([0, 10]), feats)
        scores, isolated = video_uniqueness_scores(idx, 2, 4.0, 16)
        assert isolated == set(refs)
        assert all(v == 0.0 for v in scores)


def test_duplicate_person_time_rejected():
    feats = np.zeros((2, 4))
    with pytest.raises(SchemaError):
        SceneIndex("v", ["a", "b"], np.zeros(2, dtype=int), np.zeros(2, dtype=int), feats)


# Frozen reference: the per-query scan that the batched engine replaced. Each
# query masks the scene, computes every admitted distance, and lexsorts them by
# (distance, ref rank). The engine must reproduce it bit for bit.


def scan_neighbors(index, row, mask, k):
    """Scene rows of the query's kept neighbors and their distances, in order."""
    candidates = np.flatnonzero(mask)
    diff = index.features[candidates] - index.features[row]
    dists = np.sqrt((diff * diff).sum(axis=1))
    order = np.lexsort((index._ref_rank[candidates], dists))[:k]
    return candidates[order], dists[order]


def scan_cross(index, row, k):
    mask = index.person_ids != index.person_ids[row]
    return scan_neighbors(index, row, mask, k)


def scan_self(index, row, k, alpha, window_length):
    gap = np.abs(index.times - index.times[row])
    mask = (index.person_ids == index.person_ids[row]) & (gap > alpha * window_length)
    return scan_neighbors(index, row, mask, k)


def scan_scores(index, k, alpha, window_length):
    """Per row: max of k * mean distance over the non-empty branches, else 0."""
    scores, isolated = [], set()
    for row, ref in enumerate(index.refs):
        branch_dists = (
            scan_cross(index, row, k)[1], scan_self(index, row, k, alpha, window_length)[1]
        )
        branches = [k * float(np.mean(d)) for d in branch_dists if len(d)]
        if not branches:
            isolated.add(ref)
        scores.append(max(branches, default=0.0))
    return scores, isolated


def bits(values):
    return np.array(values, dtype=np.float64).view(np.int64)


def assert_graph_matches_scan(graph, index, k, scan):
    """Every row of a whole-scene graph against the scan of that row."""
    n = len(index)
    assert graph.members.shape == graph.distances.shape == (n, min(k, n))
    assert graph.counts.shape == (n,)
    for row in range(n):
        members, dists = scan(row)
        m = len(members)
        assert graph.counts[row] == m
        np.testing.assert_array_equal(graph.members[row, :m], members)
        np.testing.assert_array_equal(bits(graph.distances[row, :m]), bits(dists))
        assert not graph.members[row, m:].any() and not graph.distances[row, m:].any()


def assert_matches_scan(index, k, alpha, window_length):
    got_scores, got_isolated = video_uniqueness_scores(index, k, alpha, window_length)
    want_scores, want_isolated = scan_scores(index, k, alpha, window_length)
    assert len(got_scores) == len(index)
    np.testing.assert_array_equal(bits(got_scores), bits(want_scores))
    assert got_isolated == want_isolated

    assert_graph_matches_scan(
        cross_person_neighbors(index, k), index, k, lambda row: scan_cross(index, row, k)
    )
    assert_graph_matches_scan(
        self_inspection_neighbors(index, k, alpha, window_length), index, k,
        lambda row: scan_self(index, row, k, alpha, window_length),
    )


def oracle_scene(seed, n, persons, dim=8, scale=1.0, duplicates=0):
    rng = np.random.default_rng(seed)
    person_ids = rng.integers(0, persons, n)
    times = rng.permutation(n * 4)[:n]
    feats = rng.standard_normal((n, dim)) * scale
    if duplicates:
        # exact copies of other rows: equal distances, decided by ref rank
        src = rng.integers(0, n, duplicates)
        dst = rng.integers(0, n, duplicates)
        feats[dst] = feats[src]
    refs = [f"v{seed}:{p}:{t}" for p, t in zip(person_ids, times)]
    return SceneIndex(f"v{seed}", refs, person_ids, times, feats)


class TestBatchedEngineMatchesScan:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_random_scenes_with_ties(self, scale, k):
        for seed in range(4):
            idx = oracle_scene(seed, n=70, persons=4, scale=scale, duplicates=15)
            assert_matches_scan(idx, k, alpha=2.0, window_length=4)

    def test_all_rows_identical(self):
        idx = oracle_scene(5, n=40, persons=3)
        tied = SceneIndex(idx.video_id, idx.refs, idx.person_ids, idx.times,
                          np.ones_like(idx.features))
        assert_matches_scan(tied, 5, alpha=1.0, window_length=3)

    def test_k_larger_than_candidates(self):
        idx = oracle_scene(6, n=25, persons=3)
        assert_matches_scan(idx, 100, alpha=0.5, window_length=4)

    def test_one_person_scene_has_empty_cross_branch(self):
        idx = oracle_scene(7, n=30, persons=1)
        assert not cross_person_neighbors(idx, 4).counts.any()
        assert_matches_scan(idx, 4, alpha=1.0, window_length=8)

    def test_isolated_snippets(self):
        # one person, all windows within the temporal mask: every row isolated
        idx = oracle_scene(8, n=12, persons=1)
        _, isolated = video_uniqueness_scores(idx, 4, alpha=100.0, window_length=16)
        assert isolated == set(idx.refs)
        assert_matches_scan(idx, 4, alpha=100.0, window_length=16)

    def test_multiple_query_blocks(self):
        idx = oracle_scene(9, n=600, persons=2, dim=4, duplicates=50)
        assert len(idx) > 2 * BLOCK_ROWS
        assert_matches_scan(idx, 6, 4.0, 16)


@st.composite
def small_scenes(draw):
    n = draw(st.integers(1, 60))
    persons = draw(st.integers(1, 5))
    person_ids = np.array(draw(st.lists(st.integers(0, persons - 1), min_size=n, max_size=n)))
    times = np.array(draw(st.permutations(range(3 * n))))[:n]
    dim = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(-3, 3), min_size=n * dim, max_size=n * dim))
    # coarse integer grid: many exact distance ties
    feats = np.array(values, dtype=np.float64).reshape(n, dim) * 0.5
    refs = [f"v:{p}:{t}" for p, t in zip(person_ids, times)]
    return SceneIndex("v", refs, person_ids, times, feats)


@settings(max_examples=60, deadline=None)
@given(
    idx=small_scenes(),
    k=st.integers(1, 70),
    alpha=st.floats(0.0, 8.0, allow_nan=False),
    window_length=st.integers(2, 24),
)
def test_engine_agrees_with_math_sqrt_oracle(idx, k, alpha, window_length):
    scores, isolated = video_uniqueness_scores(idx, k, alpha, window_length)
    cross = cross_person_neighbors(idx, k)
    inspect = self_inspection_neighbors(idx, k, alpha, window_length)
    for row, ref in enumerate(idx.refs):
        want_c = oracle_neighbors(
            idx, row, k, lambda j: idx.person_ids[j] != idx.person_ids[row]
        )
        want_s = oracle_neighbors(
            idx, row, k,
            lambda j: idx.person_ids[j] == idx.person_ids[row]
            and abs(int(idx.times[j]) - int(idx.times[row])) > alpha * window_length,
        )
        for graph, want in ((cross, want_c), (inspect, want_s)):
            assert graph.counts[row] == len(want)
            assert graph_row(graph, idx, row) == want
            assert not graph.members[row, len(want):].any()
            assert not graph.distances[row, len(want):].any()
        branches = [k * float(np.mean([d for _, d in w])) for w in (want_c, want_s) if w]
        assert bits([scores[row]]) == bits([max(branches, default=0.0)])
        assert (ref in isolated) == (not branches)


def both_graphs(idx, k, alpha, window_length, block_rows):
    with mock.patch.object(context, "BLOCK_ROWS", block_rows):
        return (
            cross_person_neighbors(idx, k),
            self_inspection_neighbors(idx, k, alpha, window_length),
        )


def assert_same_graphs(got, want):
    for graph, other in zip(got, want):
        for field in Neighbors._fields:
            a, b = getattr(graph, field), getattr(other, field)
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


# 1 row is a gemv per block; the rest are GEMMs whose sums may differ in order
QUERY_BLOCKS = [1, 3, 128, 256]


class TestQueryBlockSize:
    """The Gram values of a block depend on its size, through the BLAS call
    that computes them, but the exact re-rank makes the graph independent of it."""

    @settings(max_examples=40, deadline=None)
    @given(
        idx=small_scenes(),
        k=st.integers(1, 20),
        alpha=st.floats(0.0, 8.0, allow_nan=False),
        window_length=st.integers(2, 24),
    )
    def test_small_scenes(self, idx, k, alpha, window_length):
        want = both_graphs(idx, k, alpha, window_length, QUERY_BLOCKS[0])
        for block_rows in QUERY_BLOCKS[1:]:
            assert_same_graphs(both_graphs(idx, k, alpha, window_length, block_rows), want)

    def test_multiple_query_blocks_scene(self):
        idx = oracle_scene(9, n=600, persons=2, dim=4, duplicates=50)
        want = both_graphs(idx, 6, 4.0, 16, QUERY_BLOCKS[0])
        for block_rows in QUERY_BLOCKS[1:]:
            assert len(idx) > 2 * block_rows
            assert_same_graphs(both_graphs(idx, 6, 4.0, 16, block_rows), want)


def test_cross_person_search_holds_few_gram_blocks():
    # 1,700 rows of 64 features in 8 persons: a (256, n) float64 Gram block is
    # 3.5 MB. Assembling the Gram value in the GEMM's own buffer, 128 query
    # rows at a time, keeps the search under 2.5 such blocks; three
    # temporaries of 256 rows read 3.6. NumPy reports its allocations to
    # tracemalloc.
    rng = np.random.default_rng(0)
    n = 1700
    persons = rng.integers(0, 8, n)
    times = np.arange(n)
    refs = [f"v:{p}:{t}" for p, t in zip(persons, times)]
    idx = SceneIndex("v", refs, persons, times, rng.standard_normal((n, 64)))
    tracemalloc.start()
    try:
        graph = cross_person_neighbors(idx, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.counts.tolist() == [16] * n
    block = 256 * n * 8
    assert peak < 2.5 * block, f"peak {peak / block:.2f} Gram blocks of 256 rows"
