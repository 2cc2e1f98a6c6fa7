import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skel_sentinel.context import (
    BLOCK_ROWS,
    CROSS_PERSON,
    SELF_INSPECTION,
    Neighborhood,
    SceneIndex,
    cross_person_neighbors,
    self_inspection_neighbors,
    uniqueness_score,
    video_uniqueness_scores,
)
from skel_sentinel.errors import ContractError, SchemaError, UnknownSnippetError


def make_index(video="v0", n=40, dim=8, persons=4, seed=0):
    rng = np.random.default_rng(seed)
    person_ids = rng.integers(0, persons, n)
    times = np.arange(n) * 3  # distinct timestamps keep (p, t) unique
    refs = [f"{video}:{p}:{t}" for p, t in zip(person_ids, times)]
    feats = rng.standard_normal((n, dim))
    return SceneIndex(video, refs, person_ids, times, feats)


def oracle_neighbors(index, query_ref, k, predicate):
    """Independent exhaustive scan: filter, then sort by (distance, ref)."""
    row = index.row(query_ref)
    scored = []
    for j, ref in enumerate(index.refs):
        if j == row or not predicate(j):
            continue
        d = math.sqrt(float(((index.features[j] - index.features[row]) ** 2).sum()))
        scored.append((d, ref))
    scored.sort()
    return [(ref, d) for d, ref in scored[:k]]


class TestCrossPerson:
    def test_same_person_only_gives_empty(self):
        rng = np.random.default_rng(1)
        refs = [f"v:0:{t}" for t in range(10)]
        idx = SceneIndex(
            "v", refs, np.zeros(10, dtype=int), np.arange(10), rng.standard_normal((10, 4))
        )
        nbh = cross_person_neighbors(idx, refs[3], k=4)
        assert nbh.members == []

    def test_three_candidates_distances(self):
        # query at origin; candidates at exact distances 1, 2, 3
        feats = np.zeros((4, 2))
        feats[1, 0] = 1.0
        feats[2, 0] = 2.0
        feats[3, 0] = 3.0
        refs = [f"v:{p}:0" for p in range(4)]
        idx = SceneIndex("v", refs, np.arange(4), np.zeros(4, dtype=int), feats)
        nbh = cross_person_neighbors(idx, refs[0], k=2)
        assert [d for _, d in nbh.members] == [1.0, 2.0]
        assert nbh.threshold == 2.0

    def test_unknown_query(self):
        idx = make_index()
        with pytest.raises(UnknownSnippetError):
            cross_person_neighbors(idx, "v0:99:99", k=3)

    def test_matches_oracle_exactly(self):
        for seed in range(10):
            idx = make_index(n=80, persons=5, seed=seed)
            for ref in idx.refs[::7]:
                row = idx.row(ref)
                got = cross_person_neighbors(idx, ref, k=6)
                want = oracle_neighbors(
                    idx, ref, 6, lambda j: idx.person_ids[j] != idx.person_ids[row]
                )
                assert got.members == want


class TestSelfInspection:
    def test_temporal_mask_excludes_near_windows(self):
        # alpha=4, T=16: |dt| must exceed 64
        feats = np.random.default_rng(2).standard_normal((3, 4))
        refs = ["v:0:100", "v:0:150", "v:0:200"]
        idx = SceneIndex(
            "v", refs, np.zeros(3, dtype=int), np.array([100, 150, 200]), feats
        )
        nbh = self_inspection_neighbors(idx, "v:0:100", k=5, alpha=4, window_length=16)
        assert [ref for ref, _ in nbh.members] == ["v:0:200"]  # dt=50 masked, dt=100 kept

    def test_short_track_has_no_partners(self):
        feats = np.random.default_rng(3).standard_normal((4, 4))
        refs = [f"v:0:{t}" for t in (0, 10, 20, 30)]
        idx = SceneIndex("v", refs, np.zeros(4, dtype=int), np.array([0, 10, 20, 30]), feats)
        nbh = self_inspection_neighbors(idx, "v:0:10", k=3, alpha=4, window_length=16)
        assert nbh.members == []

    def test_matches_oracle_exactly(self):
        for seed in range(10):
            idx = make_index(n=80, persons=3, seed=100 + seed)
            for ref in idx.refs[::5]:
                row = idx.row(ref)
                got = self_inspection_neighbors(idx, ref, k=4, alpha=2, window_length=16)
                want = oracle_neighbors(
                    idx, ref, 4,
                    lambda j: idx.person_ids[j] == idx.person_ids[row]
                    and abs(int(idx.times[j]) - int(idx.times[row])) > 32,
                )
                assert got.members == want

    def test_filter_symmetry_invariant(self):
        idx = make_index(n=60, persons=4, seed=11)
        for ref in idx.refs:
            row = idx.row(ref)
            nc = cross_person_neighbors(idx, ref, k=5)
            ns = self_inspection_neighbors(idx, ref, k=5, alpha=1, window_length=4)
            for member, _ in nc.members:
                assert idx.person_ids[idx.row(member)] != idx.person_ids[row]
            for member, _ in ns.members:
                j = idx.row(member)
                assert idx.person_ids[j] == idx.person_ids[row]
                assert abs(int(idx.times[j]) - int(idx.times[row])) > 4


class TestUniquenessScore:
    def test_identical_features_score_zero(self):
        feats = np.ones((6, 4))
        refs = [f"v:{p}:{t}" for p, t in zip([0, 0, 1, 1, 2, 2], [0, 100, 0, 100, 0, 100])]
        idx = SceneIndex(
            "v", refs, np.array([0, 0, 1, 1, 2, 2]), np.array([0, 100, 0, 100, 0, 100]), feats
        )
        nc = cross_person_neighbors(idx, refs[0], k=3)
        ns = self_inspection_neighbors(idx, refs[0], k=3, alpha=4, window_length=16)
        assert uniqueness_score(nc, ns, k=3) == 0.0

    def test_single_branch_when_other_empty(self):
        from skel_sentinel.context import CROSS_PERSON, Neighborhood, SELF_INSPECTION

        nc = Neighborhood("q", CROSS_PERSON, [], 0.0)
        ns = Neighborhood("q", SELF_INSPECTION, [("a", 1.6), ("b", 1.6)], 1.6)
        assert uniqueness_score(nc, ns, k=2) == pytest.approx(3.2)

    def test_both_empty_is_zero(self):
        from skel_sentinel.context import CROSS_PERSON, Neighborhood, SELF_INSPECTION

        nc = Neighborhood("q", CROSS_PERSON, [], 0.0)
        ns = Neighborhood("q", SELF_INSPECTION, [], 0.0)
        assert uniqueness_score(nc, ns, k=4) == 0.0

    def test_mismatched_queries_rejected(self):
        from skel_sentinel.context import CROSS_PERSON, Neighborhood, SELF_INSPECTION

        nc = Neighborhood("q1", CROSS_PERSON, [], 0.0)
        ns = Neighborhood("q2", SELF_INSPECTION, [], 0.0)
        with pytest.raises(ContractError):
            uniqueness_score(nc, ns, k=4)

    def test_full_neighborhood_equals_plain_sum(self):
        idx = make_index(n=60, persons=3, seed=12)
        ref = idx.refs[0]
        nc = cross_person_neighbors(idx, ref, k=5)
        ns = self_inspection_neighbors(idx, ref, k=5, alpha=0, window_length=1)
        assert len(nc.members) == 5
        score = uniqueness_score(nc, ns, k=5)
        sums = [sum(d for _, d in nbh.members) for nbh in (nc, ns) if nbh.members]
        assert score == pytest.approx(max(sums), rel=1e-12)

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


def scan_neighbors(index, query_ref, mask, k, kind):
    row = index.row(query_ref)
    candidates = np.flatnonzero(mask)
    if candidates.size == 0:
        return Neighborhood(query_ref, kind, [], 0.0)
    diff = index.features[candidates] - index.features[row]
    dists = np.sqrt((diff * diff).sum(axis=1))
    order = np.lexsort((index._ref_rank[candidates], dists))
    keep = candidates[order[:k]]
    kept_dists = dists[order[:k]]
    members = [(index.refs[i], float(d)) for i, d in zip(keep, kept_dists)]
    return Neighborhood(query_ref, kind, members, float(kept_dists[-1]))


def scan_cross(index, query_ref, k):
    row = index.row(query_ref)
    mask = index.person_ids != index.person_ids[row]
    return scan_neighbors(index, query_ref, mask, k, CROSS_PERSON)


def scan_self(index, query_ref, k, alpha, window_length):
    row = index.row(query_ref)
    gap = np.abs(index.times - index.times[row])
    mask = (index.person_ids == index.person_ids[row]) & (gap > alpha * window_length)
    return scan_neighbors(index, query_ref, mask, k, SELF_INSPECTION)


def scan_scores(index, k, alpha, window_length):
    scores, isolated = {}, set()
    for ref in index.refs:
        nc = scan_cross(index, ref, k)
        ns = scan_self(index, ref, k, alpha, window_length)
        if not nc.members and not ns.members:
            isolated.add(ref)
        scores[ref] = uniqueness_score(nc, ns, k)
    return scores, isolated


def bits(values):
    return np.array(values, dtype=np.float64).view(np.int64)


def assert_matches_scan(index, k, alpha, window_length):
    got_scores, got_isolated = video_uniqueness_scores(index, k, alpha, window_length)
    want_scores, want_isolated = scan_scores(index, k, alpha, window_length)
    assert len(got_scores) == len(index)
    np.testing.assert_array_equal(
        bits(got_scores), bits([want_scores[r] for r in index.refs])
    )
    assert got_isolated == want_isolated

    cross = cross_person_neighbors(index, None, k)
    inspect = self_inspection_neighbors(index, None, k, alpha, window_length)
    for row, ref in enumerate(index.refs):
        want_c = scan_cross(index, ref, k)
        want_s = scan_self(index, ref, k, alpha, window_length)
        assert cross_person_neighbors(index, ref, k) == want_c
        assert self_inspection_neighbors(index, ref, k, alpha, window_length) == want_s
        assert cross.counts[row] == len(want_c.members)
        assert inspect.counts[row] == len(want_s.members)


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
        assert not cross_person_neighbors(idx, None, 4).counts.any()
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
        got, _ = video_uniqueness_scores(idx, 6, 4.0, 16)
        want, _ = scan_scores(idx, 6, 4.0, 16)
        np.testing.assert_array_equal(bits(got), bits([want[r] for r in idx.refs]))


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
    for row, ref in enumerate(idx.refs):
        want_c = oracle_neighbors(
            idx, ref, k, lambda j: idx.person_ids[j] != idx.person_ids[row]
        )
        want_s = oracle_neighbors(
            idx, ref, k,
            lambda j: idx.person_ids[j] == idx.person_ids[row]
            and abs(int(idx.times[j]) - int(idx.times[row])) > alpha * window_length,
        )
        assert cross_person_neighbors(idx, ref, k).members == want_c
        assert self_inspection_neighbors(idx, ref, k, alpha, window_length).members == want_s
        branches = [k * float(np.mean([d for _, d in w])) for w in (want_c, want_s) if w]
        assert bits([scores[row]]) == bits([max(branches, default=0.0)])
        assert (ref in isolated) == (not branches)
