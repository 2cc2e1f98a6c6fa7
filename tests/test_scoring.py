import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skel_sentinel.config import RunConfig
from skel_sentinel.errors import ContractError
from skel_sentinel.scoring import (
    ScoreSeries,
    build_score_series,
    frame_level_scores,
    holistic_scores,
    read_frame_scores,
    smooth_scores,
    standardize,
    write_frame_scores,
    write_snippet_details,
)

EPSILON = RunConfig().epsilon


def series_from(scored, video="v0"):
    """ScoreSeries of (person_id, start_time, holistic) rows; S^t = S^u = 0."""
    zeros = np.zeros(len(scored))
    return ScoreSeries(
        video,
        [f"{video}:{p}:{t}" for p, t, _ in scored],
        np.array([p for p, _, _ in scored], dtype=np.int64),
        np.array([t for _, t, _ in scored], dtype=np.int64),
        zeros,
        zeros,
        np.array([s for _, _, s in scored], dtype=np.float64),
        np.empty(0),
    )


class TestHolistic:
    def test_constant_uniqueness_contributes_nothing(self):
        st_scores = np.array([1.0, 3.0, 2.0, 8.0])
        su_scores = np.full(4, 5.5)
        fused = holistic_scores(st_scores, su_scores, EPSILON)
        np.testing.assert_allclose(fused, standardize(st_scores, EPSILON), atol=1e-12)

    def test_standardized_families_have_unit_moments(self):
        rng = np.random.default_rng(0)
        st_scores = rng.standard_normal(100) * 7 + 3
        z = standardize(st_scores, EPSILON)
        assert abs(z.mean()) <= 1e-9
        assert abs(z.std() - 1.0) <= 1e-9

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        st_scores = rng.standard_normal(50)
        su_scores = rng.standard_normal(50)
        base = holistic_scores(st_scores, su_scores, EPSILON)
        moved = holistic_scores(3.7 * st_scores + 11.0, su_scores, EPSILON)
        np.testing.assert_allclose(base, moved, atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            holistic_scores(np.zeros(3), np.zeros(4), EPSILON)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        a=st.floats(0.1, 50.0),
        b=st.floats(-100.0, 100.0),
    )
    def test_argmax_invariance_property(self, seed, a, b):
        rng = np.random.default_rng(seed)
        st_scores = rng.standard_normal(30)
        su_scores = rng.standard_normal(30)
        s0 = holistic_scores(st_scores, su_scores, EPSILON)
        s1 = holistic_scores(a * st_scores + b, su_scores, EPSILON)
        assert np.argmax(s0) == np.argmax(s1)


class TestFrameLevel:
    def test_max_across_persons(self):
        series = series_from([(0, 0, 0.2), (1, 0, 0.9)])
        frames = frame_level_scores(series, video_length=16, window_length=16)
        np.testing.assert_allclose(frames, 0.9)

    def test_empty_frames_get_video_minimum(self):
        series = series_from([(0, 0, -1.3), (0, 32, 0.4), (0, 64, 2.1)])
        frames = frame_level_scores(series, video_length=96, window_length=16)
        assert frames[20] == -1.3  # uncovered
        assert frames[95] == -1.3

    def test_window_coverage(self):
        # second snippet pins the fill value below the first one's score
        series = series_from([(0, 5, 1.5), (1, 0, -2.0)])
        frames = frame_level_scores(series, video_length=30, window_length=16)
        covered = np.flatnonzero(frames == 1.5)
        np.testing.assert_array_equal(covered, np.arange(5, 21))
        assert frames[25] == -2.0  # uncovered tail takes the video minimum

    def test_within_person_overlap_takes_max(self):
        series = series_from([(0, 0, 0.1), (0, 8, 0.7)])
        frames = frame_level_scores(series, video_length=24, window_length=16)
        assert frames[4] == 0.1
        assert frames[10] == 0.7  # overlap region
        assert frames[20] == 0.7

    def test_clipping_logs_and_survives(self, caplog):
        series = series_from([(0, 10, 0.5)])
        with caplog.at_level("WARNING"):
            frames = frame_level_scores(series, video_length=16, window_length=16)
        assert len(frames) == 16
        assert frames[15] == 0.5
        assert any("clipped" in r.message for r in caplog.records)

    def test_no_snippets_gives_zeros(self):
        frames = frame_level_scores(series_from([]), 10, 16)
        np.testing.assert_array_equal(frames, 0.0)

    def test_length_and_finiteness(self):
        rng = np.random.default_rng(2)
        scored = [(p, t, float(rng.standard_normal())) for p in range(3) for t in range(0, 40, 4)]
        frames = frame_level_scores(series_from(scored), video_length=60, window_length=16)
        assert len(frames) == 60
        assert np.isfinite(frames).all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), bump=st.floats(0.1, 10.0))
    def test_monotone_in_snippet_scores(self, seed, bump):
        rng = np.random.default_rng(seed)
        scored = [(p, t, float(rng.standard_normal())) for p in range(2) for t in range(0, 30, 5)]
        base = frame_level_scores(series_from(scored), 50, 16)
        p, t, s = scored[rng.integers(len(scored))]
        raised = [(pp, tt, ss + bump if (pp, tt) == (p, t) else ss) for pp, tt, ss in scored]
        upper = frame_level_scores(series_from(raised), 50, 16)
        assert (upper >= base - 1e-12).all()


class TestSeriesAssembly:
    def test_build_score_series(self):
        st_scores = np.array([5.0, 1.0, 1.0])
        su_scores = np.array([0.5, 0.5, 4.0])
        series = build_score_series(
            "v0", ["v0:0:0", "v0:1:0", "v0:1:32"], [0, 1, 1], [0, 0, 32],
            st_scores, su_scores, video_length=48, window_length=16, epsilon=EPSILON,
        )
        assert len(series.frame_scores) == 48
        assert series.holistic[0] == pytest.approx(
            standardize(st_scores, EPSILON)[0] + standardize(su_scores, EPSILON)[0]
        )


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        scores = {
            "va": rng.standard_normal(20).round(6),
            "vb": rng.standard_normal(8).round(6),
        }
        path = tmp_path / "scores.tsv"
        write_frame_scores(scores, path)
        back = read_frame_scores(path)
        assert sorted(back) == ["va", "vb"]
        for vid in scores:
            np.testing.assert_allclose(back[vid], scores[vid], atol=5e-7)

    def test_six_decimal_format(self, tmp_path):
        path = tmp_path / "scores.tsv"
        write_frame_scores({"v": np.array([1.23456789])}, path)
        assert path.read_text() == "v\t0\t1.234568\n"


def test_snippet_detail_format(tmp_path):
    series = {
        "v": ScoreSeries(
            "v", ["v:2:5"], np.array([2]), np.array([5]),
            np.array([1.23456789]), np.array([-0.5]), np.array([0.75]), np.zeros(21),
        )
    }
    path = tmp_path / "details.tsv"
    write_snippet_details(series, path)
    assert path.read_text() == "v\t2\t5\t1.234568\t-0.500000\t0.750000\n"


class TestSmoothing:
    def test_window_one_is_identity(self):
        x = np.array([1.0, 5.0, 2.0])
        np.testing.assert_array_equal(smooth_scores(x, 1), x)

    def test_constant_preserved(self):
        x = np.full(10, 2.5)
        np.testing.assert_allclose(smooth_scores(x, 5), x)

    def test_mean_preserving_interior(self):
        x = np.arange(9, dtype=float)
        smoothed = smooth_scores(x, 3)
        np.testing.assert_allclose(smoothed[1:-1], x[1:-1])

    @pytest.mark.parametrize("n, window", [(16, 25), (16, 17), (3, 8), (1, 4)])
    def test_window_longer_than_series_keeps_length(self, n, window):
        x = np.arange(float(n))
        expected = [
            x[max(0, i - window // 2) : i + (window - 1) // 2 + 1].mean() for i in range(n)
        ]
        smoothed = smooth_scores(x, window)
        assert smoothed.shape == (n,)
        np.testing.assert_allclose(smoothed, expected, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 59, 224])
    def test_window_beyond_twice_the_series_is_clamped(self, n):
        # A window of 10**12 would need terabytes unclamped; any window of at
        # least 2n - 1 averages every frame over the whole series.
        x = np.random.default_rng(n).standard_normal(n)
        window = 2 * n + 5
        kernel = np.ones(window)
        centered = slice((window - 1) // 2, (window - 1) // 2 + n)
        unclamped = (
            np.convolve(x, kernel, mode="full")[centered]
            / np.convolve(np.ones(n), kernel, mode="full")[centered]
        )
        np.testing.assert_array_equal(smooth_scores(x, 10**12).view(np.int64), unclamped.view(np.int64))
        np.testing.assert_array_equal(smooth_scores(x, window).view(np.int64), unclamped.view(np.int64))

    @pytest.mark.parametrize("window", [2, 3, 4, 7, 16])
    def test_bytes_unchanged_when_window_fits(self, window):
        # np.convolve(mode="same") is the previous implementation; for a window
        # no longer than the series its values must stay bit for bit.
        x = np.random.default_rng(window).standard_normal(16)
        kernel = np.ones(window)
        old = np.convolve(x, kernel, mode="same") / np.convolve(np.ones(16), kernel, mode="same")
        np.testing.assert_array_equal(smooth_scores(x, window).view(np.int64), old.view(np.int64))


# Frozen oracle: the per-person frame loop and the per-snippet details writer
# that the columnar code replaced. A snippet is a (person_id, start_time, S^t,
# S^u, S) tuple of Python numbers, as the removed per-snippet record held them.
def oracle_frame_scores(snippets, video_length, window_length):
    """Frame scores and the number of clipped windows."""
    frames = np.full(video_length, -np.inf)
    by_person = {}
    clipped = 0
    for person_id, start, _, _, holistic in snippets:
        end = start + window_length
        if end > video_length or start < 0:
            clipped += 1
            start = max(start, 0)
            end = min(end, video_length)
            if start >= end:
                continue
        person = by_person.setdefault(person_id, np.full(video_length, -np.inf))
        np.maximum(person[start:end], holistic, out=person[start:end])
    for person in by_person.values():
        np.maximum(frames, person, out=frames)
    frames[~np.isfinite(frames)] = min(s[4] for s in snippets) if snippets else 0.0
    return frames, clipped


def oracle_details(video_id, snippets):
    return "".join(
        f"{video_id}\t{p}\t{t}\t{st_:.6f}\t{su:.6f}\t{s:.6f}\n" for p, t, st_, su, s in snippets
    )


# A small grid makes exact ties common. `+ 0.0` turns -0.0 into 0.0: fused
# scores are sums of z-scores of finite families and are never -0.0, while the
# two codes may pick different zeros of a +0.0/-0.0 tie.
score_values = st.sampled_from([-1.5, -0.5, 0.0, 0.25, 2.0]) | st.floats(
    -5.0, 5.0, allow_nan=False
).map(lambda x: x + 0.0)


@st.composite
def score_columns(draw):
    window = draw(st.integers(1, 12))
    video_length = draw(st.integers(1, 48))
    persons = draw(st.integers(1, 5))
    n = draw(st.integers(0, 40))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    # starts run past both ends of the video, so windows clip on either side
    return (
        window,
        video_length,
        column(st.integers(0, persons - 1)),
        column(st.integers(-window - 2, video_length + 2)),
        column(score_values),
        column(score_values),
    )


class Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=300, deadline=None)
@given(columns=score_columns())
def test_columnar_series_matches_frozen_oracle(columns, tmp_path_factory):
    window, video_length, persons, starts, typ, unq = columns
    refs = [f"v:{p}:{t}" for p, t in zip(persons, starts)]
    logger, handler = logging.getLogger("skel_sentinel.scoring"), Messages()
    logger.addHandler(handler)
    try:
        if persons:
            series = build_score_series(
                "v", refs, persons, starts, np.array(typ), np.array(unq), video_length, window,
                EPSILON,
            )
        else:
            empty = np.empty(0)
            series = ScoreSeries("v", [], empty, empty, empty, empty, empty, empty)
            frames = frame_level_scores(series, video_length, window)
            series = dataclasses.replace(series, frame_scores=frames)
    finally:
        logger.removeHandler(handler)
    snippets = list(zip(persons, starts, typ, unq, series.holistic.tolist()))
    want_frames, clipped = oracle_frame_scores(snippets, video_length, window)

    np.testing.assert_array_equal(
        series.frame_scores.view(np.int64), want_frames.view(np.int64)
    )
    want_warnings = [f"v: clipped {clipped} snippet window(s) outside [0, {video_length})"]
    assert handler.messages == (want_warnings if clipped else [])
    path = tmp_path_factory.mktemp("details") / "details.tsv"
    write_snippet_details({"v": series}, path)
    assert path.read_bytes() == oracle_details("v", snippets).encode()


def test_details_of_several_videos_follow_video_order(tmp_path):
    videos = {
        vid: build_score_series(
            vid, [f"{vid}:{p}:0" for p in range(3)], [2, 0, 1], [0, 0, 0],
            np.array([0.5, 1.0, -2.0]), np.array([3.0, 1.0, 1.0]), 20, 16, EPSILON,
        )
        for vid in ("vb", "va")
    }
    write_snippet_details(videos, tmp_path / "details.tsv")
    want = "".join(
        oracle_details(vid, zip(
            s.person_ids.tolist(), s.start_times.tolist(), s.typicality.tolist(),
            s.uniqueness.tolist(), s.holistic.tolist(),
        ))
        for vid, s in sorted(videos.items())
    )
    assert (tmp_path / "details.tsv").read_text() == want
