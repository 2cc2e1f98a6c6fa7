import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skel_sentinel.errors import (
    DegenerateSnippetError,
    DuplicateRecordError,
    SchemaError,
    TrackParseError,
)
from skel_sentinel.pose_io import (
    PoseFrame,
    Snippet,
    Track,
    load_tracks,
    normalize_snippet,
    parse_snippet_ref,
    window_snippets,
    write_tracks,
)

J = 4  # small joint count keeps the fixtures readable


def make_track(video="v0", person=0, frames=30, start=0, offset=(0.0, 0.0), rng=None):
    rng = rng or np.random.default_rng(0)
    out = []
    for i in range(frames):
        xy = rng.random((J, 2)) * 100.0 + np.asarray(offset)
        out.append(PoseFrame(start + i, person, xy, np.ones(J)))
    return Track(video, person, out)


def track_line(video, person, frame, xy, conf=1.0):
    pose = ";".join(f"{x},{y},{conf}" for x, y in xy)
    return f"{video}\t{person}\t{frame}\t{pose}"


class TestLoadTracks:
    def test_two_persons_thirty_frames(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = []
        for person in (0, 1):
            for frame in range(30):
                lines.append(track_line("v0", person, frame, rng.random((J, 2))))
        path = tmp_path / "tracks.tsv"
        path.write_text("\n".join(lines) + "\n")
        videos = load_tracks(path, joints=J)
        assert list(videos) == ["v0"]
        assert len(videos["v0"]) == 2
        assert all(len(t.frames) == 30 for t in videos["v0"])

    def test_wrong_joint_count_is_schema_error(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "tracks.tsv"
        path.write_text(track_line("v0", 0, 0, rng.random((J - 1, 2))) + "\n")
        with pytest.raises(SchemaError):
            load_tracks(path, joints=J)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "tracks.tsv"
        path.write_text("v0\t0\t0\n")
        with pytest.raises(TrackParseError, match="line 1"):
            load_tracks(path)

    def test_duplicate_record(self, tmp_path):
        rng = np.random.default_rng(3)
        line = track_line("v0", 0, 5, rng.random((J, 2)))
        path = tmp_path / "tracks.tsv"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(DuplicateRecordError):
            load_tracks(path, joints=J)

    def test_bad_confidence_rejected(self, tmp_path):
        path = tmp_path / "tracks.tsv"
        pose = ";".join(f"{i},{i},2.0" for i in range(J))
        path.write_text(f"v0\t0\t0\t{pose}\n")
        with pytest.raises(TrackParseError):
            load_tracks(path, joints=J)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(4)
        videos = {
            "va": [make_track("va", 0, 12, rng=rng), make_track("va", 1, 8, rng=rng)],
            "vb": [make_track("vb", 3, 20, start=7, rng=rng)],
        }
        path = tmp_path / "tracks.tsv"
        write_tracks(videos, path)
        loaded = load_tracks(path, joints=J)
        assert sorted(loaded) == sorted(videos)
        for vid in videos:
            for orig, back in zip(videos[vid], loaded[vid]):
                assert orig.person_id == back.person_id
                for f0, f1 in zip(orig.frames, back.frames):
                    assert f0.frame_index == f1.frame_index
                    np.testing.assert_array_equal(f0.xy, f1.xy)
                    np.testing.assert_array_equal(f0.confidence, f1.confidence)


class TestWindowing:
    def test_count_law(self):
        track = make_track(frames=24)
        snippets = window_snippets(track, 16, 1)
        assert len(snippets) == 24 - 16 + 1

    def test_exact_length_and_too_short(self):
        assert len(window_snippets(make_track(frames=16), 16, 1)) == 1
        assert window_snippets(make_track(frames=10), 16, 1) == []

    def test_all_zero_track_discarded(self):
        frames = [
            PoseFrame(i, 0, np.zeros((J, 2)), np.zeros(J)) for i in range(32)
        ]
        track = Track("v0", 0, frames)
        assert window_snippets(track, 16, 1) == []

    def test_stride(self):
        track = make_track(frames=32)
        snippets = window_snippets(track, 16, 4)
        assert [s.start_time for s in snippets] == [0, 4, 8, 12, 16]

    def test_gap_zero_fill_keeps_timestamps(self):
        rng = np.random.default_rng(5)
        frames = [PoseFrame(i, 0, rng.random((J, 2)) + 1.0, np.ones(J)) for i in range(40)]
        del frames[18:22]  # 4-frame dropout
        track = Track("v0", 0, frames)
        snippets = window_snippets(track, 16, 1)
        # track still spans frames 0..39
        assert snippets[0].start_time == 0
        assert snippets[-1].start_time == 24
        # windows overlapping the gap keep zero placeholders
        with_gap = [s for s in snippets if s.start_time <= 18 < s.start_time + 16]
        assert with_gap
        for s in with_gap:
            column = 18 - s.start_time
            assert (s.joints[:, :, column] == 0).all()

    def test_majority_zero_window_dropped(self):
        rng = np.random.default_rng(6)
        frames = [PoseFrame(i, 0, rng.random((J, 2)) + 1.0, np.ones(J)) for i in range(7)]
        frames += [PoseFrame(i, 0, rng.random((J, 2)) + 1.0, np.ones(J)) for i in range(25, 34)]
        track = Track("v0", 0, frames)
        starts = {s.start_time for s in window_snippets(track, 16, 1)}
        # windows with more than 8 of 16 zero-filled frames are gone
        assert 7 not in starts and 12 not in starts


class TestNormalize:
    def test_centroid_and_scale(self):
        snippet = window_snippets(make_track(frames=16), 16, 1)[0]
        norm = normalize_snippet(snippet)
        assert abs(norm.joints.mean(axis=(1, 2))).max() <= 1e-9
        rms = np.sqrt((norm.joints**2).sum() / (2 * J * 16))
        assert abs(rms - 1.0) <= 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        base = make_track(frames=16, rng=rng)
        moved_frames = [
            PoseFrame(f.frame_index, 0, f.xy + np.array([100.0, -50.0]), f.confidence)
            for f in base.frames
        ]
        a = normalize_snippet(window_snippets(base, 16, 1)[0])
        b = normalize_snippet(window_snippets(Track("v0", 0, moved_frames), 16, 1)[0])
        np.testing.assert_allclose(a.joints, b.joints, atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        base = make_track(frames=16, rng=rng)
        scaled_frames = [
            PoseFrame(f.frame_index, 0, f.xy * 2.0, f.confidence) for f in base.frames
        ]
        a = normalize_snippet(window_snippets(base, 16, 1)[0])
        b = normalize_snippet(window_snippets(Track("v0", 0, scaled_frames), 16, 1)[0])
        np.testing.assert_allclose(a.joints, b.joints, atol=1e-9)

    def test_idempotent(self):
        snippet = window_snippets(make_track(frames=16), 16, 1)[0]
        once = normalize_snippet(snippet)
        again = normalize_snippet(
            Snippet(
                video_id=snippet.video_id,
                person_id=snippet.person_id,
                start_time=snippet.start_time,
                joints=once.joints,
                confidence=snippet.confidence,
            )
        )
        np.testing.assert_allclose(once.joints, again.joints, atol=1e-9)

    def test_degenerate_snippet(self):
        joints = np.full((2, J, 16), 3.25)  # all mass at one point
        snippet = Snippet("v0", 0, 0, joints, np.ones((J, 16)))
        with pytest.raises(DegenerateSnippetError):
            normalize_snippet(snippet)

    @settings(max_examples=25, deadline=None)
    @given(
        dx=st.floats(-1e4, 1e4, allow_nan=False),
        dy=st.floats(-1e4, 1e4, allow_nan=False),
        scale=st.floats(0.01, 100.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_similarity_invariance_property(self, dx, dy, scale, seed):
        rng = np.random.default_rng(seed)
        base = make_track(frames=16, rng=rng)
        moved = [
            PoseFrame(f.frame_index, 0, f.xy * scale + np.array([dx, dy]), f.confidence)
            for f in base.frames
        ]
        a = normalize_snippet(window_snippets(base, 16, 1)[0])
        b = normalize_snippet(window_snippets(Track("v0", 0, moved), 16, 1)[0])
        np.testing.assert_allclose(a.joints, b.joints, atol=1e-7)


def test_snippet_ref_round_trip():
    snippet = window_snippets(make_track("cam:busy", 4, 20, start=3), 16, 1)[0]
    assert parse_snippet_ref(snippet.ref) == ("cam:busy", 4, 3)
