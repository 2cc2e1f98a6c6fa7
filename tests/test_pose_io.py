import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skel_sentinel.errors import DuplicateRecordError, SchemaError, TrackParseError
from skel_sentinel.pipeline import extract_snippets
from skel_sentinel.pose_io import (
    PoseFrame,
    Track,
    load_tracks,
    normalize_block,
    parse_snippet_ref,
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
        table = extract_snippets({"v0": [track]}, 16, 1)
        assert len(table) == 24 - 16 + 1

    def test_exact_length_and_too_short(self):
        assert len(extract_snippets({"v0": [make_track(frames=16)]}, 16, 1)) == 1
        assert len(extract_snippets({"v0": [make_track(frames=10)]}, 16, 1)) == 0

    def test_all_zero_track_discarded(self):
        frames = [
            PoseFrame(i, 0, np.zeros((J, 2)), np.zeros(J)) for i in range(32)
        ]
        track = Track("v0", 0, frames)
        assert len(extract_snippets({"v0": [track]}, 16, 1)) == 0

    def test_stride(self):
        track = make_track(frames=32)
        table = extract_snippets({"v0": [track]}, 16, 4)
        assert table.starts.tolist() == [0, 4, 8, 12, 16]

    def test_gap_zero_fill_keeps_timestamps(self):
        rng = np.random.default_rng(5)
        frames = [PoseFrame(i, 0, rng.random((J, 2)) + 1.0, np.ones(J)) for i in range(40)]
        del frames[18:22]  # 4-frame dropout
        track = Track("v0", 0, frames)
        table = extract_snippets({"v0": [track]}, 16, 1)
        # track still spans frames 0..39
        assert table.starts[0] == 0
        assert table.starts[-1] == 24
        # windows overlapping the gap keep zero placeholders
        with_gap = [i for i, start in enumerate(table.starts) if start <= 18 < start + 16]
        assert with_gap
        for i in with_gap:
            column = 18 - table.starts[i]
            assert (table[i].joints[:, :, column] == 0).all()

    def test_majority_zero_window_dropped(self):
        rng = np.random.default_rng(6)
        frames = [PoseFrame(i, 0, rng.random((J, 2)) + 1.0, np.ones(J)) for i in range(7)]
        frames += [PoseFrame(i, 0, rng.random((J, 2)) + 1.0, np.ones(J)) for i in range(25, 34)]
        track = Track("v0", 0, frames)
        starts = set(extract_snippets({"v0": [track]}, 16, 1).starts.tolist())
        # windows with more than 8 of 16 zero-filled frames are gone
        assert 7 not in starts and 12 not in starts


class TestNormalize:
    def test_centroid_and_scale(self):
        norm = extract_snippets({"v0": [make_track(frames=16)]}, 16, 1)[0]
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
        a = extract_snippets({"v0": [base]}, 16, 1)[0]
        b = extract_snippets({"v0": [Track("v0", 0, moved_frames)]}, 16, 1)[0]
        np.testing.assert_allclose(a.joints, b.joints, atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        base = make_track(frames=16, rng=rng)
        scaled_frames = [
            PoseFrame(f.frame_index, 0, f.xy * 2.0, f.confidence) for f in base.frames
        ]
        a = extract_snippets({"v0": [base]}, 16, 1)[0]
        b = extract_snippets({"v0": [Track("v0", 0, scaled_frames)]}, 16, 1)[0]
        np.testing.assert_allclose(a.joints, b.joints, atol=1e-9)

    def test_idempotent(self):
        once = extract_snippets({"v0": [make_track(frames=16)]}, 16, 1).joints
        again, _, _ = normalize_block(once, np.ones((1, J, 16)))
        np.testing.assert_allclose(once, again, atol=1e-9)

    def test_degenerate_snippet(self):
        # all mass at one point
        frames = [PoseFrame(i, 0, np.full((J, 2), 3.25), np.ones(J)) for i in range(16)]
        table = extract_snippets({"v0": [Track("v0", 0, frames)]}, 16, 1)
        assert len(table) == 0
        assert table.dropped_degenerate == 1

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
        a = extract_snippets({"v0": [base]}, 16, 1)[0]
        b = extract_snippets({"v0": [Track("v0", 0, moved)]}, 16, 1)[0]
        np.testing.assert_allclose(a.joints, b.joints, atol=1e-7)


def test_snippet_ref_round_trip():
    table = extract_snippets({"cam:busy": [make_track("cam:busy", 4, 20, start=3)]}, 16, 1)
    assert parse_snippet_ref(table[0].ref) == ("cam:busy", 4, 3)
