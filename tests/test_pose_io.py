import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skel_sentinel.errors import DuplicateRecordError, SchemaError, TrackParseError
from skel_sentinel.pipeline import extract_snippets
from skel_sentinel.pose_io import (
    MAX_TRACK_SPAN,
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

    def test_wrong_joint_count_is_track_parse_error(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "tracks.tsv"
        path.write_text(track_line("v0", 0, 0, rng.random((J - 1, 2))) + "\n")
        with pytest.raises(TrackParseError) as exc:
            load_tracks(path, joints=J)
        assert str(exc.value) == f"{path}, line 1: expected {J} joints, got {J - 1}"

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "tracks.tsv"
        path.write_text("v0\t0\t0\n")
        with pytest.raises(TrackParseError, match="line 1"):
            load_tracks(path, joints=J)

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

    @pytest.mark.parametrize(
        "frames, bad_line",
        [
            ((5, 5 + MAX_TRACK_SPAN - 1), None),
            ((5, 5 + MAX_TRACK_SPAN), 3),
            ((MAX_TRACK_SPAN, 3, 0), 4),  # a line that lowers the first frame
        ],
    )
    def test_track_span_is_bounded(self, tmp_path, frames, bad_line):
        # load_tracks never allocates a span; only pipeline.SnippetStream
        # does, so these tests stay small whatever the bound
        xy = np.ones((J, 2))
        lines = [track_line("v0", 0, frame, xy) for frame in frames]
        lines.insert(1, track_line("v0", 1, 10 * MAX_TRACK_SPAN, xy))  # another person, line 2
        path = tmp_path / "tracks.tsv"
        path.write_text("\n".join(lines) + "\n")
        if bad_line is None:
            assert [len(t.frames) for t in load_tracks(path, joints=J)["v0"]] == [2, 1]
            return
        with pytest.raises(TrackParseError, match=f"line {bad_line}: track \\(v0, 0\\)"):
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


def _rejected_by(parse, text):
    try:
        parse(text)
    except ValueError:
        return True
    return False


# One field's text: no tab, LF or CR, and none of the pose separators.
FIELD = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r;,"),
    max_size=6,
)
COORD = st.floats(-1e3, 1e3).map(repr)
CONF = st.floats(0, 1).map(repr)
TRIPLE = st.tuples(COORD, COORD, CONF).map(",".join)


@st.composite
def malformed_line(draw):
    """One track line, as bytes, that is wrong whatever the lines around it."""
    fields = [
        draw(st.sampled_from(["v0", "v1", "other"])),
        str(draw(st.integers(0, 2))),
        str(draw(st.integers(0, 9))),
        draw(st.lists(TRIPLE, min_size=J, max_size=J)),
    ]
    kind = draw(st.sampled_from([
        "field-count", "integer", "negative", "joint-count", "triple", "float",
        "non-finite", "confidence", "utf-8",
    ]))
    if kind == "integer":
        fields[draw(st.sampled_from([1, 2]))] = draw(
            FIELD.filter(lambda text: _rejected_by(int, text))
        )
    elif kind == "negative":
        fields[draw(st.sampled_from([1, 2]))] = str(draw(st.integers(max_value=-1)))
    elif kind == "joint-count":
        fields[3] = draw(st.lists(TRIPLE, max_size=2 * J).filter(lambda t: len(t) != J))
    elif kind == "triple":
        parts = draw(st.lists(COORD, max_size=5).filter(lambda p: len(p) != 3))
        fields[3][draw(st.integers(0, J - 1))] = ",".join(parts)
    elif kind in ("float", "non-finite", "confidence"):
        joint, axis = draw(st.integers(0, J - 1)), draw(st.integers(0, 2))
        if kind == "confidence":
            outside = st.floats().filter(lambda c: not 0 <= c <= 1)
            axis, value = 2, repr(draw(st.sampled_from([math.nan, -0.5, 1.5]) | outside))
        elif kind == "non-finite":
            value = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
        else:
            value = draw(FIELD.filter(lambda text: _rejected_by(float, text)))
        triple = fields[3][joint].split(",")
        triple[axis] = value
        fields[3][joint] = ",".join(triple)
    fields[3] = ";".join(fields[3])
    line = "\t".join(fields)
    if kind == "field-count":
        parts = draw(st.lists(FIELD, min_size=1, max_size=6).filter(lambda p: len(p) != 4))
        line = "\t".join(parts) or "\x0c"  # a blank line is skipped, not malformed
    data = line.encode("utf-8")
    if kind == "utf-8":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


class TestMalformedTrackLine:
    @settings(max_examples=150, deadline=None)
    @given(
        persons=st.integers(1, 3),
        frames=st.integers(1, 10),
        bad=malformed_line(),
        data=st.data(),
        ending=st.sampled_from([b"\n", b"\r\n"]),
    )
    def test_error_names_the_line(self, persons, frames, bad, data, ending):
        rng = np.random.default_rng(persons * 100 + frames)
        lines = [
            track_line(video, person, frame, rng.random((J, 2)) * 100).encode("utf-8")
            for video in ("v0", "v1")
            for person in range(persons)
            for frame in range(frames)
        ]
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, bad)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tracks.tsv"
            path.write_bytes(b"".join(line + ending for line in lines))
            with pytest.raises((TrackParseError, SchemaError, DuplicateRecordError)) as exc:
                load_tracks(path, joints=J)
        assert str(exc.value).startswith(f"{path}, line {at + 1}: ")


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
            assert (table.joints[i, :, :, column] == 0).all()

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
        a = extract_snippets({"v0": [base]}, 16, 1).joints[0]
        b = extract_snippets({"v0": [Track("v0", 0, moved)]}, 16, 1).joints[0]
        np.testing.assert_allclose(a, b, atol=1e-7)


def test_snippet_ref_round_trip():
    table = extract_snippets({"cam:busy": [make_track("cam:busy", 4, 20, start=3)]}, 16, 1)
    assert parse_snippet_ref(table.refs[0]) == ("cam:busy", 4, 3)
