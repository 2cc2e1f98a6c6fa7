"""The bulk track reader against the per-line reference.

`pose_io.read_tracks` parses a file in chunks, in bulk, and hands any file it
refuses to `pose_io._read_by_line`, the per-line loop that defines every
error. So on every valid file the bulk parse must accept and give the
reference's columns bit for bit, and on every invalid file it must refuse, so
that the first error keeps its type, message and line.
"""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skel_sentinel import pose_io
from skel_sentinel.errors import SentinelError
from skel_sentinel.pose_io import MAX_TRACK_SPAN, load_tracks, read_tracks

J = 3

# How a value or an id is written; each parses back with float() or int().
NUMBER_FORMATS = [repr, "{:.3f}".format, "{:e}".format, " {!r} ".format, "{:+}".format]
ID_FORMATS = [str, " {} ".format, "+{}".format, "0{}".format]


@st.composite
def track_files(draw):
    """(records, lines) of a valid track file: `lines` is a list of (key,
    line as bytes without its ending), and `records` maps each key,
    (video_id, person_id, frame_index), to the (J, 3) x, y, c values the
    line's text stands for."""
    keys = draw(st.sets(
        st.tuples(
            st.sampled_from(["v0", "cam b", "ü:1", ""]),
            st.integers(0, 3),
            st.integers(0, 40),  # gaps between frames come for free
        ),
        min_size=1,
        max_size=40,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    number = draw(st.sampled_from(NUMBER_FORMATS))
    integer = draw(st.sampled_from(ID_FORMATS))
    records, lines = {}, []
    for video_id, person_id, frame_index in keys:
        values = rng.standard_normal((J, 3)) * 100.0
        values[:, 2] = rng.choice([0.0, 1.0, 0.25, 0.5]) if rng.random() < 0.3 else rng.random(J)
        if rng.random() < 0.2:
            values[:, :2] = 0.0  # a dropout pose
        texts = [[number(v) for v in joint] for joint in values.tolist()]
        records[(video_id, person_id, frame_index)] = np.array(
            [[float(t) for t in joint] for joint in texts]
        )
        pose = ";".join(",".join(joint) for joint in texts)
        line = f"{video_id}\t{integer(person_id)}\t{integer(frame_index)}\t{pose}"
        lines.append(((video_id, person_id, frame_index), line.encode()))
    return records, draw(st.permutations(lines)) if draw(st.booleans()) else sorted(lines)


def layout(lines, data):
    """`lines` as one file: blank lines put in, each line ended by LF or CRLF,
    the last one maybe unended. Returns the file and each line's number."""
    numbers, out = [], []
    for _, line in lines:
        while data.draw(st.integers(0, 5)) == 5:
            out.append(b"")  # a blank line, or a lone `\r` with a CRLF ending
        out.append(line)
        numbers.append(len(out))
    ends = [data.draw(st.sampled_from([b"\n", b"\r\n"])) for _ in out]
    if data.draw(st.booleans()):
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(out, ends)), numbers


CHUNKS = st.sampled_from([16, 64, 300, pose_io.CHUNK_BYTES])


def assert_same_columns(got, want):
    assert got.video_ids == want.video_ids
    for column in ("video_codes", "person_ids", "frame_indices"):
        assert getattr(got, column).dtype == getattr(want, column).dtype == np.int64
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column))
    assert got.values.shape == want.values.shape
    np.testing.assert_array_equal(got.values.view(np.int64), want.values.view(np.int64))


class TestValidFiles:
    @settings(max_examples=120, deadline=None)
    @given(case=track_files(), chunk=CHUNKS, data=st.data())
    def test_bulk_gives_the_reference_columns(self, case, chunk, data):
        records, lines = case
        blob, _ = layout(lines, data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tracks.tsv"
            path.write_bytes(blob)
            with mock.patch.object(pose_io, "CHUNK_BYTES", chunk):
                bulk = pose_io._read_bulk(path, J)
                columns = read_tracks(path, J)
            reference = pose_io._read_by_line(path, J)
            videos = load_tracks(path, J)
        assert bulk is not None
        assert_same_columns(bulk, reference)
        assert_same_columns(columns, reference)

        # the rows are the records, sorted by key
        keys = sorted(records)
        assert [
            (columns.video_ids[v], p, f)
            for v, p, f in zip(*(c.tolist() for c in (
                columns.video_codes, columns.person_ids, columns.frame_indices
            )))
        ] == keys
        want = np.array([records[key] for key in keys])
        np.testing.assert_array_equal(columns.values.view(np.int64), want.view(np.int64))

        # the Track bridge: one Track per (video, person), frames in order
        assert list(videos) == sorted({video_id for video_id, _, _ in keys})
        tracks = [(track.video_id, track.person_id) for v in videos.values() for track in v]
        assert tracks == sorted({(video_id, person_id) for video_id, person_id, _ in keys})
        frames = [
            (track.video_id, track.person_id, pose)
            for v in videos.values() for track in v for pose in track.frames
        ]
        assert [(v, p, pose.frame_index) for v, p, pose in frames] == keys
        for (video_id, person_id, pose), key in zip(frames, keys):
            assert pose.person_id == person_id
            np.testing.assert_array_equal(pose.xy, records[key][:, :2])
            np.testing.assert_array_equal(pose.confidence, records[key][:, 2])

    def test_empty_and_blank_files(self, tmp_path):
        for blob in (b"", b"\n", b"\r\n\n\r"):
            path = tmp_path / "tracks.tsv"
            path.write_bytes(blob)
            columns = read_tracks(path, J)
            assert columns.video_ids == [] and columns.values.shape == (0, J, 3)
            assert_same_columns(columns, pose_io._read_by_line(path, J))
            assert load_tracks(path, J) == {}


BAD_KINDS = [
    "field-count", "integer", "negative", "too-large", "joint-count", "misaligned",
    "non-finite", "confidence", "utf-8", "duplicate", "span",
]


def bad_line(kind, lines, data):
    """A line that is wrong in the way `kind` names, and the index in `lines`
    after which it must go: a duplicate comes after the line it repeats, and
    a line that stretches a track too far after the track's first line."""
    after = data.draw(st.integers(0, len(lines) - 1))
    (video_id, person_id, frame_index), _ = lines[after]
    if kind == "span":
        after = next(i for i, (key, _) in enumerate(lines) if key[:2] == (video_id, person_id))
        frame_index = lines[after][0][2]
    fields = [video_id, str(person_id), str(frame_index + 50)]
    triples = [["1.5", "2.5", "0.5"] for _ in range(J)]
    if kind == "field-count":
        pose = ";".join(",".join(t) for t in triples)
        fields = [video_id or "v", *fields[1:], pose, "extra", "more"]
        fields = fields[: data.draw(st.sampled_from([1, 2, 3, 5, 6]))]
    elif kind == "integer":
        fields[data.draw(st.sampled_from([1, 2]))] = data.draw(
            st.sampled_from(["1.5", "x", "", "1e3", "0x10", "1,2"])
        )
    elif kind == "negative":
        fields[data.draw(st.sampled_from([1, 2]))] = str(data.draw(st.integers(-100, -1)))
    elif kind == "too-large":
        fields[data.draw(st.sampled_from([1, 2]))] = str(2**63 + data.draw(st.integers(0, 10**30)))
    elif kind == "joint-count":
        triples = triples[: J - 1] if data.draw(st.booleans()) else triples + [["1", "1", "1"]]
    elif kind == "misaligned":
        # the same separators, one comma moved across a semicolon
        i = data.draw(st.integers(0, J - 2))
        triples[i] = triples[i] + [triples[i + 1].pop(0)]
    elif kind in ("non-finite", "confidence"):
        axis = data.draw(st.sampled_from([0, 1])) if kind == "non-finite" else 2
        value = ["nan", "inf", "-inf", "1e999"] if kind == "non-finite" else ["nan", "-0.5", "1.5"]
        triples[data.draw(st.integers(0, J - 1))][axis] = data.draw(st.sampled_from(value))
    elif kind in ("duplicate", "span"):
        fields[2] = str(frame_index if kind == "duplicate" else frame_index + MAX_TRACK_SPAN)
    if kind not in ("duplicate", "span"):
        after = -1
    if kind != "field-count":
        fields.append(";".join(",".join(t) for t in triples))
    line = "\t".join(fields).encode()
    if kind == "utf-8":
        cut = data.draw(st.integers(0, len(line)))
        line = line[:cut] + b"\xff" + line[cut:]
    return line, after


class TestInvalidFiles:
    @settings(max_examples=200, deadline=None)
    @given(case=track_files(), kind=st.sampled_from(BAD_KINDS), chunk=CHUNKS, data=st.data())
    def test_bulk_refuses_and_the_first_error_is_the_reference_one(self, case, kind, chunk, data):
        _, lines = case
        line, after = bad_line(kind, lines, data)
        at = data.draw(st.integers(after + 1, len(lines)))
        lines = lines[:at] + [(None, line)] + lines[at:]
        blob, numbers = layout(lines, data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tracks.tsv"
            path.write_bytes(blob)
            with pytest.raises(SentinelError) as want:
                pose_io._read_by_line(path, J)
            with mock.patch.object(pose_io, "CHUNK_BYTES", chunk):
                assert pose_io._read_bulk(path, J) is None
                with pytest.raises(type(want.value)) as got:
                    read_tracks(path, J)
        assert str(got.value) == str(want.value)
        assert str(want.value).startswith(f"{path}, line {numbers[at]}: ")


def test_columns_are_held_once(tmp_path):
    # 7,264 17-joint lines, sorted as write_tracks writes them: the columns
    # are about 3.1 MB; the per-line Track objects held 1.9 times the values.
    # NumPy reports its allocations to tracemalloc.
    rng = np.random.default_rng(0)
    with open(tmp_path / "tracks.tsv", "w", encoding="utf-8") as fh:
        for person in range(8):
            for frame in range(908):
                pose = ";".join(
                    f"{x!r},{y!r},{c!r}"
                    for x, y, c in (rng.random((17, 3)) * (100.0, 100.0, 1.0)).tolist()
                )
                fh.write(f"v{person // 2}\t{person}\t{frame}\t{pose}\n")
    tracemalloc.start()
    try:
        columns = read_tracks(tmp_path / "tracks.tsv", 17)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(
        getattr(columns, name).nbytes
        for name in ("video_codes", "person_ids", "frame_indices", "values")
    )
    assert len(columns) == 7264
    assert peak <= 2 * size, f"peak {peak / 1e6:.2f} MB for {size / 1e6:.2f} MB of columns"
    assert held <= 1.1 * size, f"holds {held / 1e6:.2f} MB for {size / 1e6:.2f} MB of columns"
