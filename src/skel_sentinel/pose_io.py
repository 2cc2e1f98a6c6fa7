"""Pose track ingestion, snippet windowing, and snippet normalization.

Track file format (UTF-8, one pose per line):

    video_id<TAB>person_id<TAB>frame_index<TAB>x1,y1,c1;x2,y2,c2;...

with exactly one x,y,confidence triple per joint. Coordinates are pixels,
confidences live in [0, 1]. Lines are split as `config.read_lines` splits them.

`read_tracks` reads a track file into `TrackColumns`: a video, person and
frame column and one (L, J, 3) array of pose values, sorted by (video_id,
person_id, frame_index). It parses the file in bulk, a chunk of lines at a
time, and makes no object per line; a file the bulk parse refuses is read
again by the per-line reference loop, which raises the first error. The
`PoseFrame` and `Track` objects remain as a bridge: `load_tracks` builds them
from the columns and `track_columns` turns them back into columns.

Windowing and normalization are array kernels (`kept_offsets`,
`normalize_block`). `pipeline.SnippetStream` scatters the columns into one
zero-filled stack of every track's frames and runs them over it, BLOCK_ROWS
windows at a time, and `pipeline.extract_snippets` collects its blocks into
one `SnippetTable`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import BLOCK_ROWS, read_lines
from .errors import DuplicateRecordError, SchemaError, TrackParseError

# Windows with more than this fraction of zero-filled frames are dropped,
# extending the all-zero discard rule to partial tracking dropouts.
MAX_ZERO_FRAME_FRACTION = 0.5

SCALE_FLOOR = 1e-12

# Longest track span (last - first + 1 frames) that read_tracks accepts:
# about 9.7 h at 30 fps. pipeline.SnippetStream holds a track densely over its
# span, which at this bound is at most 0.43 GB of float64 at 17 joints.
MAX_TRACK_SPAN = 2**20


@dataclass(frozen=True)
class PoseFrame:
    frame_index: int
    person_id: int
    xy: np.ndarray  # (J, 2) pixel coordinates
    confidence: np.ndarray  # (J,) in [0, 1]

    def __post_init__(self):
        if self.xy.ndim != 2 or self.xy.shape[1] != 2:
            raise SchemaError(f"keypoints must be (J, 2), got {self.xy.shape}")
        if self.confidence.shape != (self.xy.shape[0],):
            raise SchemaError("confidence length must match joint count")
        if not np.isfinite(self.xy).all():
            raise SchemaError("keypoint coordinates must be finite")
        if not ((self.confidence >= 0) & (self.confidence <= 1)).all():  # NaN fails too
            raise SchemaError("confidences must lie in [0, 1]")


@dataclass(frozen=True)
class Track:
    video_id: str
    person_id: int
    frames: list[PoseFrame]

    def __post_init__(self):
        if not self.frames:
            raise SchemaError("track must contain at least one frame")
        indices = [f.frame_index for f in self.frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise SchemaError("frame indices must be strictly increasing")
        if any(f.person_id != self.person_id for f in self.frames):
            raise SchemaError("track mixes person ids")

    @property
    def length(self) -> int:
        return self.frames[-1].frame_index - self.frames[0].frame_index + 1


# perfbench/traced.py (line 128) still reads one row of a table as this.
@dataclass(frozen=True, eq=False)
class NormalizedSnippet:
    """One table row: a window's coordinates after centroid removal and RMS rescaling."""

    video_id: str
    person_id: int
    start_time: int
    joints: np.ndarray  # (2, J, T)

    @property
    def ref(self) -> str:
        return make_snippet_ref(self.video_id, self.person_id, self.start_time)


@dataclass(frozen=True, eq=False)
class SnippetTable:
    """Normalized snippets as columns, one row per snippet.

    The drop counts record the windows that did not become rows.
    """

    video_ids: np.ndarray  # (N,) str
    person_ids: np.ndarray  # (N,) int64
    starts: np.ndarray  # (N,) int64, frame index of each window's first frame
    joints: np.ndarray  # (N, 2, J, T) normalized coordinates
    dropped_zero: int  # windows with too many zero-filled frames
    dropped_degenerate: int  # windows normalization rejects

    def __len__(self) -> int:
        return len(self.starts)

    # perfbench/traced.py (line 128) still takes row 0 by this.
    def __getitem__(self, row: int) -> NormalizedSnippet:
        return NormalizedSnippet(
            str(self.video_ids[row]), int(self.person_ids[row]), int(self.starts[row]),
            self.joints[row],
        )

    @property
    def refs(self) -> list[str]:
        return snippet_refs(self.video_ids, self.person_ids, self.starts)


def snippet_refs(video_ids: np.ndarray, person_ids: np.ndarray, starts: np.ndarray) -> list[str]:
    """The ref of every row of a snippet table's id columns."""
    columns = (video_ids.tolist(), person_ids.tolist(), starts.tolist())
    return [make_snippet_ref(v, p, s) for v, p, s in zip(*columns)]


def make_snippet_ref(video_id: str, person_id: int, start_time: int) -> str:
    return f"{video_id}:{person_id}:{start_time}"


def parse_snippet_ref(ref: str) -> tuple[str, int, int]:
    video_id, person, start = ref.rsplit(":", 2)
    return video_id, int(person), int(start)


def ref_video(ref: str, where: str) -> str:
    """The video id of a snippet ref written exactly as `video:person:start`;
    any other ref is a SchemaError naming `where`."""
    try:
        video_id, person, start = parse_snippet_ref(ref)
        if make_snippet_ref(video_id, person, start) == ref:
            return video_id
    except ValueError:
        pass
    raise SchemaError(f"{where}: bad snippet ref {ref!r}")


@dataclass(frozen=True, eq=False)
class TrackColumns:
    """Pose lines as columns, one row per pose.

    A track is a run of rows sharing a video and a person, in strictly
    increasing frame order. `read_tracks` sorts the rows by (video_id,
    person_id, frame_index); `track_columns` keeps a Track dict's order.
    """

    video_ids: list[str]  # the distinct video ids, sorted
    video_codes: np.ndarray  # (L,) int64 position of each row's video in video_ids
    person_ids: np.ndarray  # (L,) int64
    frame_indices: np.ndarray  # (L,) int64
    values: np.ndarray  # (L, J, 3) float64: x, y and confidence of every joint

    def __len__(self) -> int:
        return len(self.frame_indices)

    def track_starts(self) -> np.ndarray:
        """The first row of every track, then the number of rows."""
        if not len(self):
            return np.zeros(1, dtype=np.int64)
        videos, persons = self.video_codes, self.person_ids
        new = (videos[1:] != videos[:-1]) | (persons[1:] != persons[:-1])
        return np.concatenate([[0], np.flatnonzero(new) + 1, [len(self)]])


# Bytes of track file parsed at a time by the bulk reader: bounds its
# temporaries (the chunk's text, its tokens and their values) at about 1.5 MB.
CHUNK_BYTES = 1 << 17

_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b"\t\n,;")))
_TO_COMMA = str.maketrans("\t;\n", ",,,")


def read_tracks(path: str | Path, joints: int) -> TrackColumns:
    """Read a track file into columns sorted by (video_id, person_id, frame_index).

    Every record must hold `joints` x,y,c triples. A malformed line is a
    TrackParseError, and a repeated record a DuplicateRecordError, whose
    message starts with `<path>, line N: `. A track whose span would exceed
    MAX_TRACK_SPAN frames is a TrackParseError naming the line that stretches
    it, before anything is allocated for the span.

    Lines are split by the `config.read_lines` rule. The file is parsed in
    chunks of CHUNK_BYTES, each in bulk, into columns allocated once for the
    file's line count, and its rows are sorted by one gather only when they
    are out of order. A file the bulk parse refuses, for any reason, is read
    again by the per-line reference loop, which raises the first error.
    """
    columns = _read_bulk(path, joints)
    return columns if columns is not None else _read_by_line(path, joints)


def _read_bulk(path: str | Path, joints: int) -> TrackColumns | None:
    """The columns of a valid track file, or None where `_read_by_line`
    might raise (the bulk checks accept no file that it refuses).

    The first non-blank line must hold the separators (tabs, commas,
    semicolons) of `joints` triples before anything is built or allocated
    for `joints`. Then a chunk's separators, line ends included, must be the
    layout of whole valid lines, so each line has its four fields and its
    `joints` triples before any value is parsed. Values are parsed by the
    same `int` and `float` as the reference, on the same text: the one `\r`
    the reference strips from a line end is left on the last value, which
    `float` ignores as it ignores any surrounding whitespace.
    """
    if Path(path).is_dir():
        return None
    with open(path, "rb") as fh:
        capacity = sum(block.count(b"\n") for block in iter(lambda: fh.read(CHUNK_BYTES), b""))
        capacity += 1  # room for a last line without a line end
        fh.seek(0)
        first = next((line for line in fh if line.strip()), b"")
    if len(first.rstrip(b"\n").translate(None, _NOT_SEPARATORS)) != 2 + 3 * joints:
        return None
    width = 3 + 3 * joints  # tokens per line
    layout = b"\t\t\t" + b",,;" * (joints - 1) + b",,\n"  # the separators of a line
    videos: dict[str, int] = {}  # video id -> code, in order of first appearance
    codes = np.empty(capacity, dtype=np.int64)
    persons = np.empty(capacity, dtype=np.int64)
    frames = np.empty(capacity, dtype=np.int64)
    values = np.empty((capacity, joints, 3), dtype=np.float64)
    n = 0
    for chunk in _line_chunks(path):
        m = chunk.count(b"\n")
        if chunk.translate(None, _NOT_SEPARATORS) != layout * m:
            return None
        try:
            tokens = chunk.decode("utf-8").translate(_TO_COMMA).split(",")
            tokens.pop()  # after the last line end
            table = np.array(tokens, dtype=object).reshape(m, width)
            del tokens
            codes[n : n + m] = [videos.setdefault(v, len(videos)) for v in table[:, 0].tolist()]
            persons[n : n + m] = np.fromiter(map(int, table[:, 1]), np.int64, m)
            frames[n : n + m] = np.fromiter(map(int, table[:, 2]), np.int64, m)
            values[n : n + m] = np.fromiter(
                map(float, table[:, 3:].ravel()), np.float64, m * 3 * joints
            ).reshape(m, joints, 3)
        except (ValueError, OverflowError):  # a bad number, or not UTF-8
            return None
        n += m
    codes, persons, frames, values = codes[:n], persons[:n], frames[:n], values[:n]
    if (persons < 0).any() or (frames < 0).any() or not np.isfinite(values[:, :, :2]).all():
        return None
    confidence = values[:, :, 2]
    if not ((confidence >= 0) & (confidence <= 1)).all():  # NaN fails too
        return None
    del confidence

    names = sorted(videos)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[videos[name] for name in names]] = np.arange(len(names))
    codes = rank[codes]
    order = np.lexsort((frames, persons, codes))
    if (order != np.arange(n)).any():  # the file is out of order
        codes, persons, frames, values = codes[order], persons[order], frames[order], values[order]
    del order
    same_track = (codes[1:] == codes[:-1]) & (persons[1:] == persons[:-1])
    if (same_track & (frames[1:] == frames[:-1])).any():  # a repeated record
        return None
    columns = TrackColumns(names, codes, persons, frames, values)
    starts = columns.track_starts()
    spans = frames[starts[1:] - 1] - frames[starts[:-1]] + 1
    return None if (spans > MAX_TRACK_SPAN).any() else columns


def _line_chunks(path: str | Path) -> Iterator[bytes]:
    """A file's non-blank lines, as chunks of whole lines, each line ending
    in `\n`: one chunk per CHUNK_BYTES read, and one for an unended last line."""
    with open(path, "rb") as fh:
        tail = b""
        while block := fh.read(CHUNK_BYTES):
            block = tail + block
            cut = block.rfind(b"\n") + 1
            yield _without_blank_lines(block[:cut])
            tail = block[cut:]
        yield _without_blank_lines(tail + b"\n" if tail else tail)


def _without_blank_lines(chunk: bytes) -> bytes:
    """`chunk` without its blank lines (empty, or one `\r`)."""
    if b"\n\n" in chunk or b"\n\r\n" in chunk or chunk.startswith((b"\n", b"\r\n")):
        lines = chunk.split(b"\n")[:-1]
        chunk = b"".join(line + b"\n" for line in lines if line not in (b"", b"\r"))
    return chunk


def _read_by_line(path: str | Path, joints: int) -> TrackColumns:
    """`read_tracks` one line at a time: the reference the bulk parse must
    match, and the source of every error message."""
    records: dict[tuple[str, int], dict[int, PoseFrame]] = {}
    spans: dict[tuple[str, int], tuple[int, int]] = {}  # first and last frame index

    def bad(message: str) -> TrackParseError:
        return TrackParseError(f"{path}, line {lineno}: {message}")  # the line being read

    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise bad(f"expected 4 tab-separated fields, got {len(parts)}")
        video_id, person_text, frame_text, pose_text = parts
        try:
            person_id = int(person_text)
            frame_index = int(frame_text)
        except ValueError as exc:
            raise bad(f"bad integer field: {exc}")
        if person_id < 0 or frame_index < 0:
            raise bad("person_id and frame_index must be >= 0")
        if person_id >= 2**63 or frame_index >= 2**63:  # they are int64 columns
            raise bad("person_id and frame_index must be < 2**63")

        triples = pose_text.split(";")
        if len(triples) != joints:
            raise bad(f"expected {joints} joints, got {len(triples)}")
        xy = np.empty((joints, 2), dtype=np.float64)
        conf = np.empty(joints, dtype=np.float64)
        for j, triple in enumerate(triples):
            fields = triple.split(",")
            if len(fields) != 3:
                raise bad(f"joint {j}: expected x,y,c")
            try:
                xy[j, 0] = float(fields[0])
                xy[j, 1] = float(fields[1])
                conf[j] = float(fields[2])
            except ValueError as exc:
                raise bad(f"joint {j}: {exc}")

        key = (video_id, person_id)
        frames = records.setdefault(key, {})
        if frame_index in frames:
            raise DuplicateRecordError(
                f"{path}, line {lineno}: "
                f"duplicate record for ({video_id}, {person_id}, {frame_index})"
            )
        first, last = spans.get(key, (frame_index, frame_index))
        first, last = min(first, frame_index), max(last, frame_index)
        if last - first + 1 > MAX_TRACK_SPAN:
            raise bad(
                f"track ({video_id}, {person_id}) would span {last - first + 1} frames, "
                f"more than {MAX_TRACK_SPAN}"
            )
        spans[key] = first, last
        try:
            frames[frame_index] = PoseFrame(frame_index, person_id, xy, conf)
        except SchemaError as exc:
            raise bad(str(exc))

    keys = sorted(records)
    names = sorted({video_id for video_id, _ in keys})
    code = {name: i for i, name in enumerate(names)}
    rows = [len(records[key]) for key in keys]
    poses = [records[key][f] for key in keys for f in sorted(records[key])]
    return TrackColumns(
        names,
        np.repeat(np.array([code[video_id] for video_id, _ in keys], dtype=np.int64), rows),
        np.repeat(np.array([person_id for _, person_id in keys], dtype=np.int64), rows),
        np.array([pose.frame_index for pose in poses], dtype=np.int64),
        _pose_values(poses, joints),
    )


def _pose_values(poses: list[PoseFrame], joints: int) -> np.ndarray:
    values = np.empty((len(poses), joints, 3), dtype=np.float64)
    if poses:
        values[:, :, :2] = np.stack([pose.xy for pose in poses])
        values[:, :, 2] = np.stack([pose.confidence for pose in poses])
    return values


# perfbench/traced.py (lines 119-120) still reads Track.frames from this.
def load_tracks(path: str | Path, joints: int) -> dict[str, list[Track]]:
    """`read_tracks` as Tracks grouped by video_id, sorted by (video_id,
    person_id), each with its frames sorted by frame_index."""
    columns = read_tracks(path, joints)
    starts = columns.track_starts().tolist()
    persons, frames = columns.person_ids.tolist(), columns.frame_indices.tolist()
    xy, conf = columns.values[:, :, :2], columns.values[:, :, 2]
    videos: dict[str, list[Track]] = {}
    for a, b in zip(starts, starts[1:]):
        video_id = columns.video_ids[columns.video_codes[a]]
        poses = [PoseFrame(frames[i], persons[i], xy[i], conf[i]) for i in range(a, b)]
        videos.setdefault(video_id, []).append(Track(video_id, persons[a], poses))
    return videos


# perfbench/traced.py (lines 159-161 and 267-269) still passes Track dicts to
# pipeline.extract_snippets, which reads them through this.
def track_columns(videos: dict[str, list[Track]]) -> TrackColumns:
    """The columns of Tracks grouped by video_id: videos in sorted order, each
    video's tracks in list order."""
    names = sorted(videos)
    tracks = [(code, track) for code, name in enumerate(names) for track in videos[name]]
    poses = [pose for _, track in tracks for pose in track.frames]
    joints = poses[0].xy.shape[0] if poses else 0
    rows = [len(track.frames) for _, track in tracks]
    return TrackColumns(
        names,
        np.repeat(np.array([code for code, _ in tracks], dtype=np.int64), rows),
        np.repeat(np.array([track.person_id for _, track in tracks], dtype=np.int64), rows),
        np.array([pose.frame_index for pose in poses], dtype=np.int64),
        _pose_values(poses, joints),
    )


def write_tracks(videos: dict[str, list[Track]], path: str | Path) -> None:
    """Inverse of load_tracks; float fields use repr so round-trips are exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for video_id in sorted(videos):
            for track in sorted(videos[video_id], key=lambda t: t.person_id):
                for frame in track.frames:
                    pose = ";".join(
                        f"{float(x)!r},{float(y)!r},{float(c)!r}"
                        for (x, y), c in zip(frame.xy, frame.confidence)
                    )
                    fh.write(f"{video_id}\t{track.person_id}\t{frame.frame_index}\t{pose}\n")


def kept_offsets(coords: np.ndarray, window_length: int, stride: int) -> tuple[np.ndarray, int]:
    """Offsets of a track's kept windows, and how many were zero-dominated.

    `coords` is a track's (L, J, 2) coordinates. A window whose zero-frame
    fraction exceeds MAX_ZERO_FRAME_FRACTION is dropped.
    """
    if window_length < 2:
        raise SchemaError("window_length must be >= 2")
    if stride < 1:
        raise SchemaError("stride must be >= 1")
    offsets = np.arange(0, coords.shape[0] - window_length + 1, stride)
    zero_frames = np.concatenate([[0], np.cumsum(~np.any(coords != 0.0, axis=(1, 2)))])
    zeros = zero_frames[offsets + window_length] - zero_frames[offsets]
    keep = zeros / window_length <= MAX_ZERO_FRAME_FRACTION
    return offsets[keep], int((~keep).sum())


def normalize_block(
    coords: np.ndarray, conf: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centroid-removed, unit-RMS copies of a block of snippets.

    `coords` is a C-contiguous (B, 2, J, T) block and `conf` its (B, J, T)
    confidences. Returns the normalized block with each row's valid-joint
    count and RMS scale. Valid joints have nonzero coordinates or positive
    confidence; only they move, and the zero placeholders left by gap filling
    stay at zero, so normalizing again is a fixed point. A row with no valid
    joint or a scale below SCALE_FLOOR is degenerate and its normalized
    values mean nothing. Each row's reductions run over its own contiguous
    values, so a row's result does not depend on the block it sits in.
    """
    valid = (conf > 0) | np.any(coords != 0.0, axis=1)  # (B, J, T)
    mask = valid[:, None, :, :]
    n_valid = valid.sum(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = coords.sum(axis=(2, 3), where=mask) / n_valid[:, None]  # (B, 2)
        centered = np.where(mask, coords - centroid[:, :, None, None], 0.0)
        scale = np.sqrt((centered * centered).sum(axis=(1, 2, 3)) / (2 * n_valid))
        return centered / scale[:, None, None, None], n_valid, scale
