"""Pose track ingestion, snippet windowing, and snippet normalization.

Track file format (UTF-8, one pose per line):

    video_id<TAB>person_id<TAB>frame_index<TAB>x1,y1,c1;x2,y2,c2;...

with exactly one x,y,confidence triple per joint. Coordinates are pixels,
confidences live in [0, 1]. Lines are split as `config.read_lines` splits them.

Windowing and normalization are array kernels (`track_arrays`,
`kept_offsets`, `normalize_block`). `pipeline.extract_snippets` runs them over
all tracks into one `SnippetTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import read_lines
from .errors import DuplicateRecordError, SchemaError, TrackParseError

# Windows with more than this fraction of zero-filled frames are dropped,
# extending the all-zero discard rule to partial tracking dropouts.
MAX_ZERO_FRAME_FRACTION = 0.5

SCALE_FLOOR = 1e-12

# Longest track span (last - first + 1 frames) that load_tracks accepts:
# about 9.7 h at 30 fps. track_arrays holds a track densely over its span,
# which at this bound is at most 0.43 GB of float64 at 17 joints.
MAX_TRACK_SPAN = 2**20

# Snippets per block in the batched front end (normalization, featurization):
# bounds each block's temporaries at BLOCK_ROWS rows whatever the input size.
BLOCK_ROWS = 256


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
        columns = (self.video_ids.tolist(), self.person_ids.tolist(), self.starts.tolist())
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


def load_tracks(path: str | Path, joints: int) -> dict[str, list[Track]]:
    """Read a track file into Tracks grouped by video_id.

    Every record must hold `joints` x,y,c triples. Tracks come back sorted by
    (video_id, person_id) with frames sorted by frame_index. A malformed line
    is a TrackParseError, and a repeated record a DuplicateRecordError, whose
    message starts with `<path>, line N: `. A track whose span would exceed
    MAX_TRACK_SPAN frames is a TrackParseError naming the line that stretches
    it, before anything is allocated for the span.
    """
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

    videos: dict[str, list[Track]] = {}
    for (video_id, person_id) in sorted(records):
        frames = records[(video_id, person_id)]
        ordered = [frames[i] for i in sorted(frames)]
        videos.setdefault(video_id, []).append(Track(video_id, person_id, ordered))
    return videos


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


def track_arrays(track: Track) -> tuple[np.ndarray, np.ndarray]:
    """A track's (L, 2, J) coordinates and (L, J) confidences over its L frames.

    Frames missing from the track are zero-filled, so row t holds frame
    `first + t` and window timestamps stay aligned with the source video.
    """
    first = track.frames[0].frame_index
    n_joints = track.frames[0].xy.shape[0]
    rows = np.array([f.frame_index for f in track.frames]) - first
    coords = np.zeros((track.length, 2, n_joints), dtype=np.float64)
    conf = np.zeros((track.length, n_joints), dtype=np.float64)
    coords[rows] = np.stack([f.xy for f in track.frames]).transpose(0, 2, 1)
    conf[rows] = np.stack([f.confidence for f in track.frames])
    return coords, conf


def kept_offsets(coords: np.ndarray, window_length: int, stride: int) -> tuple[np.ndarray, int]:
    """Offsets of a track's kept windows, and how many were zero-dominated.

    `coords` is a track's (L, 2, J) array. A window whose zero-frame fraction
    exceeds MAX_ZERO_FRAME_FRACTION is dropped.
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
