"""Score fusion and frame-level aggregation.

Typicality and uniqueness are standardized per video (their raw scales are
not comparable across scenes) and summed into the holistic snippet score.
A family whose standard deviation is below `epsilon` contributes zero; every
caller passes `RunConfig.epsilon`, the one place its default lives.
Snippet scores spread over the frames their window covers; frames see the
maximum over persons, and frames nobody covers fall back to the video's
minimum snippet score.

A `ScoreSeries` is the one record of a scored video: its snippets as
columns (refs, person ids, start times and the three scores), its frame
scores and its isolated refs; unfused, it has no fused or frame scores. The
frames come from one scatter-max of every snippet over `start + arange(T)`:
the maximum over persons of each person's maximum over its covering
snippets is the maximum over all covering snippets, so no per-person pass is
needed. Ties keep their bits as well: equal floats have equal bits except
+0.0 and -0.0, and a fused score is never -0.0, because uniqueness distances
are never -0.0 and so neither is their z-score.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Set
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import read_lines
from .errors import (
    ContractError,
    DuplicateRecordError,
    NonFiniteError,
    SchemaError,
    SentinelError,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScoreSeries:
    """One video's snippet scores as columns, in scene row order, plus its
    frame scores and its isolated refs."""

    video_id: str
    refs: list[str]
    person_ids: np.ndarray  # (N,) int64
    start_times: np.ndarray  # (N,) int64
    typicality: np.ndarray  # (N,) S^t
    uniqueness: np.ndarray  # (N,) S^u
    holistic: np.ndarray = field(default_factory=lambda: np.empty(0))  # (N,) fused S
    frame_scores: np.ndarray = field(default_factory=lambda: np.empty(0))
    isolated: Set[str] = frozenset()


def standardize(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Z-score against the array's own mean/std; a family whose spread is
    below epsilon carries no signal and contributes zero instead."""
    values = np.asarray(values, dtype=np.float64)
    std = float(values.std())
    if std < epsilon:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def holistic_scores(
    typicality: np.ndarray, uniqueness: np.ndarray, epsilon: float
) -> np.ndarray:
    typicality = np.asarray(typicality, dtype=np.float64)
    uniqueness = np.asarray(uniqueness, dtype=np.float64)
    if typicality.shape != uniqueness.shape:
        raise ContractError(
            f"score families must align: {typicality.shape} vs {uniqueness.shape}"
        )
    if typicality.size == 0:
        raise ContractError("holistic fusion needs at least one snippet")
    return standardize(typicality, epsilon) + standardize(uniqueness, epsilon)


def frame_level_scores(
    series: ScoreSeries, video_length: int, window_length: int
) -> np.ndarray:
    """Per-frame scores for one video; length is exactly video_length."""
    if video_length < 1:
        raise SchemaError(f"video_length must be >= 1, got {video_length}")
    starts = np.asarray(series.start_times, dtype=np.int64)
    holistic = np.asarray(series.holistic, dtype=np.float64)
    clipped = int(((starts < 0) | (starts + window_length > video_length)).sum())
    if clipped:
        logger.warning(
            "%s: clipped %d snippet window(s) outside [0, %d)",
            series.video_id, clipped, video_length,
        )
    covered = starts[:, None] + np.arange(window_length)
    inside = (covered >= 0) & (covered < video_length)
    values = np.broadcast_to(holistic[:, None], covered.shape)
    frames = np.full(video_length, -np.inf)
    np.maximum.at(frames, covered[inside], values[inside])
    frames[~np.isfinite(frames)] = holistic.min() if holistic.size else 0.0
    return frames


def build_score_series(
    video_id: str,
    refs: list[str],
    person_ids: np.ndarray,
    start_times: np.ndarray,
    typicality: np.ndarray,
    uniqueness: np.ndarray,
    video_length: int,
    window_length: int,
    epsilon: float,
) -> ScoreSeries:
    series = ScoreSeries(
        video_id=video_id,
        refs=refs,
        person_ids=np.asarray(person_ids, dtype=np.int64),
        start_times=np.asarray(start_times, dtype=np.int64),
        typicality=np.asarray(typicality, dtype=np.float64),
        uniqueness=np.asarray(uniqueness, dtype=np.float64),
        holistic=holistic_scores(typicality, uniqueness, epsilon),
        frame_scores=np.empty(0),
    )
    frames = frame_level_scores(series, video_length, window_length)
    return replace(series, frame_scores=frames)


def smooth_scores(scores: np.ndarray, window: int) -> np.ndarray:
    """Optional centered moving average; window <= 1 is a no-op.

    Frame i becomes the mean of the frames i - window // 2 through
    i + (window - 1) // 2 that exist, so the output has one value per input
    frame, also for a window longer than the series.
    """
    scores = np.asarray(scores, dtype=np.float64)
    # A window of 2 * len - 1 already spans the whole series from every frame,
    # so a longer one gives the same bytes; clamped, it allocates no more.
    window = min(window, 2 * len(scores) - 1)
    if window <= 1:
        return scores
    kernel = np.ones(window)
    # The centered slice of the full convolution; np.convolve(mode="same")
    # gives the same values but returns max(len, window) of them.
    centered = slice((window - 1) // 2, (window - 1) // 2 + len(scores))
    sums = np.convolve(scores, kernel, mode="full")[centered]
    counts = np.convolve(np.ones_like(scores), kernel, mode="full")[centered]
    return sums / counts


def write_frame_scores(series_by_video: dict[str, np.ndarray], path: str | Path) -> None:
    """`video_id<TAB>frame_index<TAB>score` lines, scores at 6 decimals."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for video_id in sorted(series_by_video):
            for frame, score in enumerate(series_by_video[video_id]):
                fh.write(f"{video_id}\t{frame}\t{score:.6f}\n")


def read_frame_values(
    path: str | Path, name: str, parse: Callable[[str], float], dtype: type = np.float64
) -> dict[str, np.ndarray]:
    """Dense per-video arrays from `video_id<TAB>frame_index<TAB>value` lines.

    `parse` turns a value field into a number. It raises ValueError for text
    that is not one and a SentinelError for a value the format rejects; every
    error names the path and line. A repeated (video_id, frame_index) row is a
    DuplicateRecordError, and each video's frames must run from 0 without gaps:
    a gap is a SchemaError naming the line of the video's last frame.
    """
    per_video: dict[str, dict[int, float]] = {}
    last_line: dict[str, tuple[int, int]] = {}  # (frame, line) of each video's last frame
    for lineno, line in read_lines(path):
        if not line:
            continue
        where = f"{path}, line {lineno}"
        parts = line.split("\t")
        if len(parts) != 3:
            raise SchemaError(f"{where}: expected 3 fields")
        video_id, frame_text, value_text = parts
        try:
            frame = int(frame_text)
            if frame < 0:
                raise SchemaError(f"frame index must be >= 0, got {frame}")
            value = parse(value_text)
        except ValueError:
            raise SchemaError(
                f"{where}: bad frame index {frame_text!r} or {name} {value_text!r}"
            ) from None
        except SentinelError as exc:
            raise type(exc)(f"{where}: {exc}") from None
        frames = per_video.setdefault(video_id, {})
        if frame in frames:
            raise DuplicateRecordError(f"{where}: duplicate row for ({video_id}, {frame})")
        frames[frame] = value
        last_line[video_id] = max(last_line.get(video_id, (frame, lineno)), (frame, lineno))
    out = {}
    for video_id, frames in per_video.items():
        last, lineno = last_line[video_id]
        if len(frames) != last + 1:
            raise SchemaError(
                f"{path}, line {lineno}: {video_id} has gaps in its {name}s before frame {last}"
            )
        out[video_id] = np.array([frames[i] for i in range(len(frames))], dtype=dtype)
    return out


def _finite_score(text: str) -> float:
    score = float(text)
    if not math.isfinite(score):
        raise NonFiniteError(f"score {text!r} is not finite")
    return score


def read_frame_scores(path: str | Path) -> dict[str, np.ndarray]:
    return read_frame_values(path, "score", _finite_score)


def write_snippet_details(all_series: dict[str, ScoreSeries], path: str | Path) -> None:
    """Optional per-snippet detail: video, person, start, S^t, S^u, S."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for video_id in sorted(all_series):
            s = all_series[video_id]
            columns = (s.person_ids, s.start_times, s.typicality, s.uniqueness, s.holistic)
            for person, start, st, su, fused in zip(*(c.tolist() for c in columns)):
                fh.write(f"{video_id}\t{person}\t{start}\t{st:.6f}\t{su:.6f}\t{fused:.6f}\n")
