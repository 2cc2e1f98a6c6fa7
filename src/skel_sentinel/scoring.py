"""Score fusion and frame-level aggregation.

Typicality and uniqueness are standardized per video (their raw scales are
not comparable across scenes) and summed into the holistic snippet score.
Snippet scores spread over the frames their window covers; frames see the
maximum over persons, and frames nobody covers fall back to the video's
minimum snippet score.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, SchemaError

logger = logging.getLogger(__name__)

STD_EPSILON = 1e-8


@dataclass(frozen=True)
class SnippetScore:
    ref: str
    person_id: int
    start_time: int
    typicality: float
    uniqueness: float
    holistic: float


@dataclass(frozen=True)
class ScoreSeries:
    video_id: str
    snippets: list[SnippetScore]
    frame_scores: np.ndarray


def standardize(values: np.ndarray, epsilon: float = STD_EPSILON) -> np.ndarray:
    """Z-score against the array's own mean/std; a family whose spread is
    below epsilon carries no signal and contributes zero instead."""
    values = np.asarray(values, dtype=np.float64)
    std = float(values.std())
    if std < epsilon:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def holistic_scores(
    typicality: np.ndarray, uniqueness: np.ndarray, epsilon: float = STD_EPSILON
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
    frames = np.full(video_length, -np.inf)
    by_person: dict[int, np.ndarray] = {}
    clipped = 0
    for snip in series.snippets:
        start = snip.start_time
        end = start + window_length  # exclusive
        if end > video_length or start < 0:
            clipped += 1
            start = max(start, 0)
            end = min(end, video_length)
            if start >= end:
                continue
        person = by_person.get(snip.person_id)
        if person is None:
            person = by_person.setdefault(snip.person_id, np.full(video_length, -np.inf))
        np.maximum(person[start:end], snip.holistic, out=person[start:end])
    if clipped:
        logger.warning(
            "%s: clipped %d snippet window(s) outside [0, %d)",
            series.video_id, clipped, video_length,
        )
    for person in by_person.values():
        np.maximum(frames, person, out=frames)

    uncovered = ~np.isfinite(frames)
    if series.snippets:
        fill = min(s.holistic for s in series.snippets)
    else:
        fill = 0.0
    frames[uncovered] = fill
    return frames


def build_score_series(
    video_id: str,
    refs: list[str],
    person_ids: list[int],
    start_times: list[int],
    typicality: np.ndarray,
    uniqueness: np.ndarray,
    video_length: int,
    window_length: int,
    epsilon: float = STD_EPSILON,
) -> ScoreSeries:
    holistic = holistic_scores(typicality, uniqueness, epsilon)
    snippets = [
        SnippetScore(ref, person, start, float(st), float(su), float(s))
        for ref, person, start, st, su, s in zip(
            refs, person_ids, start_times, typicality, uniqueness, holistic
        )
    ]
    series = ScoreSeries(video_id=video_id, snippets=snippets, frame_scores=np.empty(0))
    frames = frame_level_scores(series, video_length, window_length)
    return ScoreSeries(video_id=video_id, snippets=snippets, frame_scores=frames)


def smooth_scores(scores: np.ndarray, window: int) -> np.ndarray:
    """Optional centered moving average; window <= 1 is a no-op.

    Frame i becomes the mean of the frames i - window // 2 through
    i + (window - 1) // 2 that exist, so the output has one value per input
    frame, also for a window longer than the series.
    """
    scores = np.asarray(scores, dtype=np.float64)
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


def read_frame_scores(path: str | Path) -> dict[str, np.ndarray]:
    per_video: dict[str, dict[int, float]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SchemaError(f"{path}, line {lineno}: expected 3 fields")
        video_id, frame_text, score_text = parts
        per_video.setdefault(video_id, {})[int(frame_text)] = float(score_text)
    out = {}
    for video_id, frames in per_video.items():
        length = max(frames) + 1
        if len(frames) != length:
            raise SchemaError(f"{path}: {video_id} has gaps in its frame scores")
        arr = np.empty(length)
        for frame, score in frames.items():
            arr[frame] = score
        out[video_id] = arr
    return out


def write_snippet_details(all_series: dict[str, ScoreSeries], path: str | Path) -> None:
    """Optional per-snippet detail: video, person, start, S^t, S^u, S."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for video_id in sorted(all_series):
            for snip in all_series[video_id].snippets:
                fh.write(
                    f"{video_id}\t{snip.person_id}\t{snip.start_time}\t"
                    f"{snip.typicality:.6f}\t{snip.uniqueness:.6f}\t{snip.holistic:.6f}\n"
                )
