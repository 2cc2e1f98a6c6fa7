"""Frame-level evaluation: micro-average AUC-ROC and benchmark orchestration.

Label files are UTF-8 lines `video_id<TAB>frame_index<TAB>label`; reports are
key-value lines. The micro-average concatenates every labeled frame across
videos before ranking, with tied scores credited 0.5 per positive-negative
pair (Mann-Whitney convention). `evaluate` is the one place that aligns frame
scores with labels; the `eval` subcommand and `run_benchmark` both use it,
and `run_benchmark` takes the CLI's options: a RunConfig and `score --features`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import SchemaError, UndefinedMetricError, stage
from .scoring import (
    read_frame_scores,
    read_frame_values,
    write_frame_scores,
    write_snippet_details,
)


@dataclass(frozen=True)
class LabeledVideo:
    video_id: str
    labels: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        if self.labels.shape != self.scores.shape:
            raise SchemaError(
                f"{self.video_id}: {len(self.labels)} labels vs {len(self.scores)} scores"
            )
        if not np.isin(self.labels, (0, 1)).all():
            raise SchemaError(f"{self.video_id}: labels must be 0 or 1")


def micro_auc(videos: list[LabeledVideo]) -> float:
    """AUC over all frames concatenated, via average-rank statistics."""
    labels = np.concatenate([v.labels for v in videos]) if videos else np.empty(0)
    scores = np.concatenate([v.scores for v in videos]) if videos else np.empty(0)
    n = labels.size
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative frame")

    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], n]
    # ranks are 1-based; a tie group spanning [s, e) gets the mean rank
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(group_rank, ends - starts)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _label(text: str) -> int:
    label = int(text)
    if label not in (0, 1):
        raise SchemaError("label must be 0 or 1")
    return label


def read_labels(path: str | Path) -> dict[str, np.ndarray]:
    return read_frame_values(path, "label", _label, np.int8)


def write_labels(labels: dict[str, np.ndarray], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for video_id in sorted(labels):
            for frame, label in enumerate(labels[video_id]):
                fh.write(f"{video_id}\t{frame}\t{int(label)}\n")


def write_report(entries: list[tuple[str, object]], path: str | Path) -> None:
    lines = []
    for key, value in entries:
        if isinstance(value, float):
            lines.append(f"{key} = {value:.6f}")
        else:
            lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Evaluation:
    micro: float
    per_video_auc: dict[str, float]
    videos: int
    frames: int

    def report_entries(
        self, wall_seconds: float, ablations: tuple[tuple[str, float], ...] = ()
    ) -> list[tuple[str, object]]:
        entries: list[tuple[str, object]] = [
            ("micro_auc", self.micro),
            *ablations,
            ("videos", self.videos),
            ("frames", self.frames),
            ("wall_seconds", wall_seconds),
        ]
        entries.extend(
            (f"video_auc.{vid}", auc) for vid, auc in sorted(self.per_video_auc.items())
        )
        return entries


def evaluate(labels: dict[str, np.ndarray], scores: dict[str, np.ndarray]) -> Evaluation:
    """Micro-AUC and per-video AUCs over every labeled video.

    A labeled video without scores is a SchemaError. Scores are cut to the
    label length; a tail no snippet window covers (score series end at the
    last window, max(start) + T) is padded with the video's minimum score,
    as uncovered frames are. Single-class videos get no per-video AUC.
    """
    videos = []
    per_video = {}
    for video_id in sorted(labels):
        if video_id not in scores:
            raise SchemaError(f"no scores for labeled video {video_id!r}")
        frame_scores = scores[video_id]
        length = len(labels[video_id])
        if len(frame_scores) < length:
            pad = np.full(length - len(frame_scores), frame_scores.min())
            frame_scores = np.concatenate([frame_scores, pad])
        video = LabeledVideo(video_id, labels[video_id], frame_scores[:length])
        videos.append(video)
        try:
            per_video[video_id] = micro_auc([video])
        except UndefinedMetricError:
            pass
    return Evaluation(
        micro=micro_auc(videos),
        per_video_auc=per_video,
        videos=len(videos),
        frames=sum(len(v.labels) for v in videos),
    )


@dataclass(frozen=True)
class BenchmarkReport(Evaluation):
    """`evaluate`'s result, with the single-family ablations and the run's frames."""

    micro_typicality: float
    micro_uniqueness: float
    wall_seconds: float
    frame_scores: dict[str, np.ndarray] = field(repr=False)
    frame_scores_typicality: dict[str, np.ndarray] = field(repr=False)
    frame_scores_uniqueness: dict[str, np.ndarray] = field(repr=False)


def run_benchmark(
    tracks_path: str | Path,
    model_path: str | Path,
    labels_path: str | Path,
    out_dir: str | Path,
    cfg: RunConfig,
    features_path: str | Path | None = None,
) -> BenchmarkReport:
    """`score` then `eval` in one call, plus single-family ablations.

    `features_path` is passed to `pipeline.score_tracks` as `score --features`
    passes it: None computes kinematic features from the tracks, and a `.skem`
    path supplies a stored feature for every snippet. Evaluation is
    `evaluate`, as in the CLI: score series end at max(start) + T, evaluation
    pads an uncovered tail with the video's minimum, and a labeled video
    without scores is a SchemaError. The typicality-only and uniqueness-only
    ablations fuse one family with the other set to zeros and go through the
    same two functions. Writes the CLI's scores.tsv and details.tsv plus
    report.txt into out_dir. The fused scores are evaluated as `eval` reads
    them back from scores.tsv, at its 6 decimals, so the report's micro-AUC
    is the CLI's; the ablations are evaluated in memory. Returns the report,
    whose frame scores are those read back, not padded to the labels.
    """
    # imported here, so that the `eval` command loads no scoring stage
    from .pipeline import fuse_video, score_tracks

    started = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    labels = stage("load-labels", read_labels, labels_path)
    series = score_tracks(cfg, tracks_path, model_path, features_path)
    write_frame_scores({vid: s.frame_scores for vid, s in series.items()}, out_dir / "scores.tsv")
    write_snippet_details(series, out_dir / "details.tsv")
    frame_scores = stage("load-scores", read_frame_scores, out_dir / "scores.tsv")

    def without(family: str) -> dict[str, np.ndarray]:
        """Every video's frames fused with `family` set to zeros."""
        return {
            vid: fuse_video(replace(s, **{family: np.zeros(len(s.refs))}), cfg).frame_scores
            for vid, s in series.items()
        }

    frames_typ, frames_unq = without("uniqueness"), without("typicality")
    result = stage("evaluate", evaluate, labels, frame_scores)
    micro_typ = evaluate(labels, frames_typ).micro
    micro_unq = evaluate(labels, frames_unq).micro
    wall = time.perf_counter() - started

    ablations = (("micro_auc_typicality", micro_typ), ("micro_auc_uniqueness", micro_unq))
    write_report(result.report_entries(wall, ablations), out_dir / "report.txt")
    return BenchmarkReport(
        **vars(result), micro_typicality=micro_typ, micro_uniqueness=micro_unq,
        wall_seconds=wall, frame_scores=frame_scores,
        frame_scores_typicality=frames_typ, frame_scores_uniqueness=frames_unq,
    )
