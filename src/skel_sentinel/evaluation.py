"""Frame-level evaluation: micro-average AUC-ROC and benchmark orchestration.

Label files are UTF-8 lines `video_id<TAB>frame_index<TAB>label`; reports are
key-value lines. The micro-average concatenates every labeled frame across
videos before ranking, with tied scores credited 0.5 per positive-negative
pair (Mann-Whitney convention).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import SchemaError, StageError, UndefinedMetricError
from .featurize import load_embeddings
from .flow import load_flow
from .pipeline import (
    build_scene_indices,
    extract_snippets,
    featurize_snippets,
    score_scenes,
    snippet_features_from_store,
)
from .pose_io import load_tracks
from .scoring import (
    build_score_series,
    smooth_scores,
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


def read_labels(path: str | Path) -> dict[str, np.ndarray]:
    per_video: dict[str, dict[int, int]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SchemaError(f"{path}, line {lineno}: expected 3 fields")
        video_id, frame_text, label_text = parts
        label = int(label_text)
        if label not in (0, 1):
            raise SchemaError(f"{path}, line {lineno}: label must be 0 or 1")
        per_video.setdefault(video_id, {})[int(frame_text)] = label
    labels = {}
    for video_id, frames in per_video.items():
        length = max(frames) + 1
        if len(frames) != length:
            raise SchemaError(f"{path}: {video_id} labels have gaps")
        arr = np.zeros(length, dtype=np.int8)
        for frame, label in frames.items():
            arr[frame] = label
        labels[video_id] = arr
    return labels


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


@dataclass
class BenchmarkReport:
    micro: float
    micro_typicality: float
    micro_uniqueness: float
    per_video_auc: dict[str, float]
    videos: int
    frames: int
    wall_seconds: float
    frame_scores: dict[str, np.ndarray] = field(repr=False)
    frame_scores_typicality: dict[str, np.ndarray] = field(repr=False)
    frame_scores_uniqueness: dict[str, np.ndarray] = field(repr=False)


def _micro_for(labels: dict[str, np.ndarray], scores: dict[str, np.ndarray]) -> float:
    videos = [
        LabeledVideo(vid, labels[vid], scores[vid])
        for vid in sorted(labels)
        if vid in scores
    ]
    return micro_auc(videos)


def run_benchmark(
    tracks_path: str | Path,
    features_source: str,
    model_path: str | Path,
    labels_path: str | Path,
    out_dir: str | Path,
    cfg: RunConfig,
    threads: int = 1,
) -> BenchmarkReport:
    """End-to-end inference over labeled videos: tracks in, report out.

    `features_source` is either "kinematic" or the path of an embedding file
    covering every snippet in the tracks. Writes scores.tsv, details.tsv, and
    report.txt into out_dir and returns the in-memory report.
    """
    started = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def stage(name: str, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raise StageError(name, exc)

    model = stage("load-model", load_flow, model_path)
    labels = stage("load-labels", read_labels, labels_path)
    videos = stage("load-tracks", load_tracks, tracks_path, cfg.joints)
    snippets = stage(
        "window", extract_snippets, videos, cfg.window_length, cfg.stride
    )
    if features_source == "kinematic":
        refs, matrix, meta = stage(
            "featurize", featurize_snippets, snippets, cfg.feature_dim, cfg.seed
        )
    else:
        store = stage("load-features", load_embeddings, features_source)
        refs, matrix, meta = stage("featurize", snippet_features_from_store, snippets, store)
    indices = stage("index", build_scene_indices, refs, matrix, meta)
    scored = stage("score", score_scenes, model, indices, cfg, threads)

    frame_scores: dict[str, np.ndarray] = {}
    frames_typ: dict[str, np.ndarray] = {}
    frames_unq: dict[str, np.ndarray] = {}
    all_series = {}
    for video_id, vs in scored.items():
        if video_id in labels:
            video_length = len(labels[video_id])
        else:
            video_length = max(t for t in vs.start_times) + cfg.window_length
        zeros = np.zeros_like(vs.typicality)

        def series_for(st, su):
            return build_score_series(
                video_id, vs.refs, vs.person_ids, vs.start_times,
                st, su, video_length, cfg.window_length, cfg.epsilon,
            )

        def frames_for(st, su):
            return smooth_scores(series_for(st, su).frame_scores, cfg.smoothing_window)

        series = series_for(vs.typicality, vs.uniqueness)
        all_series[video_id] = series
        frame_scores[video_id] = smooth_scores(series.frame_scores, cfg.smoothing_window)
        frames_typ[video_id] = frames_for(vs.typicality, zeros)
        frames_unq[video_id] = frames_for(zeros, vs.uniqueness)

    micro = stage("evaluate", _micro_for, labels, frame_scores)
    micro_typ = _micro_for(labels, frames_typ)
    micro_unq = _micro_for(labels, frames_unq)

    per_video = {}
    for video_id in sorted(labels):
        if video_id not in frame_scores:
            continue
        video = LabeledVideo(video_id, labels[video_id], frame_scores[video_id])
        try:
            per_video[video_id] = micro_auc([video])
        except UndefinedMetricError:
            pass  # single-class video; no per-video AUC

    n_frames = sum(len(labels[v]) for v in labels if v in frame_scores)
    wall = time.perf_counter() - started

    write_frame_scores(frame_scores, out_dir / "scores.tsv")
    write_snippet_details(all_series, out_dir / "details.tsv")
    entries: list[tuple[str, object]] = [
        ("micro_auc", micro),
        ("micro_auc_typicality", micro_typ),
        ("micro_auc_uniqueness", micro_unq),
        ("videos", len(frame_scores)),
        ("frames", n_frames),
        ("wall_seconds", wall),
    ]
    entries.extend((f"video_auc.{vid}", auc) for vid, auc in sorted(per_video.items()))
    write_report(entries, out_dir / "report.txt")

    return BenchmarkReport(
        micro=micro,
        micro_typicality=micro_typ,
        micro_uniqueness=micro_unq,
        per_video_auc=per_video,
        videos=len(frame_scores),
        frames=n_frames,
        wall_seconds=wall,
        frame_scores=frame_scores,
        frame_scores_typicality=frames_typ,
        frame_scores_uniqueness=frames_unq,
    )
