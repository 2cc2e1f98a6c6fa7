"""Glue between stages: tracks -> snippets -> features -> per-video scores.

`score_tracks` is the one path from a track file to frame scores: both the
`score` subcommand and `evaluation.run_benchmark` call it, so they share every
option and write the same bytes. Stage functions are looked up as module
attributes at call time, so a tracer can wrap them by name.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .context import SceneIndex, video_uniqueness_scores
from .errors import (
    DegenerateSnippetError,
    MissingEmbeddingError,
    SchemaError,
    SentinelError,
    StageError,
)
from .featurize import FeatureStore, kinematic_features, load_embeddings
from .flow import FlowModel, load_flow, typicality_score
from .pose_io import NormalizedSnippet, Track, load_tracks, normalize_snippet, window_snippets
from .scoring import ScoreSeries, build_score_series, smooth_scores

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SnippetMeta:
    video_id: str
    person_id: int
    start_time: int


def extract_snippets(
    videos: dict[str, list[Track]], window_length: int, stride: int
) -> list[NormalizedSnippet]:
    """Window and normalize every track; degenerate snippets are dropped."""
    out: list[NormalizedSnippet] = []
    dropped = 0
    for video_id in sorted(videos):
        for track in videos[video_id]:
            for snippet in window_snippets(track, window_length, stride):
                try:
                    out.append(normalize_snippet(snippet))
                except DegenerateSnippetError:
                    dropped += 1
    if dropped:
        logger.info("dropped %d degenerate snippet(s)", dropped)
    return out


def featurize_snippets(
    snippets: list[NormalizedSnippet], dim: int, seed: int
) -> tuple[list[str], np.ndarray, dict[str, SnippetMeta]]:
    refs: list[str] = []
    rows: list[np.ndarray] = []
    meta: dict[str, SnippetMeta] = {}
    for snip in snippets:
        vec = kinematic_features(snip, dim, seed)
        refs.append(vec.snippet_ref)
        rows.append(vec.values)
        src = snip.source
        meta[vec.snippet_ref] = SnippetMeta(src.video_id, src.person_id, src.start_time)
    matrix = np.vstack(rows) if rows else np.empty((0, dim))
    return refs, matrix, meta


def snippet_features_from_store(
    snippets: list[NormalizedSnippet], store: FeatureStore
) -> tuple[list[str], np.ndarray, dict[str, SnippetMeta]]:
    """Align precomputed embeddings with the snippets derived from the tracks."""
    refs: list[str] = []
    rows: list[np.ndarray] = []
    meta: dict[str, SnippetMeta] = {}
    for snip in snippets:
        ref = snip.ref
        if ref not in store:
            raise MissingEmbeddingError(f"feature store has no row for {ref!r}")
        refs.append(ref)
        rows.append(store.lookup(ref).astype(np.float64))
        src = snip.source
        meta[ref] = SnippetMeta(src.video_id, src.person_id, src.start_time)
    matrix = np.vstack(rows) if rows else np.empty((0, store.dimension))
    return refs, matrix, meta


def build_scene_indices(
    refs: list[str], matrix: np.ndarray, meta: dict[str, SnippetMeta]
) -> dict[str, SceneIndex]:
    grouped: dict[str, list[int]] = {}
    for i, ref in enumerate(refs):
        grouped.setdefault(meta[ref].video_id, []).append(i)
    indices = {}
    for video_id in sorted(grouped):
        rows = grouped[video_id]
        indices[video_id] = SceneIndex(
            video_id=video_id,
            refs=[refs[i] for i in rows],
            person_ids=np.array([meta[refs[i]].person_id for i in rows]),
            times=np.array([meta[refs[i]].start_time for i in rows]),
            features=matrix[rows],
        )
    return indices


@dataclass(frozen=True)
class VideoScores:
    video_id: str
    refs: list[str]
    person_ids: list[int]
    start_times: list[int]
    typicality: np.ndarray
    uniqueness: np.ndarray
    isolated: set[str]


def score_scene(
    model: FlowModel, index: SceneIndex, cfg: RunConfig
) -> VideoScores:
    st = typicality_score(model, index.features)
    su_map, isolated = video_uniqueness_scores(
        index, cfg.k_neighbors, cfg.alpha, cfg.window_length
    )
    su = np.array([su_map[ref] for ref in index.refs])
    return VideoScores(
        video_id=index.video_id,
        refs=list(index.refs),
        person_ids=index.person_ids.tolist(),
        start_times=index.times.tolist(),
        typicality=np.asarray(st, dtype=np.float64),
        uniqueness=su,
        isolated=isolated,
    )


def score_scenes(
    model: FlowModel,
    indices: dict[str, SceneIndex],
    cfg: RunConfig,
    threads: int = 1,
) -> dict[str, VideoScores]:
    """Score each video independently; results keyed and ordered by video_id."""
    ordered = sorted(indices)
    if threads <= 1 or len(ordered) <= 1:
        return {vid: score_scene(model, indices[vid], cfg) for vid in ordered}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda vid: score_scene(model, indices[vid], cfg), ordered))
    return {vid: res for vid, res in zip(ordered, results)}


def stage(name: str, fn, *args):
    """Run one stage; an error the CLI reports is re-raised as a StageError naming it."""
    try:
        return fn(*args)
    except (SentinelError, OSError, ValueError) as exc:
        raise StageError(name, exc) from exc


def fuse_video(
    vs: VideoScores,
    cfg: RunConfig,
    typicality: np.ndarray | None = None,
    uniqueness: np.ndarray | None = None,
) -> tuple[ScoreSeries, np.ndarray]:
    """Fused series and smoothed frame scores of one video.

    The series ends at max(start) + T; a tail no window covers is left to
    `evaluation.evaluate` to pad. Either score family can be replaced, for
    the single-family ablations.
    """
    series = build_score_series(
        vs.video_id, vs.refs, vs.person_ids, vs.start_times,
        vs.typicality if typicality is None else typicality,
        vs.uniqueness if uniqueness is None else uniqueness,
        max(vs.start_times) + cfg.window_length, cfg.window_length, cfg.epsilon,
    )
    return series, smooth_scores(series.frame_scores, cfg.smoothing_window)


@dataclass(frozen=True)
class ScoredRun:
    videos: dict[str, VideoScores]
    series: dict[str, ScoreSeries]
    frame_scores: dict[str, np.ndarray]


def score_tracks(
    cfg: RunConfig,
    tracks_path: str | Path,
    model_path: str | Path,
    features_path: str | Path | None = None,
) -> ScoredRun:
    """Tracks in, per-video series and frame scores out, keyed by video_id.

    Features come from `features_path` when one is given and are computed
    from the tracks otherwise; `features = file` without a path is a
    SchemaError. Each stage's failure is raised as a StageError naming it.
    """
    if cfg.features == "file" and features_path is None:
        raise SchemaError("config says features = file but no features path is given")
    model = stage("load-model", load_flow, model_path)
    videos = stage("load-tracks", load_tracks, tracks_path, cfg.joints)
    snippets = stage("window", extract_snippets, videos, cfg.window_length, cfg.stride)
    if features_path is None:
        refs, matrix, meta = stage(
            "featurize", featurize_snippets, snippets, cfg.feature_dim, cfg.seed
        )
    else:
        store = stage("load-features", load_embeddings, features_path)
        refs, matrix, meta = stage("featurize", snippet_features_from_store, snippets, store)
    indices = stage("index", build_scene_indices, refs, matrix, meta)
    scored = stage("score", score_scenes, model, indices, cfg, cfg.threads)
    fused = stage("series", lambda: {vid: fuse_video(vs, cfg) for vid, vs in scored.items()})
    return ScoredRun(
        videos=scored,
        series={vid: series for vid, (series, _) in fused.items()},
        frame_scores={vid: frames for vid, (_, frames) in fused.items()},
    )
