"""Glue between stages: tracks -> snippets -> features -> per-video scores.

`snippet_features` is the one front end from a track file to snippet
features, for both the `featurize` and `score` subcommands. `score_tracks` is
the one path from a track file to frame scores: both the `score` subcommand
and `evaluation.run_benchmark` call it, so they share every option and write
the same bytes. Stage functions are looked up as module attributes at call
time, so a tracer can wrap them by name.

The path is columnar from windows to frame scores. `extract_snippets` turns
all tracks into one `pose_io.SnippetTable` (N rows, joints as an (N, 2, J, T)
tensor), normalized in blocks of `pose_io.BLOCK_ROWS`, and
`featurize_snippets` projects it block by block. The normalized joints and
raw descriptors are the bits of the frozen one-snippet-at-a-time reference
in `tests/test_snippet_table.py`; the projected features lie within the
forward-error bound stated in `featurize.kinematic_matrix`, which also says
why the projection is summed in fixed K-chunks and not one GEMM. The
features come back with a `SnippetMeta`, the table's id columns without the
joints.
`build_scene_indices` sorts the rows by video once and cuts each scene as a
slice. Each scene's typicality and uniqueness are arrays in its row order
(`VideoScores`), and `scoring.build_score_series` fuses them into a
column-wise `scoring.ScoreSeries` and its frame scores.

Each stage runs through `errors.stage`, which names it in any error. The CLI
runs all of this at one OpenBLAS thread (`blas`).
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import RunConfig
from .context import SceneIndex, video_uniqueness_scores
from .errors import NonFiniteError, SchemaError, StageError, stage
from .featurize import kinematic_matrix, load_embeddings
from .flow import FlowModel, load_flow, typicality_score
from .pose_io import (
    BLOCK_ROWS,
    SCALE_FLOOR,
    SnippetTable,
    Track,
    kept_offsets,
    load_tracks,
    normalize_block,
    track_arrays,
)
from .scoring import ScoreSeries, build_score_series, smooth_scores

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SnippetMeta:
    """Row metadata of a featurized table: its id columns, without the joints."""

    video_ids: np.ndarray  # (N,) str
    person_ids: np.ndarray  # (N,) int64
    starts: np.ndarray  # (N,) int64


def extract_snippets(
    videos: dict[str, list[Track]], window_length: int, stride: int
) -> SnippetTable:
    """Window and normalize every track into one SnippetTable.

    Rows come in video_id order, then track order, then start time.
    Zero-dominated windows are never cut out. The rest are gathered and
    normalized BLOCK_ROWS at a time, and degenerate ones are dropped. The
    table keeps both drop counts, and both are logged.
    """
    coords, conf, offsets, owners = [], [], [], []
    dropped_zero = 0
    for video_id in sorted(videos):
        for track in videos[video_id]:
            track_coords, track_conf = track_arrays(track)
            kept, dropped = kept_offsets(track_coords, window_length, stride)
            dropped_zero += dropped
            coords.append(track_coords)
            conf.append(track_conf)
            offsets.append(kept)
            owners.append((video_id, track.person_id, track.frames[0].frame_index))

    counts = [len(kept) for kept in offsets]
    offsets = np.concatenate(offsets) if offsets else np.empty(0, dtype=np.int64)
    n_joints = coords[0].shape[2] if coords else 0
    joints = np.empty((len(offsets), 2, n_joints, window_length), dtype=np.float64)
    keep = np.ones(len(offsets), dtype=bool)
    if len(offsets):
        # Tracks are stacked along time. A kept window never crosses the end of
        # its track, so each window is one slice of the stacked arrays.
        track_rows = np.cumsum([0] + [len(c) for c in coords[:-1]])
        rows = np.repeat(track_rows, counts) + offsets
        coord_windows = sliding_window_view(np.concatenate(coords), window_length, axis=0)
        conf_windows = sliding_window_view(np.concatenate(conf), window_length, axis=0)
        for b0 in range(0, len(rows), BLOCK_ROWS):
            block = rows[b0 : b0 + BLOCK_ROWS]
            normalized, n_valid, scale = normalize_block(
                np.ascontiguousarray(coord_windows[block]), conf_windows[block]
            )
            joints[b0 : b0 + BLOCK_ROWS] = normalized
            keep[b0 : b0 + BLOCK_ROWS] = (n_valid > 0) & ~(scale < SCALE_FLOOR)

    video_ids, person_ids, firsts = zip(*owners) if owners else ((), (), ())
    table = SnippetTable(
        video_ids=np.repeat(np.array(video_ids, dtype=object), counts)[keep],
        person_ids=np.repeat(np.array(person_ids, dtype=np.int64), counts)[keep],
        starts=(np.repeat(np.array(firsts, dtype=np.int64), counts) + offsets)[keep],
        joints=joints if keep.all() else joints[keep],
        dropped_zero=dropped_zero,
        dropped_degenerate=int((~keep).sum()),
    )
    logger.info(
        "kept %d snippet(s); dropped %d zero-dominated and %d degenerate window(s)",
        len(table), table.dropped_zero, table.dropped_degenerate,
    )
    return table


def featurize_snippets(
    table: SnippetTable, dim: int, seed: int
) -> tuple[list[str], np.ndarray, SnippetMeta]:
    """Kinematic features of every table row, with the rows' refs and metadata."""
    refs = table.refs
    matrix = kinematic_matrix(table.joints, dim, seed)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"feature for {refs[int(np.argmin(finite))]} has non-finite values")
    return refs, matrix, SnippetMeta(table.video_ids, table.person_ids, table.starts)


def build_scene_indices(
    refs: list[str], matrix: np.ndarray, meta: SnippetMeta
) -> dict[str, SceneIndex]:
    """One SceneIndex per video, keyed and ordered by video_id.

    Rows are stably sorted by video once and each scene is a slice, so rows
    keep their order inside a scene.
    """
    order = np.argsort(meta.video_ids, kind="stable")
    video_ids, refs = meta.video_ids[order], np.array(refs, dtype=object)[order]
    persons, starts, features = meta.person_ids[order], meta.starts[order], matrix[order]
    names, firsts = np.unique(video_ids, return_index=True)
    ends = np.r_[firsts[1:], len(order)]
    return {
        name: SceneIndex(name, refs[a:b].tolist(), persons[a:b], starts[a:b], features[a:b])
        for name, a, b in zip(names.tolist(), firsts.tolist(), ends.tolist())
    }


@dataclass(frozen=True)
class VideoScores:
    """One scene's snippet columns and raw scores, in its index row order."""

    video_id: str
    refs: list[str]
    person_ids: np.ndarray
    start_times: np.ndarray
    typicality: np.ndarray
    uniqueness: np.ndarray
    isolated: set[str]


def score_scene(
    model: FlowModel, index: SceneIndex, cfg: RunConfig
) -> VideoScores:
    st = typicality_score(model, index.features)
    su, isolated = video_uniqueness_scores(
        index, cfg.k_neighbors, cfg.alpha, cfg.window_length
    )
    return VideoScores(
        video_id=index.video_id,
        refs=index.refs,
        person_ids=index.person_ids,
        start_times=index.times,
        typicality=st,
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


def fuse_video(vs: VideoScores, cfg: RunConfig) -> tuple[ScoreSeries, np.ndarray]:
    """Fused series and smoothed frame scores of one video.

    The series ends at max(start) + T; a tail no window covers is left to
    `evaluation.evaluate` to pad.
    """
    series = build_score_series(
        vs.video_id, vs.refs, vs.person_ids, vs.start_times, vs.typicality, vs.uniqueness,
        int(vs.start_times.max()) + cfg.window_length, cfg.window_length, cfg.epsilon,
    )
    return series, smooth_scores(series.frame_scores, cfg.smoothing_window)


def snippet_features(
    cfg: RunConfig, tracks_path: str | Path, features_path: str | Path | None = None
) -> tuple[list[str], np.ndarray, SnippetMeta]:
    """Refs, features and metadata of every snippet of a track file.

    Features are computed from the tracks, or gathered in the tracks' snippet
    order from the `.skem` file at `features_path` when one is given. A track
    file that yields no snippet fails the `window` stage.
    """
    videos = stage("load-tracks", load_tracks, tracks_path, cfg.joints)
    table = stage("window", extract_snippets, videos, cfg.window_length, cfg.stride)
    del videos  # the track objects are not needed once the joints are windowed
    if not len(table):
        raise StageError("window", SchemaError(
            f"{tracks_path}: no snippet of window_length = {cfg.window_length}; dropped "
            f"{table.dropped_zero} zero-dominated and {table.dropped_degenerate} "
            "degenerate window(s)"
        ))
    if features_path is None:
        return stage("featurize", featurize_snippets, table, cfg.feature_dim, cfg.seed)
    store = stage("load-features", load_embeddings, features_path)
    refs = table.refs
    meta = SnippetMeta(table.video_ids, table.person_ids, table.starts)
    return refs, stage("featurize", store.rows, refs), meta


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

    Features come from `snippet_features`. Each stage's failure is raised as
    a StageError naming it.
    """
    model = stage("load-model", load_flow, model_path)
    refs, matrix, meta = snippet_features(cfg, tracks_path, features_path)
    indices = stage("index", build_scene_indices, refs, matrix, meta)
    scored = stage("score", score_scenes, model, indices, cfg, cfg.threads)
    fused = stage("series", lambda: {vid: fuse_video(vs, cfg) for vid, vs in scored.items()})
    return ScoredRun(
        videos=scored,
        series={vid: series for vid, (series, _) in fused.items()},
        frame_scores={vid: frames for vid, (_, frames) in fused.items()},
    )
