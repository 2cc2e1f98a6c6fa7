"""Glue between stages: tracks -> snippets -> features -> per-video scores.

`snippet_features` is the one front end from a track file to snippet
features, for both the `featurize` and `score` subcommands. `score_tracks` is
the one path from a track file to frame scores: both the `score` subcommand
and `evaluation.run_benchmark` call it, so they share every option and write
the same bytes. Stage functions are looked up as module attributes at call
time, so a tracer can wrap them by name.

The front end streams. `pose_io.read_tracks` reads the track file as
columns (the `load-tracks` stage). A `SnippetStream` scatters them into one
zero-filled array of every track's frames stacked along time (a file with no
missing frame is already that array) and finds the windows that are not
zero-dominated (the `window` stage). Featurizing reads the stream: it cuts
`pose_io.BLOCK_ROWS` windows at a time, normalizes them, drops the degenerate
rows and passes the rest to `featurize.kinematic_matrix`, which regroups them
into GEMM blocks of exactly BLOCK_ROWS rows (so the features do not depend on
where rows were dropped) and projects each into its rows of one matrix, one
`featurize.PROJECTION_CHUNK`-column slab of descriptors at a time.
Only the (N, D) features and their id columns (`SnippetMeta`) outlive a
block: the front end never holds the (N, 2, J, T) joints tensor that
`extract_snippets` builds as a `pose_io.SnippetTable` (the CLI calls neither
it nor `featurize_snippets`), yet `featurize_snippets` of that table gives
the same bits. `score --features` reads the stream only for its drops.

Every front end rounds the features to the float32 values a `.skem` file
stores (`_checked_features`), so `score` and `score --features` see the same
bits. The normalized joints and raw descriptors are the bits of the frozen
one-snippet-at-a-time reference in `tests/test_snippet_table.py`;
`kinematic_matrix`'s output lies within the forward-error bound it states.
`build_scene_indices` cuts each scene as a slice of rows already in video_id
order. A `scoring.ScoreSeries` is the one record of a scored video:
`score_scene` gives a scene's columns, typicality, uniqueness and isolated
refs, and `fuse_video` fuses them into the series `score_tracks` returns,
whose frame scores are the smoothed frames `scores.tsv` holds.

Each stage runs through `errors.stage`, which names it in any error. The CLI
runs every command, `train` included, at one OpenBLAS thread (`blas`).
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import RunConfig
from .context import SceneIndex, video_uniqueness_scores
from .errors import ContractError, NonFiniteError, SchemaError, StageError, stage
from .featurize import kinematic_matrix, load_embeddings
from .flow import FlowModel, load_flow, typicality_score
from .pose_io import (
    BLOCK_ROWS,
    SCALE_FLOOR,
    SnippetTable,
    Track,
    TrackColumns,
    kept_offsets,
    normalize_block,
    read_tracks,
    snippet_refs,
    track_columns,
)
from .scoring import ScoreSeries, build_score_series, smooth_scores

logger = logging.getLogger(__name__)

# Most frames a video's score series may span (max(start) + window_length):
# about 39 h at 30 fps, four times pose_io.MAX_TRACK_SPAN. Each float64 array
# over the series (the frame scores, their smoothing's running sums) is 32 MiB
# at this bound; a video whose windows start further out is refused before
# its series is allocated.
MAX_VIDEO_FRAMES = 2**22


@dataclass(frozen=True)
class SnippetMeta:
    """Row metadata of a featurized table: its id columns, without the joints."""

    video_ids: np.ndarray  # (N,) str
    person_ids: np.ndarray  # (N,) int64
    starts: np.ndarray  # (N,) int64

    @property
    def refs(self) -> list[str]:
        return snippet_refs(self.video_ids, self.person_ids, self.starts)


class SnippetStream:
    """Every track's windows, normalized BLOCK_ROWS windows at a time.

    Building the stream from `TrackColumns` stacks every track along time
    (holding the columns' own value array when no track misses a frame) and
    finds the windows that are not zero-dominated, in video_id order, then
    track order, then start time; nothing is normalized yet. Iterating normalizes one block of
    windows at a time and yields the block's non-degenerate rows, as a
    (B, 2, J, T) array with B >= 1; a block with none is skipped. Once the
    stream has been read, `kept()` gives the kept rows' id columns and the
    degenerate count, and logs both drop counts.
    """

    def __init__(self, columns: TrackColumns, window_length: int, stride: int):
        frames, values = columns.frame_indices, columns.values
        bounds = columns.track_starts()
        first_rows = bounds[:-1]
        first_frames = frames[first_rows]
        spans = frames[bounds[1:] - 1] - first_frames + 1
        ends = np.cumsum(spans)
        # Row `ends[t] - spans[t] + i` of the stack holds frame
        # `first_frames[t] + i` of track t; the frames missing from a track
        # stay zero, so window timestamps stay aligned with the source video.
        # A file with no missing frame is its own stack.
        if not len(frames) or ends[-1] == len(frames):
            self._poses = values
        else:
            track = np.repeat(np.arange(len(first_rows)), np.diff(bounds))
            self._poses = np.zeros((ends[-1], *values.shape[1:]), dtype=np.float64)
            self._poses[(ends - spans - first_frames)[track] + frames] = values
        rows, starts, counts = [], [], []
        self.dropped_zero = 0
        for end, span, first_frame in zip(ends.tolist(), spans.tolist(), first_frames.tolist()):
            kept, dropped = kept_offsets(
                self._poses[end - span : end, :, :2], window_length, stride
            )
            self.dropped_zero += dropped
            # A kept window never crosses the end of its track, so each window
            # is one slice of the stack, from its first row on.
            rows.append(end - span + kept)
            starts.append(first_frame + kept)
            counts.append(len(kept))
        self._rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        video_ids = np.array(columns.video_ids, dtype=object)
        self._windows = SnippetMeta(
            np.repeat(video_ids[columns.video_codes[first_rows]], counts),
            np.repeat(columns.person_ids[first_rows], counts),
            np.concatenate(starts) if starts else np.empty(0, dtype=np.int64),
        )
        self._window_length = window_length
        self._keep: list[np.ndarray] = []  # each block's non-degenerate-row mask

    def __len__(self) -> int:
        """Windows that are not zero-dominated: an upper bound on the kept rows."""
        return len(self._rows)

    @property
    def n_joints(self) -> int:
        return self._poses.shape[1]

    def __iter__(self) -> Iterator[np.ndarray]:
        self._keep = []
        if len(self._rows):
            # (windows, 2, J, T) and (windows, J, T) views of the stack
            coord_windows = sliding_window_view(
                self._poses[:, :, :2], self._window_length, axis=0
            ).transpose(0, 2, 1, 3)
            conf_windows = sliding_window_view(self._poses[:, :, 2], self._window_length, axis=0)
            for b0 in range(0, len(self._rows), BLOCK_ROWS):
                block = self._rows[b0 : b0 + BLOCK_ROWS]
                normalized, n_valid, scale = normalize_block(
                    np.ascontiguousarray(coord_windows[block]), conf_windows[block]
                )
                keep = (n_valid > 0) & ~(scale < SCALE_FLOOR)
                self._keep.append(keep)
                if keep.all():
                    yield normalized
                elif keep.any():
                    yield normalized[keep]

    def kept(self) -> tuple[SnippetMeta, int]:
        """The kept rows' id columns and the number of degenerate windows."""
        keep = np.concatenate(self._keep) if self._keep else np.ones(0, dtype=bool)
        windows = self._windows
        meta = SnippetMeta(windows.video_ids[keep], windows.person_ids[keep], windows.starts[keep])
        dropped_degenerate = len(keep) - int(keep.sum())
        logger.info(
            "kept %d snippet(s); dropped %d zero-dominated and %d degenerate window(s)",
            len(meta.starts), self.dropped_zero, dropped_degenerate,
        )
        return meta, dropped_degenerate


def extract_snippets(
    videos: dict[str, list[Track]], window_length: int, stride: int
) -> SnippetTable:
    """Window and normalize every track into one SnippetTable.

    The table holds the rows of a `SnippetStream` of the tracks' columns and
    both drop counts, and the counts are logged.
    """
    stream = SnippetStream(track_columns(videos), window_length, stride)
    joints = np.empty((len(stream), 2, stream.n_joints, window_length), dtype=np.float64)
    n = 0
    for block in stream:
        joints[n : n + len(block)] = block
        n += len(block)
    meta, dropped_degenerate = stream.kept()
    return SnippetTable(
        meta.video_ids, meta.person_ids, meta.starts, joints[:n],
        stream.dropped_zero, dropped_degenerate,
    )


def featurize_snippets(
    table: SnippetTable, dim: int, seed: int
) -> tuple[list[str], np.ndarray, SnippetMeta]:
    """Kinematic features of every table row, with the rows' refs and metadata."""
    meta = SnippetMeta(table.video_ids, table.person_ids, table.starts)
    return _checked_features(kinematic_matrix(table.joints, dim, seed), meta)


def _checked_features(
    matrix: np.ndarray, meta: SnippetMeta
) -> tuple[list[str], np.ndarray, SnippetMeta]:
    """The rows' refs, features and metadata; a non-finite row is an error naming its ref.
    The features are rounded in place to the float32 values a `.skem` file stores,
    BLOCK_ROWS rows at a time, so no float32 copy of the whole matrix is made."""
    refs = meta.refs
    for b0 in range(0, len(matrix), BLOCK_ROWS):
        matrix[b0 : b0 + BLOCK_ROWS] = matrix[b0 : b0 + BLOCK_ROWS].astype(np.float32)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"feature for {refs[int(np.argmin(finite))]} has non-finite values")
    return refs, matrix, meta


def build_scene_indices(
    refs: list[str], matrix: np.ndarray, meta: SnippetMeta
) -> dict[str, SceneIndex]:
    """One SceneIndex per video, keyed and ordered by video_id.

    Each scene is a slice of the caller's arrays, so rows keep their order and
    no feature is copied. The rows must be in video_id order, as every front
    end yields them: a row out of it is a ContractError naming its ref."""
    video_ids = meta.video_ids
    backward = video_ids[1:] < video_ids[:-1]
    if backward.any():
        raise ContractError(f"{refs[int(np.argmax(backward)) + 1]} is out of video_id order")
    cuts = (np.flatnonzero(video_ids[1:] != video_ids[:-1]) + 1).tolist()
    bounds = zip([0, *cuts], [*cuts, len(video_ids)]) if len(video_ids) else ()
    persons, starts = meta.person_ids, meta.starts
    return {
        video_ids[a]: SceneIndex(video_ids[a], refs[a:b], persons[a:b], starts[a:b], matrix[a:b])
        for a, b in bounds
    }


def score_scene(model: FlowModel, index: SceneIndex, cfg: RunConfig) -> ScoreSeries:
    """The unfused series of one scene: its columns, both raw score families
    and its isolated refs."""
    st = typicality_score(model, index.features)
    su, isolated = video_uniqueness_scores(
        index, cfg.k_neighbors, cfg.alpha, cfg.window_length
    )
    return ScoreSeries(
        index.video_id, index.refs, index.person_ids, index.times, st, su, isolated=isolated
    )


def score_scenes(
    model: FlowModel,
    indices: dict[str, SceneIndex],
    cfg: RunConfig,
    threads: int = 1,
) -> dict[str, ScoreSeries]:
    """Score each video independently; results keyed and ordered by video_id.

    `threads` is unused: perfbench/traced.py (line 176) still passes it.
    """
    return {vid: score_scene(model, indices[vid], cfg) for vid in sorted(indices)}


def fuse_video(series: ScoreSeries, cfg: RunConfig) -> ScoreSeries:
    """`series` fused: its holistic scores, and its frame scores smoothed as
    `scores.tsv` holds them.

    Only the raw columns and `isolated` of `series` are read, so a series
    with one family replaced is fused afresh, as `evaluation.run_benchmark`'s
    ablations do.

    The series ends at max(start) + T, so no window is clipped; a tail no
    window covers is left to `evaluation.evaluate` to pad. A series longer
    than MAX_VIDEO_FRAMES is a SchemaError.
    """
    length = int(series.start_times.max()) + cfg.window_length
    if length > MAX_VIDEO_FRAMES:
        raise SchemaError(
            f"video {series.video_id!r} would span {length} frames, more than {MAX_VIDEO_FRAMES}"
        )
    fused = build_score_series(
        series.video_id, series.refs, series.person_ids, series.start_times, series.typicality,
        series.uniqueness, length, cfg.window_length, cfg.epsilon,
    )
    frames = smooth_scores(fused.frame_scores, cfg.smoothing_window)
    return replace(fused, frame_scores=frames, isolated=series.isolated)


def snippet_features(
    cfg: RunConfig, tracks_path: str | Path, features_path: str | Path | None = None
) -> tuple[list[str], np.ndarray, SnippetMeta]:
    """Refs, features and metadata of every snippet of a track file.

    Features are computed from the tracks, one block of windows at a time, or
    gathered in the tracks' snippet order from the `.skem` file at
    `features_path` when one is given. A track file that yields no snippet
    fails the `window` stage.
    """
    columns = stage("load-tracks", read_tracks, tracks_path, cfg.joints)
    stream = stage("window", SnippetStream, columns, cfg.window_length, cfg.stride)
    del columns  # the stream holds the poses it needs
    if features_path is None:
        matrix = stage("featurize", kinematic_matrix, stream, cfg.feature_dim, cfg.seed)
    else:
        for _ in stream:  # only which windows are degenerate is needed
            pass
    meta, dropped_degenerate = stream.kept()
    if not len(meta.starts):
        raise StageError("window", SchemaError(
            f"{tracks_path}: no snippet of window_length = {cfg.window_length}; dropped "
            f"{stream.dropped_zero} zero-dominated and {dropped_degenerate} "
            "degenerate window(s)"
        ))
    if features_path is None:
        return stage("featurize", _checked_features, matrix, meta)
    store = stage("load-features", load_embeddings, features_path)
    refs = meta.refs
    return refs, stage("featurize", store.rows, refs), meta


def score_tracks(
    cfg: RunConfig,
    tracks_path: str | Path,
    model_path: str | Path,
    features_path: str | Path | None = None,
) -> dict[str, ScoreSeries]:
    """Tracks in, each video's fused series out (`fuse_video`), keyed by video_id.

    Features come from `snippet_features`. Each stage's failure is raised as
    a StageError naming it.
    """
    model = stage("load-model", load_flow, model_path)
    refs, matrix, meta = snippet_features(cfg, tracks_path, features_path)
    indices = stage("index", build_scene_indices, refs, matrix, meta)
    scored = stage("score", score_scenes, model, indices, cfg)
    return stage("series", lambda: {vid: fuse_video(s, cfg) for vid, s in scored.items()})
