"""The columnar snippet front end against a frozen per-snippet reference.

`reference_front_end` is the per-snippet path the table replaced (window each
track, normalize each window, featurize each snippet), kept here unchanged.
The table's refs, drop counts and raw descriptors are checked against it bit
for bit. `featurize.kinematic_matrix` projects them by a differently ordered
sum (chunked GEMMs, not one vector-matrix product per row), so its output is
checked against the forward error bound it states: two K-term sums of the
same products differ by at most 2 gamma_K * (|raw| @ |P|). The front end
returns that output rounded to float32, bit for bit.

The streamed front end (`pipeline.snippet_features`) is checked against the
table (`featurize_snippets(extract_snippets(...))`) and against the `.skem`
file of its own features bit for bit, and for the memory it holds.
"""

import logging
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skel_sentinel import featurize, pipeline
from skel_sentinel.cli import command_dispatch
from skel_sentinel.config import RunConfig
from skel_sentinel.errors import ContractError, StageError
from skel_sentinel.featurize import (
    _projection,
    descriptors,
    kinematic_matrix,
    load_embeddings,
    write_embeddings,
)
from skel_sentinel.pipeline import (
    SnippetMeta,
    build_scene_indices,
    extract_snippets,
    featurize_snippets,
    snippet_features,
)
from skel_sentinel.pose_io import (
    BLOCK_ROWS,
    MAX_ZERO_FRAME_FRACTION,
    SCALE_FLOOR,
    PoseFrame,
    Track,
    load_tracks,
    make_snippet_ref,
    write_tracks,
)
from skel_sentinel.synth import make_benchmark


def reference_front_end(videos, window_length, stride, dim, seed):
    """refs, raw descriptors, features, zero-dominated and degenerate drop
    counts, one snippet at a time."""
    refs, raws, rows = [], [], []
    dropped_zero = dropped_degenerate = 0
    for video_id in sorted(videos):
        for track in videos[video_id]:
            first = track.frames[0].frame_index
            length = track.length
            n_joints = track.frames[0].xy.shape[0]
            coords = np.zeros((2, n_joints, length), dtype=np.float64)
            conf = np.zeros((n_joints, length), dtype=np.float64)
            for frame in track.frames:
                t = frame.frame_index - first
                coords[0, :, t] = frame.xy[:, 0]
                coords[1, :, t] = frame.xy[:, 1]
                conf[:, t] = frame.confidence
            zero_frame = ~np.any(coords != 0.0, axis=(0, 1))
            for offset in range(0, length - window_length + 1, stride):
                window = coords[:, :, offset : offset + window_length].copy()
                zeros = zero_frame[offset : offset + window_length].sum()
                if zeros / window_length > MAX_ZERO_FRAME_FRACTION:
                    dropped_zero += 1
                    continue
                window_conf = conf[:, offset : offset + window_length].copy()
                valid = (window_conf > 0) | np.any(window != 0.0, axis=0)
                if not valid.any():
                    dropped_degenerate += 1
                    continue
                mask = valid[None, :, :]
                n_valid = valid.sum()
                centroid = window.sum(axis=(1, 2), where=mask) / n_valid
                centered = np.where(mask, window - centroid[:, None, None], 0.0)
                scale = math.sqrt(float((centered * centered).sum()) / (2 * n_valid))
                if scale < SCALE_FLOOR:
                    dropped_degenerate += 1
                    continue
                joints = centered / scale
                refs.append(make_snippet_ref(video_id, track.person_id, first + offset))
                raws.append(reference_descriptor(joints))
                rows.append(raws[-1] @ reference_projection(joints, dim, seed))
    raw = np.vstack(raws) if raws else np.empty((0, 0))
    matrix = np.vstack(rows) if rows else np.empty((0, dim))
    return refs, raw, matrix, dropped_zero, dropped_degenerate


def reference_descriptor(joints):
    _, n_joints, _ = joints.shape
    ia, ib = np.triu_indices(n_joints, k=1)
    deltas = joints[:, ia, :] - joints[:, ib, :]
    return np.concatenate([
        joints.ravel(),
        np.diff(joints, axis=2).ravel(),
        np.sqrt((deltas * deltas).sum(axis=0)).ravel(),
    ])


def reference_projection(joints, dim, seed):
    _, n_joints, length = joints.shape
    raw_dim = 2 * n_joints * length + 2 * n_joints * (length - 1)
    raw_dim += n_joints * (n_joints - 1) // 2 * length
    return _projection(raw_dim, dim, seed)


def assert_within_projection_bound(matrix, ref_matrix, raw, dim, seed):
    """Features that differ from the per-row products only by summation order."""
    assert matrix.shape == ref_matrix.shape
    k = raw.shape[1]
    gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
    bound = 2 * gamma * (np.abs(raw) @ np.abs(_projection(k, dim, seed)))
    assert (np.abs(matrix - ref_matrix) <= bound).all()


def assert_float32_of(matrix, projected):
    """Front-end features that are the projection rounded to float32, bit for bit."""
    assert matrix.dtype == np.float64
    rounded = projected.astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(matrix.view(np.int64), rounded.view(np.int64))


def assert_matches_reference(videos, window_length, stride, dim=16, seed=3):
    table = extract_snippets(videos, window_length, stride)
    refs, matrix, meta = featurize_snippets(table, dim, seed)
    ref_refs, ref_raw, ref_matrix, dropped_zero, dropped_degenerate = reference_front_end(
        videos, window_length, stride, dim, seed
    )
    assert refs == ref_refs
    if refs:
        raw = descriptors(table.joints)
        np.testing.assert_array_equal(raw.view(np.int64), ref_raw.view(np.int64))
        projected = kinematic_matrix(table.joints, dim, seed)
        assert_within_projection_bound(projected, ref_matrix, ref_raw, dim, seed)
        assert_float32_of(matrix, projected)
    assert matrix.shape == ref_matrix.shape
    assert (table.dropped_zero, table.dropped_degenerate) == (dropped_zero, dropped_degenerate)
    columns = (meta.video_ids.tolist(), meta.person_ids.tolist(), meta.starts.tolist())
    assert [make_snippet_ref(*row) for row in zip(*columns)] == refs
    return table, refs, matrix


J = 4


def make_track(video, person, length, start=0, gaps=(), zero=(), still=(), rng=None):
    """A track over frames start..start+length-1 without the `gaps` frames.

    Frames in `zero` have all-zero coordinates; frames in `still` put every
    joint on one fixed point, so a window made only of them is degenerate.
    """
    rng = rng if rng is not None else np.random.default_rng(person)
    still_pose = np.tile(rng.random(2) * 50.0 + 1.0, (J, 1))
    frames = []
    for t in range(length):
        if t in gaps:
            continue
        if t in zero:
            xy, conf = np.zeros((J, 2)), np.zeros(J)
        elif t in still:
            xy, conf = still_pose, np.ones(J)
        else:
            xy, conf = rng.random((J, 2)) * 50.0 + 5.0, rng.random(J)
        frames.append(PoseFrame(start + t, person, xy.copy(), conf))
    return Track(video, person, frames)


def generated_videos(tracks, seed):
    """Videos of the tracks a property test draws: (frames spanned, first
    frame, missing frames, (first, length) of an all-zero run, (first,
    length) of a run of one-point poses) each, alternating between 2 videos."""
    rng = np.random.default_rng(seed)
    videos = {}
    for person, (length, start, gaps, (z0, zn), (s0, sn)) in enumerate(tracks):
        gaps = {t for t in gaps if t < length - 1}
        video = f"v{person % 2}"
        videos.setdefault(video, []).append(make_track(
            video, person, length, start, gaps,
            set(range(z0, z0 + zn)), set(range(s0, s0 + sn)), rng,
        ))
    return videos


class TestAgainstReference:
    def test_synthetic_corpus_full_config(self):
        data = make_benchmark(seed=1, videos_per_class=1, test_counts={"pattern": 1})
        assert_matches_reference(data.corpus_videos, 16, 1, dim=64, seed=0)
        assert_matches_reference(data.test_videos, 16, 5, dim=64, seed=0)

    @pytest.mark.parametrize(
        "n_rows", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
    )
    def test_row_counts_around_block_boundaries(self, n_rows):
        rng = np.random.default_rng(n_rows)
        first = n_rows // 2
        videos = {
            "a": [make_track("a", 0, first + 5, rng=rng)],
            "b": [make_track("b", 2, n_rows - first + 5, start=9, rng=rng)],
        }
        table, _, _ = assert_matches_reference(videos, 6, 1)
        assert len(table) == n_rows

    def test_gaps_zero_frames_and_still_poses(self):
        videos = {
            "v": [
                make_track("v", 0, 40, gaps=set(range(10, 16)), zero={30, 31, 32, 33, 34}),
                make_track("v", 1, 30, still=set(range(0, 12))),
                make_track("v", 2, 8),  # exactly one window
                make_track("v", 3, 5),  # shorter than a window
            ],
        }
        table, _, _ = assert_matches_reference(videos, 8, 1)
        assert table.dropped_zero > 0 and table.dropped_degenerate > 0

    def test_all_zero_and_degenerate_everything(self):
        videos = {
            "z": [make_track("z", 0, 12, zero=set(range(12)))],
            "s": [make_track("s", 1, 12, still=set(range(12)))],
        }
        table, refs, matrix = assert_matches_reference(videos, 4, 2)
        assert len(table) == 0 and refs == [] and matrix.shape == (0, 16)
        assert (table.dropped_zero, table.dropped_degenerate) == (5, 5)

    def test_no_tracks(self):
        table, refs, matrix = assert_matches_reference({}, 4, 1)
        assert len(table) == 0 and matrix.shape == (0, 16)

    @settings(max_examples=40, deadline=None)
    @given(
        tracks=st.lists(
            st.tuples(
                st.integers(1, 90),  # frames spanned
                st.integers(0, 20),  # first frame index
                st.sets(st.integers(1, 88), max_size=12),  # missing frames
                st.tuples(st.integers(0, 89), st.integers(0, 15)),  # run of all-zero frames
                st.tuples(st.integers(0, 89), st.integers(0, 25)),  # run of one-point poses
            ),
            min_size=1,
            max_size=5,
        ),
        window_length=st.integers(2, 9),
        stride=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_property_matches_reference(self, tracks, window_length, stride, seed):
        videos = generated_videos(tracks, seed)
        assert_matches_reference(videos, window_length, stride)

    def test_block_boundaries_long_track(self):
        # One track whose windows fill several normalization blocks.
        videos = {"long": [make_track("long", 7, 3 * BLOCK_ROWS + 20, zero={100, 101, 102})]}
        assert_matches_reference(videos, 5, 1)


class TestTableViews:
    def test_rows_are_single_snippet_results(self):
        videos = {"v": [make_track("v", 0, 30, gaps={12}), make_track("v", 4, 20, start=3)]}
        table = extract_snippets(videos, 8, 3)
        ref_refs, ref_raw, ref_matrix, _, _ = reference_front_end(videos, 8, 3, 16, 5)
        assert len(table) == len(ref_refs)
        assert table.refs == ref_refs
        for i, joints in enumerate(table.joints):
            # the row's joints give the reference's features bit for bit
            features = reference_descriptor(joints) @ reference_projection(joints, 16, 5)
            np.testing.assert_array_equal(features.view(np.int64), ref_matrix[i].view(np.int64))
        refs, matrix, _ = featurize_snippets(table, 16, 5)
        projected = kinematic_matrix(table.joints, 16, 5)
        assert_within_projection_bound(projected, ref_matrix, ref_raw, 16, 5)
        assert_float32_of(matrix, projected)
        np.testing.assert_array_equal(
            descriptors(table.joints[0:1])[0], reference_descriptor(table.joints[0])
        )
        assert refs == ref_refs

    def test_drop_counts_are_logged(self, caplog):
        zeros = make_track("v", 0, 20, zero=set(range(8)))
        videos = {"v": [zeros, make_track("v", 1, 9, still=set(range(9)))]}
        with caplog.at_level(logging.INFO, logger="skel_sentinel.pipeline"):
            table = extract_snippets(videos, 4, 1)
        assert table.dropped_zero > 0 and table.dropped_degenerate > 0
        message = caplog.records[-1].getMessage()
        assert f"{table.dropped_zero} zero-dominated" in message
        assert f"{table.dropped_degenerate} degenerate" in message


class DropCounts(logging.Handler):
    """Keeps the arguments of the pipeline's drop-count log line."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.args = []

    def emit(self, record):
        if record.getMessage().startswith("kept "):
            self.args.append(record.args)


def assert_stream_matches_table(videos, window_length, stride, block_rows, dim=8, seed=3):
    """snippet_features on the written tracks against the table of the same
    tracks, bit for bit, with both modules reading `block_rows` as BLOCK_ROWS.
    Returns the kept rows and the table's drop counts."""
    cfg = RunConfig(
        joints=J, window_length=window_length, stride=stride, feature_dim=dim, seed=seed
    )
    logger, counts = logging.getLogger("skel_sentinel.pipeline"), DropCounts()
    level = logger.level
    logger.addHandler(counts)
    logger.setLevel(logging.INFO)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(pipeline, "BLOCK_ROWS", block_rows), \
                mock.patch.object(featurize, "BLOCK_ROWS", block_rows):
            path = Path(tmp) / "tracks.tsv"
            write_tracks(videos, path)
            table = extract_snippets(load_tracks(path, J), window_length, stride)
            table_refs, table_matrix, table_meta = featurize_snippets(table, dim, seed)
            try:
                refs, matrix, meta = snippet_features(cfg, path)
            except StageError as exc:
                assert len(table) == 0 and exc.stage == "window"
                assert (
                    f"dropped {table.dropped_zero} zero-dominated and "
                    f"{table.dropped_degenerate} degenerate window(s)"
                ) in str(exc)
                refs, matrix, meta = [], np.empty((0, dim)), None
    finally:
        logger.removeHandler(counts)
        logger.setLevel(level)
    drops = (table.dropped_zero, table.dropped_degenerate)
    assert counts.args[-1] == (len(table), *drops)  # the stream's own log line
    assert refs == table_refs
    assert matrix.shape == table_matrix.shape
    np.testing.assert_array_equal(matrix.view(np.int64), table_matrix.view(np.int64))
    if meta is not None:
        for column in ("video_ids", "person_ids", "starts"):
            np.testing.assert_array_equal(getattr(meta, column), getattr(table_meta, column))
    return len(table), drops


# the cases of the streamed front end's property tests; see generated_videos
STREAM_CASES = dict(
    tracks=st.lists(
        st.tuples(
            st.integers(1, 40),  # frames spanned
            st.integers(0, 9),  # first frame index
            st.sets(st.integers(1, 38), max_size=6),  # missing frames
            st.tuples(st.integers(0, 39), st.integers(0, 12)),  # run of all-zero frames
            st.tuples(st.integers(0, 39), st.integers(0, 14)),  # run of one-point poses
        ),
        min_size=1,
        max_size=5,
    ),
    window_length=st.integers(2, 6),
    stride=st.integers(1, 3),
    block_rows=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)


class TestStreamedFrontEnd:
    """The stream normalizes BLOCK_ROWS windows at a time and drops degenerate
    rows, so its blocks reach kinematic_matrix with fewer rows than a block
    holds. Its GEMM blocks must still be the table's, including a last block
    of one row, which OpenBLAS computes with gemv."""

    @settings(max_examples=60, deadline=None)
    @given(**STREAM_CASES)
    def test_property_stream_equals_table(self, tracks, window_length, stride, block_rows, seed):
        videos = generated_videos(tracks, seed)
        assert_stream_matches_table(videos, window_length, stride, block_rows, seed=seed)

    @settings(max_examples=40, deadline=None)
    @given(**STREAM_CASES)
    def test_property_tracks_equal_their_skem(self, tracks, window_length, stride, block_rows, seed):
        # `score` and `score --features` of the tracks' `.skem` file score the
        # same feature bits
        cfg = RunConfig(
            joints=J, window_length=window_length, stride=stride, feature_dim=8, seed=seed
        )
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(pipeline, "BLOCK_ROWS", block_rows), \
                mock.patch.object(featurize, "BLOCK_ROWS", block_rows):
            path, skem = Path(tmp) / "tracks.tsv", Path(tmp) / "f.skem"
            write_tracks(generated_videos(tracks, seed), path)
            try:
                refs, matrix, meta = snippet_features(cfg, path)
            except StageError as exc:
                assert exc.stage == "window"
                return
            write_embeddings(refs, matrix, skem)
            stored_refs, stored, stored_meta = snippet_features(cfg, path, skem)
        assert stored_refs == refs
        assert stored.dtype == matrix.dtype == np.float64
        np.testing.assert_array_equal(stored.view(np.int64), matrix.view(np.int64))
        for column in ("video_ids", "person_ids", "starts"):
            np.testing.assert_array_equal(getattr(stored_meta, column), getattr(meta, column))

    def test_dropped_row_moves_block_edge_and_leaves_one_row(self):
        # Windows of 3 frames at stride 1, normalized 4 at a time: the still
        # frames 4-8 make windows 4, 5 and 6 degenerate, so the second
        # normalized block keeps 1 row of 4, and every later GEMM block
        # starts 3 windows later than its normalization block. 22 frames give
        # 20 windows; the 17 kept rows end in a GEMM block of one row.
        videos = {"v": [make_track("v", 0, 22, still=set(range(4, 9)))]}
        kept, drops = assert_stream_matches_table(videos, 3, 1, block_rows=4)
        assert (kept, drops) == (17, (0, 3))

    def test_front_end_holds_no_joints_tensor(self, tmp_path):
        # 32 normalization blocks of 17-joint, 16-frame windows: the table's
        # (N, 2, J, T) float64 tensor is 35.7 MB; one block of descriptors is
        # 6.6 MB. NumPy reports its allocations to tracemalloc.
        n_joints, length, per_track = 17, 16, 8 * BLOCK_ROWS
        rng = np.random.default_rng(0)
        with open(tmp_path / "tracks.tsv", "w", encoding="utf-8") as fh:
            for person in range(4):
                for frame in range(per_track + length - 1):
                    pose = ";".join(
                        f"{x:.3f},{y:.3f},{c:.3f}"
                        for x, y, c in rng.random((n_joints, 3)) * (100.0, 100.0, 1.0)
                    )
                    fh.write(f"v{person % 2}\t{person}\t{frame}\t{pose}\n")
        cfg = RunConfig(joints=n_joints, window_length=length, feature_dim=16)
        tracemalloc.start()
        try:
            refs, _, _ = snippet_features(cfg, tmp_path / "tracks.tsv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(refs) == 4 * per_track
        tensor = len(refs) * 2 * n_joints * length * 8
        assert peak < tensor / 2, f"peak {peak / 1e6:.1f} MB for a {tensor / 1e6:.1f} MB tensor"

    def test_projection_never_holds_a_blocks_raw_descriptors(self):
        # one GEMM block of 17-joint, 16-frame windows: its (256, 3,230)
        # float64 raw descriptors are 6.6 MB. 16 features keep the (3,230, 16)
        # projection and its QR small next to them. NumPy reports its
        # allocations to tracemalloc.
        n_joints, length = 17, 16
        block = np.random.default_rng(0).standard_normal((BLOCK_ROWS, 2, n_joints, length))
        tracemalloc.start()
        try:
            matrix = kinematic_matrix(block, 16, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.shape == (BLOCK_ROWS, 16)
        raw = BLOCK_ROWS * featurize.descriptor_width(n_joints, length) * 8
        assert peak < raw, f"peak {peak / 1e6:.1f} MB for {raw / 1e6:.1f} MB of descriptors"

    def test_front_end_builds_one_feature_matrix(self, tmp_path):
        # 4-joint windows projected to 256 features: the (N, D) float64
        # features outweigh everything else the front end holds, so a second
        # copy of them (a list of block outputs and their concatenation, or a
        # float32 copy of the whole matrix) would put the peak at twice them
        n_joints, length, frames, dim = 4, 16, 4096, 256
        rng = np.random.default_rng(0)
        with open(tmp_path / "tracks.tsv", "w", encoding="utf-8") as fh:
            for person in range(4):
                for frame in range(frames):
                    pose = ";".join(
                        f"{x:.3f},{y:.3f},{c:.3f}"
                        for x, y, c in rng.random((n_joints, 3)) * (100.0, 100.0, 1.0)
                    )
                    fh.write(f"v{person % 2}\t{person}\t{frame}\t{pose}\n")
        cfg = RunConfig(joints=n_joints, window_length=length, feature_dim=dim)
        tracemalloc.start()
        try:
            refs, matrix, _ = snippet_features(cfg, tmp_path / "tracks.tsv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.shape == (4 * (frames - length + 1), dim) == (16_324, 256)
        features = matrix.nbytes
        assert peak < 1.5 * features, (
            f"peak {peak / 1e6:.1f} MB for {features / 1e6:.1f} MB of features"
        )


class TestSceneIndices:
    def test_scenes_are_slices_in_video_order(self):
        meta = SnippetMeta(
            np.array(["a", "a", "b", "c", "c"], dtype=object),
            np.array([0, 1, 0, 2, 3]), np.array([0, 0, 4, 0, 0]),
        )
        matrix = np.arange(10.0).reshape(5, 2)
        indices = build_scene_indices(meta.refs, matrix, meta)
        assert list(indices) == ["a", "b", "c"]
        for index, (a, b) in zip(indices.values(), [(0, 2), (2, 3), (3, 5)]):
            assert index.refs == meta.refs[a:b]
            assert index.person_ids.tolist() == meta.person_ids[a:b].tolist()
            assert index.times.tolist() == meta.starts[a:b].tolist()
            assert np.shares_memory(index.features, matrix)  # a slice, not a copy
            np.testing.assert_array_equal(index.features, matrix[a:b])
        empty = SnippetMeta(np.empty(0, dtype=object), np.empty(0, int), np.empty(0, int))
        assert build_scene_indices([], np.empty((0, 2)), empty) == {}

    def test_rows_out_of_video_order_are_a_contract_error(self):
        meta = SnippetMeta(
            np.array(["a", "b", "b", "a", "c", "a"], dtype=object),
            np.arange(6), np.zeros(6, dtype=np.int64),
        )
        first_out_of_order = make_snippet_ref("a", 3, 0)
        with pytest.raises(ContractError, match=f"^{first_out_of_order} is out of video_id"):
            build_scene_indices(meta.refs, np.zeros((6, 2)), meta)


def test_cli_featurize_writes_reference_bytes(tmp_path):
    data = make_benchmark(seed=2, videos_per_class=1, test_counts={"pattern": 1})
    write_tracks(data.corpus_videos, tmp_path / "tracks.tsv")
    (tmp_path / "run.cfg").write_text("joints = 17\nfeature_dim = 16\n")
    assert command_dispatch([
        "featurize", "--tracks", str(tmp_path / "tracks.tsv"),
        "--out", str(tmp_path / "cli.skem"), "--config", str(tmp_path / "run.cfg"),
    ]) == 0
    # the payload is the float32 of kinematic_matrix on the CLI's own table;
    # the float32 of the oracle's features may differ in a row that lies
    # within the projection bound of a float32 rounding boundary
    table = extract_snippets(load_tracks(tmp_path / "tracks.tsv", 17), 16, 1)
    matrix = kinematic_matrix(table.joints, 16, 0)
    payload = matrix.astype("<f4").tobytes()
    assert (tmp_path / "cli.skem").read_bytes()[-len(payload) :] == payload
    store = load_embeddings(tmp_path / "cli.skem")
    assert store.matrix.shape == matrix.shape
    refs, raw, ref_matrix, _, _ = reference_front_end(data.corpus_videos, 16, 1, 16, 0)
    assert store.refs == table.refs == refs
    assert_within_projection_bound(matrix, ref_matrix, raw, 16, 0)
