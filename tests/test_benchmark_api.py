import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skel_sentinel.cli import command_dispatch
from skel_sentinel.config import RunConfig, read_lines
from skel_sentinel.errors import SchemaError, StageError
from skel_sentinel.evaluation import run_benchmark, write_labels
from skel_sentinel.featurize import FeatureStore, class_prototypes
from skel_sentinel.flow import init_flow, save_flow, train_flow
from skel_sentinel.pipeline import extract_snippets, featurize_snippets, score_tracks
from skel_sentinel.pose_io import write_tracks
from skel_sentinel.synth import make_benchmark
from skel_sentinel.typicality import select_typical

SMALL_CFG = RunConfig(feature_dim=16, epochs=4, batch_size=256, k_neighbors=4, seed=0)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_api")
    cfg = SMALL_CFG
    data = make_benchmark(seed=0, videos_per_class=2, test_counts={"pattern": 2, "outlier": 1})
    snippets = extract_snippets(data.corpus_videos, cfg.window_length, cfg.stride)
    refs, matrix, meta = featurize_snippets(snippets, cfg.feature_dim, cfg.seed)
    store = FeatureStore(refs, matrix)
    labels_map = {r: data.corpus_classes[v] for r, v in zip(refs, meta.video_ids)}
    protos = class_prototypes(store, labels_map)
    sel = select_typical(store, protos, labels_map, data.typicality, 0.9, 0.1)
    data_n, data_a = store.rows(sel.normal_refs), store.rows(sel.abnormal_refs)
    model = init_flow(cfg.feature_dim, cfg.flow_layers, cfg.hidden_width, cfg.seed)
    train_flow(model, data_n, data_a, RunConfig(batch_size=256, epochs=4, seed=0))

    write_tracks(data.test_videos, root / "tracks.tsv")
    write_labels(data.test_labels, root / "labels.tsv")
    save_flow(model, root / "model.skfl")
    return root, cfg


class TestRunBenchmark:
    def test_writes_report_and_scores(self, small_run, tmp_path):
        root, cfg = small_run
        report = run_benchmark(
            root / "tracks.tsv", root / "model.skfl",
            root / "labels.tsv", tmp_path, cfg,
        )
        assert (tmp_path / "scores.tsv").exists()
        assert (tmp_path / "details.tsv").exists()
        text = (tmp_path / "report.txt").read_text()
        for key in ("micro_auc", "videos", "frames", "wall_seconds"):
            assert f"{key} = " in text
        assert report.videos == 3
        assert 0.0 <= report.micro <= 1.0
        assert set(report.per_video_auc) <= set(report.frame_scores)

    def test_deterministic_scores(self, small_run, tmp_path):
        root, cfg = small_run
        a = run_benchmark(
            root / "tracks.tsv", root / "model.skfl",
            root / "labels.tsv", tmp_path / "a", cfg,
        )
        b = run_benchmark(
            root / "tracks.tsv", root / "model.skfl",
            root / "labels.tsv", tmp_path / "b", cfg,
        )
        assert a.micro == b.micro
        assert (tmp_path / "a" / "scores.tsv").read_bytes() == (
            tmp_path / "b" / "scores.tsv"
        ).read_bytes()

    def test_missing_model_names_stage_and_path(self, small_run, tmp_path):
        root, cfg = small_run
        with pytest.raises(StageError, match="load-model") as exc:
            run_benchmark(
                root / "tracks.tsv", root / "nope.skfl",
                root / "labels.tsv", tmp_path, cfg,
            )
        assert "nope.skfl" in str(exc.value)

    @pytest.mark.parametrize(
        "window, stride",
        [
            pytest.param(0, 1, id="0"),
            pytest.param(5, 1, id="5"),
            # every small-bundle video leaves a 3-frame tail no window covers
            pytest.param(0, 5, id="stride5"),
        ],
    )
    def test_cli_score_eval_reports_same_micro_auc(self, small_run, tmp_path, window, stride):
        root, cfg = small_run
        cfg = cfg.replace(smoothing_window=window, stride=stride)
        cfg.to_file(tmp_path / "run.cfg")
        report = run_benchmark(
            root / "tracks.tsv", root / "model.skfl",
            root / "labels.tsv", tmp_path / "bench", cfg,
        )
        assert command_dispatch([
            "score", "--tracks", str(root / "tracks.tsv"), "--model", str(root / "model.skfl"),
            "--out", str(tmp_path / "scores"), "--config", str(tmp_path / "run.cfg"),
        ]) == 0
        assert command_dispatch([
            "eval", "--scores", str(tmp_path / "scores" / "scores.tsv"),
            "--labels", str(root / "labels.tsv"), "--out", str(tmp_path / "report"),
        ]) == 0
        for name in ("scores.tsv", "details.tsv"):
            assert (tmp_path / "bench" / name).read_bytes() == (
                tmp_path / "scores" / name
            ).read_bytes()
        lines = (tmp_path / "report" / "report.txt").read_text().splitlines()
        # report.txt carries 6 decimals
        assert "micro_auc = " + f"{report.micro:.6f}" in lines


    def test_ablations_standardize_one_family(self, small_run, tmp_path):
        """Each ablation's frames, recomputed without the fusion code: the one
        family z-scored, then a max over the frames of every window."""
        root, cfg = small_run
        report = run_benchmark(
            root / "tracks.tsv", root / "model.skfl", root / "labels.tsv", tmp_path, cfg
        )
        series = score_tracks(cfg, root / "tracks.tsv", root / "model.skfl")
        for family, frames in (
            ("typicality", report.frame_scores_typicality),
            ("uniqueness", report.frame_scores_uniqueness),
        ):
            assert sorted(frames) == sorted(series)
            for vid, s in series.items():
                values = getattr(s, family)
                std = values.std()
                z = (values - values.mean()) / std if std >= cfg.epsilon else np.zeros_like(values)
                want = np.full(s.start_times.max() + cfg.window_length, -np.inf)
                for start, score in zip(s.start_times.tolist(), z.tolist()):
                    window = want[start : start + cfg.window_length]
                    np.maximum(window, score, out=window)
                want[want == -np.inf] = z.min()
                np.testing.assert_array_equal(frames[vid].view(np.int64), want.view(np.int64))

    def test_features_path_matches_score_features(self, small_run, tmp_path):
        root, cfg = small_run
        cfg.to_file(tmp_path / "run.cfg")
        config = ["--config", str(tmp_path / "run.cfg")]
        features = tmp_path / "f.skem"
        assert command_dispatch([
            "featurize", "--tracks", str(root / "tracks.tsv"), "--out", str(features), *config,
        ]) == 0
        report = run_benchmark(
            root / "tracks.tsv", root / "model.skfl", root / "labels.tsv", tmp_path / "bench",
            cfg, features_path=features,
        )
        assert command_dispatch([
            "score", "--tracks", str(root / "tracks.tsv"), "--model", str(root / "model.skfl"),
            "--features", str(features), "--out", str(tmp_path / "scores"), *config,
        ]) == 0
        assert command_dispatch([
            "eval", "--scores", str(tmp_path / "scores" / "scores.tsv"),
            "--labels", str(root / "labels.tsv"), "--out", str(tmp_path / "report"),
        ]) == 0
        for name in ("scores.tsv", "details.tsv"):
            written = (tmp_path / "bench" / name).read_bytes()
            assert written and written == (tmp_path / "scores" / name).read_bytes()
        lines = (tmp_path / "report" / "report.txt").read_text().splitlines()
        assert "micro_auc = " + f"{report.micro:.6f}" in lines


@settings(max_examples=6, deadline=None)
# evaluating the fused scores in memory gave micro-AUC 0.661820 here, and
# evaluating them as scores.tsv holds them, at 6 decimals, gave 0.661827
@example(stride=3, window_length=2, k_neighbors=1, alpha=0.0, smoothing_window=3, epsilon=1.0)
@given(
    stride=st.integers(1, 8),
    window_length=st.integers(2, 32),
    k_neighbors=st.integers(1, 32),
    alpha=st.floats(0.0, 8.0),
    smoothing_window=st.integers(0, 24),
    epsilon=st.floats(1e-12, 1.0),
)
def test_cli_and_library_agree_on_every_scoring_option(small_run, **options):
    """`score` + `eval` through the CLI and `run_benchmark` write the same
    files and report the same micro-AUC for any in-range scoring options."""
    root, cfg = small_run
    cfg = cfg.replace(**options)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg.to_file(tmp / "run.cfg")
        report = run_benchmark(
            root / "tracks.tsv", root / "model.skfl", root / "labels.tsv", tmp / "bench", cfg
        )
        assert command_dispatch([
            "score", "--tracks", str(root / "tracks.tsv"), "--model", str(root / "model.skfl"),
            "--out", str(tmp / "scores"), "--config", str(tmp / "run.cfg"),
        ]) == 0
        assert command_dispatch([
            "eval", "--scores", str(tmp / "scores" / "scores.tsv"),
            "--labels", str(root / "labels.tsv"), "--out", str(tmp / "report"),
        ]) == 0
        for name in ("scores.tsv", "details.tsv"):
            written = (tmp / "bench" / name).read_bytes()
            assert written and written == (tmp / "scores" / name).read_bytes()
        lines = (tmp / "report" / "report.txt").read_text().splitlines()
        assert f"micro_auc = {report.micro:.6f}" in lines


class TestRunConfig:
    def test_file_round_trip_lossless(self, tmp_path):
        cfg = RunConfig(joints=13, alpha=2.5, beta_abnormal=0.25, seed=9)
        path = tmp_path / "run.cfg"
        cfg.to_file(path)
        assert RunConfig.from_file(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense = 1\n")
        from skel_sentinel.errors import SchemaError

        with pytest.raises(SchemaError, match="nonsense"):
            RunConfig.from_file(path)

    def test_quoted_numbers_take_the_field_type(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stride = '4'\nalpha = \"2.5\"\n")
        assert RunConfig.from_file(path) == RunConfig(stride=4, alpha=2.5)

    def test_all_defaults_round_trip(self, tmp_path):
        cfg = RunConfig()
        cfg.to_file(tmp_path / "d.cfg")
        assert RunConfig.from_file(tmp_path / "d.cfg") == cfg
        # every field appears in the file
        text = (tmp_path / "d.cfg").read_text()
        for field in dataclasses.fields(RunConfig):
            assert f"{field.name} = " in text


# Line text without LF, the only line break, and not ending in CR, which a line
# ending drops. The characters `str.splitlines` also breaks at are drawn often.
LINE_TEXT = st.text(
    st.one_of(
        st.sampled_from("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    ),
    max_size=12,
).filter(lambda text: not text.endswith("\r"))


@settings(max_examples=80, deadline=None)
@given(
    lines=st.lists(LINE_TEXT, min_size=1, max_size=8),
    ending=st.sampled_from([b"\n", b"\r\n"]),
    data=st.data(),
    bad=st.sampled_from([0x80, 0xBF, 0xC0, 0xC1, 0xF5, 0xFF]),
)
def test_read_lines_names_the_line_of_an_invalid_byte(lines, ending, data, bad):
    row = data.draw(st.integers(0, len(lines) - 1))
    col = data.draw(st.integers(0, len(lines[row])))
    encoded = [line.encode("utf-8") for line in lines]
    valid = b"".join(line + ending for line in encoded)
    head, tail = lines[row][:col], lines[row][col:]
    encoded[row] = head.encode("utf-8") + bytes([bad]) + tail.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(valid)
        assert list(read_lines(path)) == list(enumerate(lines, 1))
        path.write_bytes(b"".join(line + ending for line in encoded))
        with pytest.raises(SchemaError) as exc:
            list(read_lines(path))
    assert str(exc.value) == f"{path}, line {row + 1}: not valid UTF-8"
