import pytest

from skel_sentinel.cli import command_dispatch
from skel_sentinel.config import RunConfig
from skel_sentinel.evaluation import write_labels
from skel_sentinel.flow import init_flow, save_flow
from skel_sentinel.pose_io import write_tracks
from skel_sentinel.synth import make_benchmark, write_class_map
from skel_sentinel.typicality import save_typicality_spec

SMALL_CONFIG = """\
joints = 17
feature_dim = 16
epochs = 3
batch_size = 256
k_neighbors = 4
"""


@pytest.fixture(scope="module")
def small_benchmark(tmp_path_factory):
    """A miniature benchmark written to disk once for all CLI tests."""
    root = tmp_path_factory.mktemp("bench")
    data = make_benchmark(
        seed=0, videos_per_class=2, test_counts={"pattern": 2, "outlier": 1}
    )
    write_tracks(data.corpus_videos, root / "corpus_tracks.tsv")
    write_class_map(data.corpus_classes, root / "corpus_classes.tsv")
    write_tracks(data.test_videos, root / "test_tracks.tsv")
    write_labels(data.test_labels, root / "test_labels.tsv")
    save_typicality_spec(data.typicality, root / "typicality.spec")
    (root / "run.cfg").write_text(SMALL_CONFIG)
    return root


def run_cli(*argv):
    return command_dispatch([str(a) for a in argv])


class TestHelpAndUsage:
    @pytest.mark.parametrize(
        "command", ["synth", "featurize", "select", "train", "score", "eval", "check"]
    )
    def test_help_lists_flags_with_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" in out and "--config" in out and "--threads" in out

    def test_score_without_model_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("score", "--tracks", tmp_path / "t.tsv", "--out", tmp_path)
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_stage_failure_prints_machine_line(self, tmp_path, capsys):
        status = run_cli(
            "eval", "--scores", tmp_path / "missing.tsv",
            "--labels", tmp_path / "missing2.tsv", "--out", tmp_path,
        )
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error\teval\t")
        assert len(err.strip().splitlines()) == 1

    def test_stage_failure_names_inner_stage_and_cause(self, small_benchmark, tmp_path, capsys):
        root = small_benchmark
        save_flow(init_flow(16, 2, 8, seed=0), tmp_path / "model.skfl")
        lines = (root / "test_tracks.tsv").read_text().splitlines()
        lines[2] = lines[2].replace("\t", " ", 1)
        (tmp_path / "tracks.tsv").write_text("\n".join(lines) + "\n")
        status = run_cli(
            "score", "--tracks", tmp_path / "tracks.tsv", "--model", tmp_path / "model.skfl",
            "--out", tmp_path / "out", "--config", root / "run.cfg",
        )
        assert status == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "error\tscore\tTrackParseError\tload-tracks: line 3: expected 4 tab-separated"
        )


class TestPipeline:
    def test_full_pipeline_small(self, small_benchmark, tmp_path):
        root = small_benchmark
        cfg = ["--config", str(root / "run.cfg"), "--seed", "0"]

        assert run_cli(
            "featurize", "--tracks", root / "corpus_tracks.tsv",
            "--out", tmp_path / "corpus.skem",
            "--classes", root / "corpus_classes.tsv",
            "--text-out", tmp_path / "texts.skem", *cfg,
        ) == 0
        assert run_cli(
            "select", "--features", tmp_path / "corpus.skem",
            "--texts", tmp_path / "texts.skem",
            "--classes", root / "corpus_classes.tsv",
            "--spec", root / "typicality.spec",
            "--out", tmp_path / "sel", *cfg,
        ) == 0
        assert (tmp_path / "sel" / "selected_normal.tsv").exists()
        assert run_cli(
            "train", "--features", tmp_path / "corpus.skem",
            "--selection", tmp_path / "sel",
            "--out", tmp_path / "model", *cfg,
        ) == 0
        model = tmp_path / "model" / "model.skfl"
        assert model.exists()
        assert (tmp_path / "model" / "loss_history.tsv").exists()
        assert run_cli(
            "score", "--tracks", root / "test_tracks.tsv",
            "--model", model, "--out", tmp_path / "scores", *cfg,
        ) == 0
        assert run_cli(
            "eval", "--scores", tmp_path / "scores" / "scores.tsv",
            "--labels", root / "test_labels.tsv",
            "--out", tmp_path / "report", *cfg,
        ) == 0
        report = (tmp_path / "report" / "report.txt").read_text()
        assert "micro_auc = " in report
        assert "wall_seconds = " in report
        # resolved config written next to each stage's outputs
        assert (tmp_path / "report" / "config.eval.resolved").exists()

    def test_featurize_idempotent_byte_identical(self, small_benchmark, tmp_path):
        root = small_benchmark
        for sub in ("a", "b"):
            assert run_cli(
                "featurize", "--tracks", root / "corpus_tracks.tsv",
                "--out", tmp_path / sub / "features.skem",
                "--config", root / "run.cfg", "--seed", "0",
            ) == 0
        a = (tmp_path / "a" / "features.skem").read_bytes()
        b = (tmp_path / "b" / "features.skem").read_bytes()
        assert a == b

    def test_grid_expands_runs(self, small_benchmark, tmp_path):
        root = small_benchmark
        assert run_cli(
            "featurize", "--tracks", root / "corpus_tracks.tsv",
            "--out", tmp_path, "--config", root / "run.cfg",
            "--grid", "feature_dim=8,16",
        ) == 0
        dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert dirs == ["grid000_feature_dim=8", "grid001_feature_dim=16"]

    def test_score_file_mode_requires_features(self, small_benchmark, tmp_path, capsys):
        root = small_benchmark
        (tmp_path / "file.cfg").write_text(SMALL_CONFIG + "features = 'file'\n")
        status = run_cli(
            "score", "--tracks", root / "test_tracks.tsv",
            "--model", tmp_path / "whatever.skfl",
            "--out", tmp_path / "out", "--config", tmp_path / "file.cfg",
        )
        assert status == 1
        assert capsys.readouterr().err.startswith("error\tscore\tSchemaError\t")


class TestFullScalePipeline:
    """The complete subcommand chain on the default benchmark (slow)."""

    def test_synth_featurize_train_score_eval(self, tmp_path):
        out = tmp_path
        assert run_cli("synth", "--out", out / "data", "--seed", "0") == 0
        data = out / "data"
        assert run_cli(
            "featurize", "--tracks", data / "corpus_tracks.tsv",
            "--out", out / "corpus.skem",
            "--classes", data / "corpus_classes.tsv",
            "--text-out", out / "texts.skem", "--seed", "0",
        ) == 0
        assert run_cli(
            "select", "--features", out / "corpus.skem",
            "--texts", out / "texts.skem",
            "--classes", data / "corpus_classes.tsv",
            "--spec", data / "typicality.spec",
            "--out", out / "sel", "--seed", "0",
        ) == 0
        assert run_cli(
            "train", "--features", out / "corpus.skem",
            "--selection", out / "sel", "--out", out / "model", "--seed", "0",
        ) == 0
        assert run_cli(
            "score", "--tracks", data / "test_tracks.tsv",
            "--model", out / "model" / "model.skfl",
            "--out", out / "scores", "--seed", "0",
        ) == 0
        assert run_cli(
            "eval", "--scores", out / "scores" / "scores.tsv",
            "--labels", data / "test_labels.tsv",
            "--out", out / "report", "--seed", "0",
        ) == 0
        report = (out / "report" / "report.txt").read_text()
        micro = float(
            next(l for l in report.splitlines() if l.startswith("micro_auc")).split("=")[1]
        )
        assert micro >= 0.90


def test_check_subcommand_passes(capsys):
    assert run_cli("check") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_threads_env_fallback(small_benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("SKEL_SENTINEL_THREADS", "2")
    root = small_benchmark
    assert run_cli(
        "featurize", "--tracks", root / "corpus_tracks.tsv",
        "--out", tmp_path / "f.skem", "--config", root / "run.cfg",
    ) == 0
    cfg = RunConfig.from_file(tmp_path / "config.featurize.resolved")
    assert cfg.threads == 2
