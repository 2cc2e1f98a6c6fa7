import dataclasses
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skel_sentinel import blas, cli, errors, flow, pipeline
from skel_sentinel.cli import command_dispatch
from skel_sentinel.config import MAX_INT_VALUES, RunConfig
from skel_sentinel.errors import SchemaError
from skel_sentinel.evaluation import write_labels
from skel_sentinel.featurize import load_embeddings, load_text_embeddings, write_embeddings
from skel_sentinel.flow import init_flow, save_flow
from skel_sentinel.pose_io import write_tracks
from skel_sentinel.synth import make_benchmark
from skel_sentinel.typicality import save_typicality_spec, write_class_map

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


def write_text_inputs(root):
    """Small valid text inputs, each keyed by its path under `root`, with the
    argv of a command that reads it."""
    rng = np.random.default_rng(0)
    refs = ["v1:0:0", "v1:0:16", "v2:0:0", "v2:0:16"]
    write_embeddings(refs, rng.random((4, 8)), root / "f.skem")
    texts = rng.standard_normal((2, 8))
    texts /= np.linalg.norm(texts, axis=1, keepdims=True)
    write_embeddings(["run", "walk"], texts, root / "t.skem")
    (root / "classes.tsv").write_text("v1\twalk\nv2\trun\n")
    (root / "spec.txt").write_text("prompt = p\n[normal]\nwalk\n[abnormal]\nrun\n")
    (root / "sel").mkdir()
    (root / "sel" / "selected_normal.tsv").write_text("v1:0:0\t0.9\nv1:0:16\t0.8\n")
    (root / "sel" / "selected_abnormal.tsv").write_text("v2:0:0\t0.1\n")
    (root / "run.cfg").write_text("joints = 17\nstride = 1\n")
    (root / "scores.tsv").write_text("v\t0\t0.1\nv\t1\t0.9\n")
    (root / "labels.tsv").write_text("v\t0\t0\nv\t1\t1\n")
    pose = ";".join(["1.0,2.0,1.0"] * 17)
    (root / "tracks.tsv").write_text(f"v\t0\t0\t{pose}\nv\t0\t1\t{pose}\n")
    select = [
        "select", "--features", root / "f.skem", "--texts", root / "t.skem",
        "--classes", root / "classes.tsv", "--spec", root / "spec.txt", "--out", root / "out",
    ]
    evaluate = [
        "eval", "--scores", root / "scores.tsv", "--labels", root / "labels.tsv",
        "--out", root / "out",
    ]
    return {
        "tracks.tsv": ["featurize", "--tracks", root / "tracks.tsv", "--out", root / "out"],
        "run.cfg": ["check", "--config", root / "run.cfg"],
        "spec.txt": select,
        "classes.tsv": select,
        "f.skem.idx": select,
        "scores.tsv": evaluate,
        "labels.tsv": evaluate,
        "sel/selected_normal.tsv": [
            "train", "--features", root / "f.skem", "--selection", root / "sel",
            "--out", root / "out",
        ],
    }


def assert_score_rejects_config(benchmark, tmp_path, capsys, text, message):
    """`score` with config `text` exits 1 with one SchemaError line naming
    the config's last line, before any stage runs or any output is written."""
    (tmp_path / "run.cfg").write_text(text)
    message = f"{tmp_path / 'run.cfg'}, line {text.count(chr(10))}: {message}"
    model = tmp_path / "model.skfl"
    save_flow(init_flow(16, 2, 8, seed=0), model)
    status = run_cli(
        "score", "--tracks", benchmark / "test_tracks.tsv", "--model", model,
        "--out", tmp_path / "out", "--config", tmp_path / "run.cfg",
    )
    assert status == 1
    assert capsys.readouterr().err.splitlines() == [f"error\tscore\tSchemaError\t{message}"]
    assert not (tmp_path / "out").exists()


class TestHelpAndUsage:
    @pytest.mark.parametrize(
        "command", ["synth", "featurize", "select", "train", "score", "eval", "check"]
    )
    def test_help_lists_flags_with_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" in out and "--config" in out and "--threads" not in out

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
            f"error\tscore\tTrackParseError\tload-tracks: {tmp_path / 'tracks.tsv'}, line 3: "
            "expected 4 tab-separated"
        )

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("separator", "TrackParseError\tload-tracks: {}, line 1: expected 4 tab-separated"),
            ("duplicate", "DuplicateRecordError\tload-tracks: {}, line 2: duplicate record for ("),
        ],
        ids=["separator", "duplicate"],
    )
    def test_featurize_failure_names_inner_stage(
        self, small_benchmark, tmp_path, capsys, mutation, message
    ):
        lines = (small_benchmark / "corpus_tracks.tsv").read_text().splitlines()
        if mutation == "separator":
            lines[0] = lines[0].replace("\t", " ", 1)
        else:
            lines.insert(1, lines[0])
        (tmp_path / "tracks.tsv").write_text("\n".join(lines) + "\n")
        status = run_cli(
            "featurize", "--tracks", tmp_path / "tracks.tsv", "--out", tmp_path / "f.skem",
            "--config", small_benchmark / "run.cfg",
        )
        assert status == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error\tfeaturize\t{message.format(tmp_path / 'tracks.tsv')}")

    @pytest.mark.parametrize(
        "bad_file, line, error, stage",
        [
            ("scores", "v\tx\t0.5", "SchemaError", "load-scores"),
            ("labels", "v\t1\tyes", "SchemaError", "load-labels"),
            ("scores", "v\t1\tnan", "NonFiniteError", "load-scores"),
            ("scores", "v\t1\tinf", "NonFiniteError", "load-scores"),
            ("scores", "v\t-1\t0.9", "SchemaError", "load-scores"),
            ("labels", "v\t-1\t1", "SchemaError", "load-labels"),
            ("scores", "v\t0\t0.5", "DuplicateRecordError", "load-scores"),
            ("labels", "v\t0\t0", "DuplicateRecordError", "load-labels"),
        ],
    )
    def test_eval_bad_field_is_typed_error(self, tmp_path, capsys, bad_file, line, error, stage):
        files = {
            "scores": ["v\t0\t0.1", "v\t1\t0.9", "v\t2\t0.8", "v\t3\t0.2"],
            "labels": ["v\t0\t0", "v\t1\t1", "v\t2\t1", "v\t3\t0"],
        }
        files[bad_file][1] = line
        for name, lines in files.items():
            (tmp_path / f"{name}.tsv").write_text("\n".join(lines) + "\n")
        status = run_cli(
            "eval", "--scores", tmp_path / "scores.tsv", "--labels", tmp_path / "labels.tsv",
            "--out", tmp_path / "out",
        )
        assert status == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"error\teval\t{error}\t{stage}: {tmp_path / f'{bad_file}.tsv'}, line 2: "
        )

    @pytest.mark.parametrize(
        "name, mutation, error, message",
        [
            pytest.param(name, "byte", "SchemaError", "not valid UTF-8", id=f"{name}-byte")
            for name in (
                "tracks.tsv", "run.cfg", "spec.txt", "classes.tsv", "f.skem.idx",
                "scores.tsv", "labels.tsv", "sel/selected_normal.tsv",
            )
        ] + [
            pytest.param(name, "repeat", error, message, id=f"{name}-repeat")
            for name, error, message in (
                ("run.cfg", "SchemaError", "repeated config key 'joints'"),
                ("classes.tsv", "DuplicateRecordError", "repeated video_id 'v1'"),
                ("f.skem.idx", "DuplicateRecordError", "repeated ref 'v1:0:0'"),
                ("sel/selected_normal.tsv", "DuplicateRecordError", "repeated ref 'v1:0:0'"),
            )
        ],
    )
    def test_bad_text_input_is_typed_error(self, tmp_path, capsys, name, mutation, error, message):
        argv = write_text_inputs(tmp_path)[name]
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        # line 2 gets a byte that is never UTF-8, or repeats line 1
        lines[1] = lines[1] + b"\xff" if mutation == "byte" else lines[0]
        path.write_bytes(b"\n".join(lines))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error\t{argv[0]}\t{error}\t")
        assert err[0].endswith(f"{path}, line 2: {message}")
        if name == "tracks.tsv":
            assert f"\tload-tracks: {path}, line 2: " in err[0]

    def test_select_on_class_embeddings_is_typed_error(self, tmp_path, capsys):
        # t.skem holds class labels, not snippet refs, in its sidecar
        assert run_cli(*malformed_input_argv(tmp_path, "label-ref-sidecar")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error\tselect\tSchemaError\t{tmp_path / 't.skem'}.idx, line 1: bad snippet ref 'run'"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, error, stage",
        [
            ("--tracks", "SchemaError", "load-tracks: "),
            ("--model", "FileFormatError", "load-model: "),
            ("--features", "FileFormatError", ""),
            ("--labels", "SchemaError", "load-labels: "),
        ],
    )
    def test_directory_input_is_typed_error(self, tmp_path, capsys, flag, error, stage):
        write_text_inputs(tmp_path)
        folder = tmp_path / "folder"
        folder.mkdir()
        model = tmp_path / "model.skfl"
        save_flow(init_flow(8, 2, 8, seed=0), model)
        argv = {
            "--tracks": ["score", "--tracks", folder, "--model", model],
            "--model": ["score", "--tracks", tmp_path / "tracks.tsv", "--model", folder],
            "--features": [
                "select", "--features", folder, "--texts", tmp_path / "t.skem",
                "--classes", tmp_path / "classes.tsv", "--spec", tmp_path / "spec.txt",
            ],
            "--labels": ["eval", "--scores", tmp_path / "scores.tsv", "--labels", folder],
        }[flag]
        assert run_cli(*argv, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error\t{argv[0]}\t{error}\t{stage}{folder}: is a directory"
        ]

    def test_bad_config_value_is_typed_error(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("joints = 17\nstride = abc\n")
        assert run_cli("check", "--config", tmp_path / "run.cfg") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error\tcheck\tSchemaError\t{tmp_path / 'run.cfg'}, line 2: stride: "
            "expected int, got 'abc'"
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("alpha = nan", "alpha must be finite, got nan"),
            ("beta_normal = inf", "beta_normal must be finite, got inf"),
            ("learning_rate = nan", "learning_rate must be finite, got nan"),
            ("epsilon = nan", "epsilon must be finite, got nan"),
            ("epsilon = -1", "epsilon must be > 0, got -1.0"),
            ("epsilon = 0", "epsilon must be > 0, got 0.0"),
        ],
    )
    def test_non_finite_config_value_is_typed_error(
        self, small_benchmark, tmp_path, capsys, line, message
    ):
        text = f"joints = 17\n{line}\n"
        assert_score_rejects_config(small_benchmark, tmp_path, capsys, text, message)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("feature_dim = 63", "feature_dim must be even and >= 4, got 63"),
            ("feature_dim = 2", "feature_dim must be even and >= 4, got 2"),
            ("k_neighbors = 0", "k_neighbors must be >= 1, got 0"),
            ("alpha = -0.5", "alpha must be >= 0, got -0.5"),
            ("beta_normal = 1.5", "beta_normal must lie in (0, 1], got 1.5"),
            ("beta_abnormal = 0", "beta_abnormal must lie in (0, 1], got 0.0"),
            ("flow_layers = 0", "flow_layers must be >= 1, got 0"),
            ("hidden_width = 0", "hidden_width must be >= 1, got 0"),
            ("epochs = -1", "epochs must be >= 0, got -1"),
            ("joints = 0", "joints must be >= 1, got 0"),
            ("smoothing_window = -5", "smoothing_window must be >= 0, got -5"),
            ("seed = -3", "seed must be >= 0, got -3"),
            ("threads = 4", "threads must be 1, got 4"),
        ],
    )
    def test_out_of_range_config_value_is_typed_error(
        self, small_benchmark, tmp_path, capsys, line, message
    ):
        assert_score_rejects_config(small_benchmark, tmp_path, capsys, f"{line}\n", message)

    @pytest.mark.parametrize("value", [2**63, 10**30])
    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(RunConfig) if f.type == "int"]
    )
    def test_oversized_integer_config_value_is_typed_error(
        self, small_benchmark, tmp_path, capsys, key, value
    ):
        # each once ended in an OverflowError or IndexError traceback, ran, or
        # named no key
        bound = "1" if key == "threads" else f"<= {MAX_INT_VALUES[key]}"
        message = f"{key} must be {bound}, got {value}"
        text = f"{key} = {value}\n"
        assert_score_rejects_config(small_benchmark, tmp_path, capsys, text, message)

    def test_joints_far_above_the_file_is_typed_error(self, tmp_path, capsys):
        # the columns for 10**8 joints would be 8.94 GiB for these 3 lines
        pose = ";".join(["1.0,2.0,1.0"] * 17)
        (tmp_path / "tracks.tsv").write_text("".join(f"v\t0\t{i}\t{pose}\n" for i in range(3)))
        (tmp_path / "run.cfg").write_text("joints = 100000000\n")
        tracemalloc.start()
        try:
            status = run_cli(
                "featurize", "--tracks", tmp_path / "tracks.tsv",
                "--out", tmp_path / "out" / "f.skem", "--config", tmp_path / "run.cfg",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error\tfeaturize\tTrackParseError\tload-tracks: {tmp_path / 'tracks.tsv'}, "
            "line 1: expected 100000000 joints, got 17"
        ]
        assert not (tmp_path / "out").exists()
        assert peak < 64 * 2**20

    def test_track_span_beyond_bound_is_typed_error(self, tmp_path, capsys):
        # featurize would allocate the whole span densely (petabytes here)
        pose = ";".join(["1.0,2.0,1.0"] * 17)
        (tmp_path / "tracks.tsv").write_text(f"v\t0\t0\t{pose}\nv\t0\t{10**13}\t{pose}\n")
        status = run_cli(
            "featurize", "--tracks", tmp_path / "tracks.tsv", "--out", tmp_path / "f.skem",
        )
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error\tfeaturize\tTrackParseError\tload-tracks: {tmp_path / 'tracks.tsv'}, line 2: "
            f"track (v, 0) would span {10**13 + 1} frames, more than {2**20}"
        ]

    def test_far_frame_indices_are_typed_error(self, tmp_path):
        # each track spans 20 frames, but the video's score series would span
        # 10**12 + 20: 7.28 TiB of float64 if it reached an allocation
        pose = ";".join(f"{j}.0,{2 * j}.0,1.0" for j in range(17))
        tracks = tmp_path / "tracks.tsv"
        tracks.write_text("".join(
            f"v\t{person}\t{first + t}\t{pose}\n"
            for person, first in ((0, 0), (1, 10**12)) for t in range(20)
        ))
        assert run_cli("featurize", "--tracks", tracks, "--out", tmp_path / "f.skem") == 0
        model = tmp_path / "model.skfl"
        save_flow(init_flow(64, 2, 8, seed=0), model)
        out = tmp_path / "out"
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "skel_sentinel.cli", "score", "--tracks", str(tracks),
             "--model", str(model), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stdout + done.stderr
        assert done.stderr.splitlines() == [
            f"error\tscore\tSchemaError\tseries: video 'v' would span {10**12 + 20} frames, "
            f"more than {2**22}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("case", ["classes-without-text-out", "classes-name-no-video"])
    def test_featurize_classes_failure_writes_nothing(
        self, small_benchmark, tmp_path, capsys, case
    ):
        classes = tmp_path / "classes.tsv"
        classes.write_text("nobody\twalk\n")
        argv = [
            "featurize", "--tracks", small_benchmark / "corpus_tracks.tsv",
            "--out", tmp_path / "out" / "c.skem", "--config", small_benchmark / "run.cfg",
            "--classes", classes,
        ]
        if case == "classes-without-text-out":
            message = "--classes and --text-out must be given together"
        else:
            argv += ["--text-out", tmp_path / "out" / "t.skem"]
            message = f"{classes}: no video of the class map has a snippet"
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error\tfeaturize\tSchemaError\t{message}"]
        assert not (tmp_path / "out").exists()

    # Each value would ask for terabytes or more if it reached an allocation.
    def test_huge_feature_dim_is_typed_error(self, small_benchmark, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("joints = 17\nfeature_dim = 1000000000\n")
        status = run_cli(
            "featurize", "--tracks", small_benchmark / "corpus_tracks.tsv",
            "--out", tmp_path / "out" / "c.skem", "--config", tmp_path / "run.cfg",
        )
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            "error\tfeaturize\tDimensionError\tfeaturize: cannot project 3230 dims up to 1000000000"
        ]
        assert not (tmp_path / "out").exists()

    def test_huge_hidden_width_is_typed_error(self, tmp_path, capsys):
        write_embeddings(["v:0:0", "v:0:1"], np.ones((2, 8)), tmp_path / "f.skem")
        (tmp_path / "selected_normal.tsv").write_text("v:0:0\t0.9\n")
        (tmp_path / "selected_abnormal.tsv").write_text("v:0:1\t0.1\n")
        width = 10**12
        (tmp_path / "run.cfg").write_text(f"hidden_width = {width}\n")
        status = run_cli(
            "train", "--features", tmp_path / "f.skem", "--selection", tmp_path,
            "--out", tmp_path / "out", "--config", tmp_path / "run.cfg",
        )
        assert status == 1
        # 4 layers of dimension 8: two couplings of 4 -> width -> 4 each
        size = 4 * (2 * 8 + 2 * (4 * width + width + width * 4 + 4)) + 2 * 8
        assert capsys.readouterr().err.splitlines() == [
            f"error\ttrain\tDimensionError\ta flow of dimension 8, 4 layers and hidden width "
            f"{width} holds {size} parameters, more than {2**27}"
        ]
        assert not (tmp_path / "out").exists()

    def test_huge_smoothing_window_spans_each_video(self, small_benchmark, tmp_path):
        model = tmp_path / "model.skfl"
        save_flow(init_flow(16, 2, 8, seed=0), model)
        # 4,096 is longer than twice every test video, so it spans each one too
        for window in (10**12, 4096):
            (tmp_path / f"{window}.cfg").write_text(f"{SMALL_CONFIG}smoothing_window = {window}\n")
            assert run_cli(
                "score", "--tracks", small_benchmark / "test_tracks.tsv", "--model", model,
                "--out", tmp_path / str(window), "--config", tmp_path / f"{window}.cfg",
            ) == 0
        scores = (tmp_path / str(10**12) / "scores.tsv").read_bytes()
        assert scores == (tmp_path / "4096" / "scores.tsv").read_bytes()

    def test_empty_featurize_out_is_typed_error(self, tmp_path, capsys, monkeypatch):
        # "" is the current directory, not a missing --out
        monkeypatch.chdir(tmp_path)
        assert run_cli("featurize", "--tracks", "t.tsv", "--out", "") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error\tfeaturize\tSchemaError\t.: is a directory"
        ]
        assert not list(tmp_path.iterdir())

    def test_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("check", "--grid", "stride=1,2")
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["featurize", "score"])
    def test_track_file_without_snippet_is_typed_error(self, tmp_path, capsys, command):
        # 3 frames, shorter than one window of the default 16
        pose = ";".join(["1.0,2.0,1.0"] * 17)
        tracks = tmp_path / "tracks.tsv"
        tracks.write_text("".join(f"v\t0\t{t}\t{pose}\n" for t in range(3)))
        model = tmp_path / "model.skfl"
        save_flow(init_flow(64, 2, 8, seed=0), model)
        out = tmp_path / "out"
        argv = {
            "featurize": ["featurize", "--tracks", tracks, "--out", out / "f.skem"],
            "score": ["score", "--tracks", tracks, "--model", model, "--out", out],
        }[command]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error\t{command}\tSchemaError\twindow: {tracks}: no snippet of window_length = 16; "
            "dropped 0 zero-dominated and 0 degenerate window(s)"
        ]
        assert not out.exists()

    def test_train_with_empty_normal_selection_is_typed_error(self, tmp_path, capsys):
        matrix = np.random.default_rng(0).random((2, 8))
        write_embeddings(["v:0:0", "v:0:1"], matrix, tmp_path / "f.skem")
        (tmp_path / "selected_normal.tsv").write_text("")
        (tmp_path / "selected_abnormal.tsv").write_text("v:0:1\t0.050000\n")
        status = run_cli(
            "train", "--features", tmp_path / "f.skem", "--selection", tmp_path,
            "--out", tmp_path / "out",
        )
        assert status == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error\ttrain\tEmptyBatchError\t")


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

    def test_line_break_characters_in_video_ids(self, tmp_path):
        # only LF ends a line: a video id may hold any other line break
        data = make_benchmark(
            seed=0, videos_per_class=2, test_counts={"pattern": 2, "outlier": 1}
        )
        breaks = ["\x0c", "\x85", "\u2028", "\r"]

        def renamed(videos):
            return {
                f"{v[:-3]}{breaks[i % len(breaks)]}{v[-3:]}": value
                for i, (v, value) in enumerate(sorted(videos.items()))
            }

        write_tracks(renamed(data.corpus_videos), tmp_path / "corpus_tracks.tsv")
        write_class_map(renamed(data.corpus_classes), tmp_path / "corpus_classes.tsv")
        write_tracks(renamed(data.test_videos), tmp_path / "test_tracks.tsv")
        write_labels(renamed(data.test_labels), tmp_path / "test_labels.tsv")
        save_typicality_spec(data.typicality, tmp_path / "typicality.spec")
        (tmp_path / "run.cfg").write_text(SMALL_CONFIG)
        cfg = ["--config", tmp_path / "run.cfg"]
        assert run_cli(
            "featurize", "--tracks", tmp_path / "corpus_tracks.tsv",
            "--out", tmp_path / "corpus.skem", "--classes", tmp_path / "corpus_classes.tsv",
            "--text-out", tmp_path / "texts.skem", *cfg,
        ) == 0
        texts = load_text_embeddings(tmp_path / "texts.skem")
        spec = data.typicality
        assert set(texts) == set(spec.normal_actions + spec.abnormal_actions)
        assert run_cli(
            "select", "--features", tmp_path / "corpus.skem", "--texts", tmp_path / "texts.skem",
            "--classes", tmp_path / "corpus_classes.tsv", "--spec", tmp_path / "typicality.spec",
            "--out", tmp_path / "sel", *cfg,
        ) == 0
        assert run_cli(
            "train", "--features", tmp_path / "corpus.skem", "--selection", tmp_path / "sel",
            "--out", tmp_path / "model", *cfg,
        ) == 0
        assert run_cli(
            "score", "--tracks", tmp_path / "test_tracks.tsv",
            "--model", tmp_path / "model" / "model.skfl", "--out", tmp_path / "scores", *cfg,
        ) == 0
        assert run_cli(
            "eval", "--scores", tmp_path / "scores" / "scores.tsv",
            "--labels", tmp_path / "test_labels.tsv", "--out", tmp_path / "report", *cfg,
        ) == 0

    def test_score_from_features_file(self, small_benchmark, tmp_path, capsys):
        # stored rows are gathered by ref, so their order in the file is free
        root = small_benchmark
        cfg = ["--config", root / "run.cfg"]
        model = tmp_path / "model.skfl"
        save_flow(init_flow(16, 2, 8, seed=0), model)
        assert run_cli(
            "featurize", "--tracks", root / "test_tracks.tsv", "--out", tmp_path / "f.skem", *cfg
        ) == 0
        store = load_embeddings(tmp_path / "f.skem")
        order = np.random.default_rng(0).permutation(len(store))
        shuffled = [store.refs[i] for i in order]
        write_embeddings(shuffled, store.matrix[order], tmp_path / "shuffled.skem")
        write_embeddings(shuffled[1:], store.matrix[order[1:]], tmp_path / "missing.skem")

        def score(name):
            return run_cli(
                "score", "--tracks", root / "test_tracks.tsv", "--model", model,
                "--features", tmp_path / f"{name}.skem", "--out", tmp_path / name, *cfg,
            )

        assert score("f") == 0
        assert score("shuffled") == 0
        for output in ("scores.tsv", "details.tsv"):
            written = (tmp_path / "f" / output).read_bytes()
            assert written and written == (tmp_path / "shuffled" / output).read_bytes()
        capsys.readouterr()
        assert score("missing") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error\tscore\tMissingEmbeddingError\tfeaturize: no feature stored for {shuffled[0]!r}"
        ]
        assert not (tmp_path / "missing").exists()

    def test_score_from_tracks_equals_score_from_their_features(self, small_benchmark, tmp_path):
        # one value per feature: `score` scores the float32 rows `featurize` stores
        root = small_benchmark
        tracks, model, skem = root / "test_tracks.tsv", tmp_path / "model.skfl", tmp_path / "f.skem"
        cfg = ["--tracks", tracks, "--config", root / "run.cfg"]
        save_flow(init_flow(16, 2, 8, seed=0), model)
        assert run_cli("featurize", "--out", skem, *cfg) == 0
        assert run_cli("score", "--model", model, "--out", tmp_path / "tracks", *cfg) == 0
        assert run_cli(
            "score", "--model", model, "--features", skem, "--out", tmp_path / "skem", *cfg
        ) == 0
        for output in ("scores.tsv", "details.tsv"):
            written = (tmp_path / "tracks" / output).read_bytes()
            assert written and written == (tmp_path / "skem" / output).read_bytes()

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

    def test_featurize_out_names_the_skem_file(self, small_benchmark, tmp_path):
        # any --out is the .skem file itself, with or without the suffix
        root = small_benchmark
        for out in (tmp_path / "a" / "f", tmp_path / "b" / "f.skem"):
            assert run_cli(
                "featurize", "--tracks", root / "test_tracks.tsv", "--out", out,
                "--config", root / "run.cfg",
            ) == 0
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
            "config.featurize.resolved", "f", "f.idx",
        ]
        for a, b in (("f", "f.skem"), ("f.idx", "f.skem.idx")):
            assert (tmp_path / "a" / a).read_bytes() == (tmp_path / "b" / b).read_bytes()

    @pytest.mark.parametrize("flag", ["--out", "--text-out"])
    def test_featurize_output_directory_is_typed_error(
        self, small_benchmark, tmp_path, capsys, flag
    ):
        folder = tmp_path / "folder"
        folder.mkdir()
        outputs = {"--out": tmp_path / "f.skem", "--text-out": tmp_path / "t.skem"}
        outputs[flag] = folder
        argv = [
            "featurize", "--tracks", small_benchmark / "corpus_tracks.tsv",
            "--classes", small_benchmark / "corpus_classes.tsv",
            "--config", small_benchmark / "run.cfg",
        ]
        for name, path in outputs.items():
            argv += [name, path]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error\tfeaturize\tSchemaError\t{folder}: is a directory"
        ]
        assert list(tmp_path.iterdir()) == [folder]
        assert not list(folder.iterdir())

    def test_features_config_key_is_unknown(self, small_benchmark, tmp_path, capsys):
        # --features alone picks the feature source; the old config key is gone
        root = small_benchmark
        (tmp_path / "file.cfg").write_text(SMALL_CONFIG + "features = 'file'\n")
        status = run_cli(
            "score", "--tracks", root / "test_tracks.tsv",
            "--model", tmp_path / "whatever.skfl",
            "--out", tmp_path / "out", "--config", tmp_path / "file.cfg",
        )
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error\tscore\tSchemaError\t{tmp_path / 'file.cfg'}, line 6: "
            "unknown config key 'features'"
        ]


def test_every_resolved_config_reproduces_its_run(small_benchmark, tmp_path):
    """Each command, re-run with `--config` at its own config.<stage>.resolved,
    writes the same resolved config and the same outputs (report.txt up to
    its wall time)."""
    root = small_benchmark

    def chain(out, config):
        argvs = {
            "synth": ["--out", out / "data"],
            "featurize": [
                "--tracks", root / "corpus_tracks.tsv", "--out", out / "f" / "c.skem",
                "--classes", root / "corpus_classes.tsv", "--text-out", out / "f" / "t.skem",
            ],
            "select": [
                "--features", out / "f" / "c.skem", "--texts", out / "f" / "t.skem",
                "--classes", root / "corpus_classes.tsv", "--spec", root / "typicality.spec",
                "--out", out / "sel",
            ],
            "train": [
                "--features", out / "f" / "c.skem", "--selection", out / "sel",
                "--out", out / "model",
            ],
            "score": [
                "--tracks", root / "test_tracks.tsv", "--model", out / "model" / "model.skfl",
                "--out", out / "scores",
            ],
            "eval": [
                "--scores", out / "scores" / "scores.tsv", "--labels", root / "test_labels.tsv",
                "--out", out / "report",
            ],
        }
        for command, argv in argvs.items():
            assert run_cli(command, *argv, *config(command)) == 0, command

    first, second = tmp_path / "first", tmp_path / "second"
    chain(first, lambda command: ["--config", root / "run.cfg", "--seed", "3"])
    # the directory each command writes its resolved config to
    dirs = {"synth": "data", "featurize": "f", "select": "sel", "train": "model",
            "score": "scores", "eval": "report"}
    chain(second, lambda command: [
        "--config", first / dirs[command] / f"config.{command}.resolved"
    ])
    written = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert len(written) == 23
    assert "seed = 3\n" in (first / "model" / "config.train.resolved").read_text()
    for path in written:
        a, b = (first / path).read_bytes(), (second / path).read_bytes()
        if path.name == "report.txt":
            a, b = ([line for line in x.splitlines() if not line.startswith(b"wall_seconds")]
                    for x in (a, b))
        assert a == b, path


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


def valid_input_argv(root, kind):
    """argv of one CLI run that reads valid inputs written under `root`, among
    them the one that the malformed cases of `kind` corrupt."""
    runs = write_text_inputs(root)
    # one person over 16 frames: one window of the default window_length
    (root / "tracks.tsv").write_text("".join(
        f"v\t0\t{frame}\t" + ";".join(f"{j + 1},{2 * j + frame},1" for j in range(17)) + "\n"
        for frame in range(16)
    ))
    if kind == "track-line":
        return runs["tracks.tsv"]
    if kind == "truncated-skem":
        return runs["sel/selected_normal.tsv"]
    if kind == "skfl-magic":
        save_flow(init_flow(16, 1, 4, seed=0), root / "model.skfl")
        (root / "score.cfg").write_text("joints = 17\nfeature_dim = 16\n")
        return ["score", "--tracks", root / "tracks.tsv", "--model", root / "model.skfl",
                "--config", root / "score.cfg", "--out", root / "out"]
    if kind == "spec-empty-list":
        return runs["spec.txt"]
    if kind == "config-range":
        return [*runs["labels.tsv"], "--config", root / "run.cfg"]
    if kind == "label-gap":
        return runs["labels.tsv"]
    assert kind == "label-ref-sidecar"
    # rows in another order, so that the last ref has no prefix that is a ref
    (root / "f.skem.idx").write_text("v1:0:0\nv1:0:16\nv2:0:16\nv2:0:0\n")
    return runs["f.skem.idx"]


def malformed_input_argv(root, kind):
    """argv of one CLI run that reads the hand-written malformed input of
    `kind`, written under `root` beside valid versions of the other inputs."""
    argv = valid_input_argv(root, kind)
    if kind == "track-line":
        head, _, pose = (root / "tracks.tsv").read_text().rstrip("\n").rpartition("\t")
        bad = pose.replace(",1;", ";", 1)  # joint 0 of the last line lacks its confidence
        (root / "tracks.tsv").write_text(f"{head}\t{bad}\n")
    elif kind == "truncated-skem":
        blob = (root / "f.skem").read_bytes()
        (root / "f.skem").write_bytes(blob[:-3])
    elif kind == "skfl-magic":
        blob = (root / "model.skfl").read_bytes()
        (root / "model.skfl").write_bytes(b"SKFX" + blob[4:])
    elif kind == "spec-empty-list":
        (root / "spec.txt").write_text("prompt = p\n[normal]\nwalk\n[abnormal]\n")
    elif kind == "config-range":
        (root / "run.cfg").write_text("joints = 17\nk_neighbors = 0\n")
    elif kind == "label-gap":
        (root / "labels.tsv").write_text("v\t0\t0\nv\t2\t1\n")
    else:  # select reads the class embeddings as --features
        argv = [root / "t.skem" if arg == root / "f.skem" else arg for arg in argv]
    return argv


# The file each kind of malformed input corrupts: a text file with the
# separator of the fields on its last line, or a binary file with the bytes of
# the header before its float32 values. Every valid text input above ends in a
# line of which no nonempty proper prefix is valid, so any truncation of that
# line is malformed.
TEXT_TARGETS = {
    "track-line": ("tracks.tsv", "\t"),
    "spec-empty-list": ("spec.txt", " "),
    "config-range": ("run.cfg", " = "),
    "label-gap": ("labels.tsv", "\t"),
    "label-ref-sidecar": ("f.skem.idx", ":"),
}
BINARY_TARGETS = {"truncated-skem": ("f.skem", 14), "skfl-magic": ("model.skfl", 18)}

# A corruption: a truncation, a flipped byte, a dropped or an extra field, or
# in a config an integer value of 2**63 or more, placed or sized by an integer
# taken modulo the places it can go.
CORRUPTIONS = st.tuples(
    st.sampled_from(["truncate", "flip", "drop", "extra", "oversize"]), st.integers(0, 2**16)
)


def corrupt(root, kind, how, at):
    """Corrupt the input of `kind` under `root` so that it cannot be read."""
    if how == "oversize" and kind != "config-range":
        how = "extra"  # only a config's integers have upper bounds
    if kind in BINARY_TARGETS:
        name, header = BINARY_TARGETS[kind]
        blob = bytearray((root / name).read_bytes())
        value = header + 4 * (at % ((len(blob) - header) // 4))
        if how == "truncate":
            del blob[at % len(blob) :]
        elif how == "flip":  # a header byte, since any float32 value is valid
            blob[at % header] ^= 0x80
        elif how == "drop":
            del blob[value : value + 4]
        else:
            blob[value:value] = bytes(4)
        (root / name).write_bytes(bytes(blob))
        return
    name, sep = TEXT_TARGETS[kind]
    text = (root / name).read_text()
    if how == "flip":  # any byte: the inputs are ASCII, so the result is not UTF-8
        blob = bytearray(text.encode())
        blob[at % len(blob)] ^= 0x80
        (root / name).write_bytes(bytes(blob))
        return
    *lines, last = text.removesuffix("\n").split("\n")
    fields = last.split(sep)
    if how == "truncate":  # keeps at least one character of the last line
        last = last[: 1 + at % (len(last) - 1)]
    elif how == "drop":
        del fields[at % len(fields)]
        last = sep.join(fields)
    elif how == "oversize":
        last = sep.join([*fields[:-1], str(2**63 * (1 + at))])
    else:
        last += f"{sep}x"
    (root / name).write_text("\n".join([*lines, last]) + ("" if how == "truncate" else "\n"))


MALFORMED_KINDS = [
    ("track-line", "TrackParseError"),
    ("truncated-skem", "FileFormatError"),
    ("skfl-magic", "FileFormatError"),
    ("spec-empty-list", "SchemaError"),
    ("config-range", "SchemaError"),
    ("label-gap", "SchemaError"),
    ("label-ref-sidecar", "SchemaError"),
]


@pytest.mark.parametrize("kind", [kind for kind, _ in MALFORMED_KINDS])
def test_malformed_input_cases_start_from_valid_inputs(tmp_path, kind):
    """Uncorrupted, every run below succeeds, so each failure there is the
    corruption's."""
    assert run_cli(*valid_input_argv(tmp_path, kind)) == 0


@pytest.mark.parametrize("kind, error", MALFORMED_KINDS)
@settings(max_examples=3, deadline=None)
@given(corruption=CORRUPTIONS)
@example(corruption=None)
@example(corruption=("oversize", 0))
def test_cli_process_reports_malformed_input_in_one_line(kind, error, corruption):
    """The CLI run as its own process on a malformed input of `kind`: exit 1,
    one error line naming a SentinelError, no traceback, no output. With
    `corruption` None the input is the hand-written case of `kind`, whose
    error is `error`; otherwise it is a generated corruption of its file."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if corruption is None:
            argv = malformed_input_argv(root, kind)
        else:
            argv = valid_input_argv(root, kind)
            corrupt(root, kind, *corruption)
        argv = [str(a) for a in argv]
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "skel_sentinel.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stdout + done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith(f"error\t{argv[0]}\t"), lines[0]
        name = lines[0].split("\t")[2]
        assert issubclass(getattr(errors, name, type(None)), errors.SentinelError), lines[0]
        assert corruption is not None or name == error, lines[0]
        assert not (root / "out").exists()


def test_check_subcommand_passes(capsys):
    assert run_cli("check") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


BLAS = blas.blas_thread_control()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="no OpenBLAS thread control found")


def blas_threads() -> int:
    return BLAS[2]()


@pytest.fixture(scope="module")
def selected(small_benchmark, tmp_path_factory):
    """The small benchmark's corpus features and selection, for `train`."""
    root, out = small_benchmark, tmp_path_factory.mktemp("selected")
    cfg = ["--config", root / "run.cfg"]
    assert run_cli(
        "featurize", "--tracks", root / "corpus_tracks.tsv", "--out", out / "c.skem",
        "--classes", root / "corpus_classes.tsv", "--text-out", out / "t.skem", *cfg,
    ) == 0
    assert run_cli(
        "select", "--features", out / "c.skem", "--texts", out / "t.skem",
        "--classes", root / "corpus_classes.tsv", "--spec", root / "typicality.spec",
        "--out", out / "sel", *cfg,
    ) == 0
    return out


def train_argv(selected, out, small_benchmark):
    return ["train", "--features", selected / "c.skem", "--selection", selected / "sel",
            "--out", out, "--config", small_benchmark / "run.cfg"]


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads for the test, so one thread is told apart."""
    _, set_threads, get_threads = BLAS
    previous = get_threads()
    set_threads(2)
    yield
    set_threads(previous)


@needs_openblas
class TestBlasThreadPolicy:
    def test_one_thread_inside_then_restored(self, two_blas_threads):
        with blas.one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restored_when_the_body_raises(self, two_blas_threads):
        with pytest.raises(SchemaError):
            with blas.one_blas_thread():
                raise SchemaError("boom")
        assert blas_threads() == 2

    def test_does_nothing_without_a_known_library(self, two_blas_threads, monkeypatch):
        monkeypatch.setattr(blas, "blas_thread_control", lambda: None)
        with blas.one_blas_thread():
            assert blas_threads() == 2
        assert blas_threads() == 2

    def test_score_and_train_at_one_thread(
        self, small_benchmark, selected, tmp_path, monkeypatch, two_blas_threads
    ):
        seen = []

        def recorded(name, fn):
            def wrapped(*args, **kwargs):
                seen.append((name, blas_threads()))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(pipeline, "score_scenes", recorded("score", pipeline.score_scenes))
        monkeypatch.setattr(flow, "train_flow", recorded("train", flow.train_flow))
        monkeypatch.setattr(
            flow, "nll_loss_and_grad", recorded("train step", flow.nll_loss_and_grad)
        )
        root = small_benchmark

        def train(out):
            assert run_cli(*train_argv(selected, out, root)) == 0

        def score(out):
            assert run_cli(
                "score", "--tracks", root / "test_tracks.tsv", "--model",
                tmp_path / "model" / "model.skfl", "--out", out, "--config", root / "run.cfg",
            ) == 0
            return (out / "scores.tsv").read_bytes()

        # score, train, score in one process: every command and every
        # training step runs at one thread, and the caller's count is back
        # after each
        train(tmp_path / "model")
        first = score(tmp_path / "s1")
        train(tmp_path / "model2")
        assert score(tmp_path / "s2") == first
        model = (tmp_path / "model" / "model.skfl").read_bytes()
        assert (tmp_path / "model2" / "model.skfl").read_bytes() == model
        assert set(seen) == {("train", 1), ("train step", 1), ("score", 1)}
        assert [name for name, _ in seen if name != "train step"] == [
            "train", "score", "train", "score"
        ]
        assert blas_threads() == 2

    def test_train_flow_steps_at_one_thread(self, monkeypatch, two_blas_threads):
        """A library caller of `train_flow` gets the CLI's policy too."""
        seen, step = [], flow.nll_loss_and_grad

        def recorded(*args):
            seen.append(blas_threads())
            return step(*args)

        monkeypatch.setattr(flow, "nll_loss_and_grad", recorded)
        rng = np.random.default_rng(0)
        flow.train_flow(
            flow.init_flow(4, 2, 8, seed=1), rng.standard_normal((20, 4)), None,
            RunConfig(batch_size=8, epochs=2),
        )
        assert seen == [1] * 6
        assert blas_threads() == 2


# the variables OpenBLAS reads its start count from
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**variables: str) -> dict[str, str]:
    """A CLI child's environment: this one, with the sources on PYTHONPATH,
    none of OpenBLAS's thread variables, and then `variables`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**env, **variables}


def run_child(*args, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, env=env or child_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


# the modules that `eval`, `--help` and usage errors have no use for
SCORING_MODULES = {
    f"skel_sentinel.{name}" for name in ("flow", "context", "featurize", "pipeline", "synth")
}


class TestStartUp:
    """Each test starts interpreters, about 0.15 s each."""

    def test_importing_the_cli_loads_no_numpy(self):
        done = run_child(
            "-c", "import sys, skel_sentinel.cli; print('numpy' in sys.modules)"
        )
        assert done.stdout == "False\n"

    @pytest.mark.parametrize("command", ["--help", "eval"])
    def test_no_scoring_module_is_loaded(self, tmp_path, command):
        argv = [command]
        if command == "eval":
            (tmp_path / "scores.tsv").write_text("v\t0\t0.1\nv\t1\t0.9\n")
            (tmp_path / "labels.tsv").write_text("v\t0\t0\nv\t1\t1\n")
            argv += ["--scores", tmp_path / "scores.tsv", "--labels", tmp_path / "labels.tsv",
                     "--out", tmp_path / "report"]
        done = run_child("-X", "importtime", "-m", "skel_sentinel.cli", *argv)
        modules = {
            line.rsplit("|", 1)[1].strip()
            for line in done.stderr.splitlines() if line.startswith("import time:")
        }
        assert "skel_sentinel.blas" in modules  # the CLI module itself runs as __main__
        assert not modules & SCORING_MODULES
        assert ("numpy" in modules) == (command == "eval")

    @needs_openblas
    def test_score_and_train_start_at_one_thread(self, small_benchmark, selected, tmp_path):
        """`python -m skel_sentinel.cli` as a driver that records the BLAS
        count, and the process's OS threads, on entry to the handler."""
        driver = (
            "import os, sys\n"
            "from skel_sentinel import blas, cli\n"
            "handler = cli._HANDLERS[sys.argv[1]]\n"
            "def recorded(*args):\n"
            "    threads = len(os.listdir('/proc/self/task'))\n"
            "    print('threads', blas.blas_thread_control()[2](), threads, flush=True)\n"
            "    return handler(*args)\n"
            "cli._HANDLERS[sys.argv[1]] = recorded\n"
            "cli.main()\n"
        )

        def handler_threads(*argv, env):
            return run_child("-c", driver, *argv, env=env).stdout.splitlines()[0].split()[1:]

        # one BLAS thread whatever the caller asks for, and no OpenBLAS
        # worker was ever started
        root = small_benchmark
        for env in (
            child_env(), child_env(OPENBLAS_NUM_THREADS="2"), child_env(OMP_NUM_THREADS="2")
        ):
            train = handler_threads(*train_argv(selected, tmp_path / "model", root), env=env)
            assert train == ["1", "1"]
        assert handler_threads(
            "score", "--tracks", root / "test_tracks.tsv",
            "--model", tmp_path / "model" / "model.skfl", "--out", tmp_path / "scores",
            "--config", root / "run.cfg", env=child_env(OPENBLAS_NUM_THREADS="2"),
        ) == ["1", "1"]

    def test_featurize_and_select_load_no_synth(self, small_benchmark, selected, tmp_path):
        root = small_benchmark
        classes = ["--classes", root / "corpus_classes.tsv"]
        for argv in (
            ["featurize", "--tracks", root / "corpus_tracks.tsv", "--out", tmp_path / "c.skem",
             *classes, "--text-out", tmp_path / "t.skem"],
            ["select", "--features", selected / "c.skem", "--texts", selected / "t.skem",
             *classes, "--spec", root / "typicality.spec", "--out", tmp_path / "sel"],
        ):
            done = run_child("-X", "importtime", "-m", "skel_sentinel.cli", *argv,
                             "--config", root / "run.cfg")
            assert "skel_sentinel.featurize" in done.stderr
            assert "skel_sentinel.synth" not in done.stderr
