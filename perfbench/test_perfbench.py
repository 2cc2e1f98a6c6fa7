"""Tests of the benchmark itself, on a tiny synthetic bundle.

    python3 -m pytest perfbench

They run the benchmark's orchestrator with a generator that writes a tiny
bundle, so every workload kind and both trace modes finish in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import verify

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"

TINY_GENERATOR = '''
import json, sys
from pathlib import Path
sys.path.insert(0, {here!r})
import inputs
from skel_sentinel.synth import make_benchmark

workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
out.mkdir(parents=True, exist_ok=True)
data = make_benchmark(seed=seed, videos_per_class=2, test_counts={{"pattern": 1, "outlier": 1}})
inputs.write_corpus(data, out)
if workload == "long-stride16":
    videos, labels = inputs.long_videos(seed, n_videos=2, length=400)
    (out / "score.cfg").write_text("stride = 16\\n")
    stride = 16
else:
    videos, labels, stride = data.test_videos, data.test_labels, 1
inputs.write_test(videos, labels, out)
size = inputs.input_size(data.corpus_videos if workload == "train-corpus" else videos,
                    1 if workload == "train-corpus" else stride)
(out / "manifest.json").write_text(json.dumps(size))
'''


@pytest.fixture(scope="module")
def generator(tmp_path_factory) -> list[str]:
    path = tmp_path_factory.mktemp("gen") / "tiny_inputs.py"
    path.write_text(TINY_GENERATOR.format(here=str(HERE)))
    return [sys.executable, str(path)]


def _measure(workload, trace, generator, tmp_path):
    return run.measure(workload, 1, 0.0, trace, SRC, tmp_path / "work", generator)


@pytest.mark.parametrize(
    "workload, trace",
    [("crowd-stride1", False), ("long-stride16", True), ("train-corpus", True)],
)
def test_every_metric_is_emitted_with_its_unit(workload, trace, generator, tmp_path):
    result = _measure(workload, trace, generator, tmp_path)
    expected = layers.METRICS if trace else run.END_TO_END
    line = run.final_line([result])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(m["value"] is not None for m in line["metrics"].values())
    # the traced chains wrote the CLI's bytes and counted the CLI's work
    assert result["problems"] == []
    if trace:
        assert result["trace_detail"]["problems"] == []
    assert result["attempted"] >= run.MIN_ITERATIONS
    assert result["reported"]["train_final_nll"]["value"] is not None
    if trace:
        _drift_is_caught(workload, tmp_path / "work")


def _drift_is_caught(workload, work):
    """Changed bytes or a changed exact count in the traced chain fail it."""
    kind = run.WORKLOADS[workload]["kind"]
    traced = json.loads((work / "traced_chain" / "result.json").read_text())
    cli_out = max(work.glob("chain*"), key=lambda p: int(p.name[5:]))
    expected = run.cli_counts(cli_out, kind)
    out = work / "traced_chain" / "out"
    assert run.compare_traced(traced, out, cli_out, kind, expected) == []
    traced["counts"]["pose_io.windows_kept"] += 1
    assert run.compare_traced(traced, out, cli_out, kind, expected)
    traced["counts"]["pose_io.windows_kept"] -= 1
    first = out / (run.SCORE_OUTPUTS if kind == "score" else run.TRAIN_OUTPUTS)[0]
    first.write_bytes(first.read_bytes() + b"\n")
    assert run.compare_traced(traced, out, cli_out, kind, expected)


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    # long-stride16 stays runnable by name; its wall_s is too noisy for any bound
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in run.WORKLOADS if w != "long-stride16"
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert spec["paths"] == ["perfbench"]


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


@pytest.fixture
def labeled(tmp_path):
    labels = _write(tmp_path / "labels.tsv", [f"v\t{f}\t{int(f == 2)}" for f in range(4)])
    scores = [f"v\t{f}\t{0.5 * f:.6f}" for f in range(4)]
    return labels, scores


def test_output_check_accepts_full_scores(labeled, tmp_path):
    labels, scores = labeled
    assert verify.check_scores(_write(tmp_path / "s.tsv", scores), labels) == []


def test_output_check_fails_on_truncated_scores(labeled, tmp_path):
    labels, scores = labeled
    assert verify.check_scores(_write(tmp_path / "s.tsv", scores[:-1]), labels)
    # a torn last line is caught too
    torn = _write(tmp_path / "t.tsv", scores)
    torn.write_text(torn.read_text()[:-12], encoding="utf-8")
    assert verify.check_scores(torn, labels)


def test_output_check_fails_on_nan(labeled, tmp_path):
    labels, scores = labeled
    scores[1] = "v\t1\tnan"
    assert verify.check_scores(_write(tmp_path / "s.tsv", scores), labels)


def test_stride_allows_only_the_tail_no_window_reaches(labeled, tmp_path):
    labels, scores = labeled
    assert verify.check_scores(_write(tmp_path / "s.tsv", scores[:-1]), labels, stride=2) == []
    assert verify.check_scores(_write(tmp_path / "s.tsv", scores[:-2]), labels, stride=2)
    assert verify.check_scores(_write(tmp_path / "s.tsv", scores[1:]), labels, stride=2)


def test_micro_auc_gate(tmp_path):
    low = _write(tmp_path / "low.txt", ["micro_auc = 0.899999"])
    high = _write(tmp_path / "high.txt", ["micro_auc = 0.900000"])
    assert verify.check_report(low)[1]
    assert verify.check_report(high) == (0.9, [])


def test_loss_history_check(tmp_path):
    good = _write(tmp_path / "good.tsv", ["0\t3.5", "1\t2.5"])
    assert verify.check_loss_history(good, 2) == (2.5, [])
    assert verify.check_loss_history(good, 3)[1]
    bad = _write(tmp_path / "bad.tsv", ["0\t3.5", "1\tinf"])
    assert verify.check_loss_history(bad, 2)[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd-stride1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
