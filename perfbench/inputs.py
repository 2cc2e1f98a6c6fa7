"""Workload inputs, generated from the benchmark seed.

Runs as a child process with the program's sources on PYTHONPATH:

    python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR

and writes the files the workload's CLI chain reads, plus `manifest.json`
with the input size. The seed feeds only this data generation; the program's
own config stays at its defaults (seed 0 for the projection and the flow).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from skel_sentinel.evaluation import write_labels
from skel_sentinel.pose_io import write_tracks
from skel_sentinel.synth import (
    CANVAS_MARGIN,
    PATTERNS,
    AgentSpec,
    AnomalyEvent,
    SceneConfig,
    generate_scene,
    make_benchmark,
    write_class_map,
)
from skel_sentinel.typicality import save_typicality_spec

WINDOW_LENGTH = 16  # RunConfig default

# Model for the score workloads: the default train chain on the corpus half
# of a fixed `synth --seed 0` bundle with half the default videos per class,
# so that set-up (repeated three times per run) stays a few seconds. The
# model is the same for every benchmark seed; the scored videos are not.
MODEL_CORPUS_SEED = 0
MODEL_CORPUS_PER_CLASS = 8

# crowd-stride1 scores the test half of a bundle with the default scene
# shape: 224 frames, 8 persons per scene and 10 in the incursion scene
# (pattern_002), the default bundle's largest scene.
CROWD_TEST_COUNTS = {"pattern": 3, "outlier": 1}

# long-stride16: a few long videos with 2-3 walkers each and one anomaly.
LONG_VIDEOS = 4
LONG_FRAMES = 2500
LONG_EVENT_FRAMES = 64
LONG_STRIDE = 16

# train-corpus: the default bundle; its micro_auc is measured by scoring
# these test videos with the trained model, outside the timed chain.
TRAIN_CHECK_COUNTS = {"pattern": 1, "outlier": 1}


def write_corpus(data, out: Path) -> None:
    write_tracks(data.corpus_videos, out / "corpus_tracks.tsv")
    write_class_map(data.corpus_classes, out / "corpus_classes.tsv")
    save_typicality_spec(data.typicality, out / "typicality.spec")


def write_test(videos, labels, out: Path) -> None:
    write_tracks(videos, out / "test_tracks.tsv")
    write_labels(labels, out / "test_labels.tsv")


def input_size(videos, stride: int) -> dict[str, int]:
    """Input size of a track set: videos, pose lines, frames and windows."""
    tracks = [t for video in videos.values() for t in video]
    return {
        "videos": len(videos),
        "persons": len(tracks),
        "pose_lines": sum(len(t.frames) for t in tracks),
        "frames": sum(
            max(t.frames[-1].frame_index for t in video) + 1 for video in videos.values()
        ),
        "windows": sum(
            len(range(0, t.length - WINDOW_LENGTH + 1, stride)) for t in tracks
        ),
    }


def long_videos(seed: int, n_videos: int = LONG_VIDEOS, length: int = LONG_FRAMES):
    """Long walker scenes, one typically abnormal event each.

    The canvas is sized so that no agent reaches a wall even at the fastest
    pattern's speed for the whole video: a wall bounce flips the heading and
    would read as spurious uniqueness.
    """
    rng = np.random.default_rng(seed)
    travel = max(p.speed for p in PATTERNS.values()) * length
    travel += max(p.sway for p in PATTERNS.values())
    side = 2 * CANVAS_MARGIN + travel / 0.45 + 1.0
    anomalies = ("fast-run", "erratic-jitter")
    videos, labels = {}, {}
    for i in range(n_videos):
        heading = rng.random() * 360.0
        agents = [
            AgentSpec("linear-walk", heading_deg=heading + rng.uniform(-15.0, 15.0))
            for _ in range(3 if i % 2 == 0 else 2)
        ]
        start = LONG_STRIDE * int(rng.integers(4, (length - 2 * LONG_EVENT_FRAMES) // LONG_STRIDE))
        event = AnomalyEvent(anomalies[i % 2], start, start + LONG_EVENT_FRAMES - 1)
        agents[0] = AgentSpec("linear-walk", events=[event], heading_deg=agents[0].heading_deg)
        video_id = f"long_{i:03d}"
        cfg = SceneConfig(
            video_id, length, agents, seed=int(rng.integers(2**31)), canvas=(side, side)
        )
        videos[video_id], labels[video_id] = generate_scene(cfg)
    return videos, labels


def generate(workload: str, seed: int, out: Path) -> dict[str, int]:
    """Write the workload's input files into `out`; returns the input size."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "train-corpus":
        data = make_benchmark(seed=seed, test_counts=TRAIN_CHECK_COUNTS)
        write_corpus(data, out)
        write_test(data.test_videos, data.test_labels, out)
        return input_size(data.corpus_videos, 1)

    model_data = make_benchmark(
        seed=MODEL_CORPUS_SEED, videos_per_class=MODEL_CORPUS_PER_CLASS, test_counts={}
    )
    write_corpus(model_data, out)
    if workload == "crowd-stride1":
        data = make_benchmark(seed=seed, test_counts=CROWD_TEST_COUNTS)
        videos, labels, stride = data.test_videos, data.test_labels, 1
    elif workload == "long-stride16":
        videos, labels = long_videos(seed)
        stride = LONG_STRIDE
        (out / "score.cfg").write_text(f"stride = {LONG_STRIDE}\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    write_test(videos, labels, out)
    return input_size(videos, stride)


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    size = generate(workload, seed, out)
    (out / "manifest.json").write_text(json.dumps(size, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
