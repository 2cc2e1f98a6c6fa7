"""Deterministic synthetic scenes: rigid humanoid agents with pattern-driven
motion, used as desk-scale ground truth for the end-to-end benchmark.

Patterns differ in forward speed, per-joint jitter, and lateral sway, which
is enough for the kinematic featurizer to separate them without a learned
encoder. One scene is one video; agents may be limited to a presence window
(entering and leaving mid-video).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .pose_io import PoseFrame, Track
# the class-map reader and writer live with select's other inputs;
# perfbench/traced.py (lines 278, 296) and perfbench/inputs.py (line 30)
# still import them from here
from .typicality import TypicalitySpec, read_class_map, write_class_map  # noqa: F401

# Fixed 17-joint humanoid layout (x right, y down, pixel units): nose, eyes,
# ears, shoulders, elbows, wrists, hips, knees, ankles.
JOINT_TEMPLATE = np.array(
    [
        (0.0, -40.0),
        (-3.0, -43.0), (3.0, -43.0),
        (-6.0, -41.0), (6.0, -41.0),
        (-12.0, -30.0), (12.0, -30.0),
        (-16.0, -15.0), (16.0, -15.0),
        (-18.0, 0.0), (18.0, 0.0),
        (-8.0, 0.0), (8.0, 0.0),
        (-9.0, 20.0), (9.0, 20.0),
        (-10.0, 40.0), (10.0, 40.0),
    ]
)

N_JOINTS = len(JOINT_TEMPLATE)


@dataclass(frozen=True)
class MotionPattern:
    name: str
    speed: float  # pixels per frame along the heading
    jitter: float  # per-joint per-frame noise, pixels
    sway: float = 0.0  # lateral sinusoid amplitude, pixels


SWAY_PERIOD = 32.0  # frames per sway cycle


# per-joint noise mimics pose-detector error
PATTERNS: dict[str, MotionPattern] = {
    p.name: p
    for p in (
        MotionPattern("stationary", speed=0.0, jitter=0.3),
        MotionPattern("linear-walk", speed=1.3, jitter=0.3),
        MotionPattern("fast-run", speed=4.8, jitter=0.6),
        MotionPattern("erratic-jitter", speed=0.7, jitter=3.5),
        MotionPattern("weave-walk", speed=1.3, jitter=0.3, sway=12.0),
    )
}

NORMAL_CLASSES = ["linear-walk", "stationary"]
ABNORMAL_CLASSES = ["fast-run", "erratic-jitter"]

TYPICALITY_PROMPT = (
    "Classify each of these action labels as typically normal or typically "
    "abnormal for a public surveillance scene, most typical first."
)

CANVAS = (856.0, 480.0)
CANVAS_MARGIN = 60.0


@dataclass(frozen=True)
class AnomalyEvent:
    pattern: str
    start: int  # first anomalous frame
    end: int  # last anomalous frame, inclusive


@dataclass(frozen=True)
class AgentSpec:
    base_pattern: str
    events: list[AnomalyEvent] = field(default_factory=list)
    heading_deg: float | None = None  # None: drawn from the scene rng
    appear_at: int = 0  # first frame the agent is tracked
    leave_at: int | None = None  # last tracked frame, inclusive; None = end
    anomalous: bool = False  # the agent's entire presence is an anomaly


@dataclass(frozen=True)
class SceneConfig:
    video_id: str
    video_length: int
    agents: list[AgentSpec]
    seed: int
    canvas: tuple[float, float] = CANVAS

    def __post_init__(self):
        if not self.agents:
            raise SchemaError("a scene needs at least one agent")
        if self.video_length < 1:
            raise SchemaError("video_length must be >= 1")
        for agent in self.agents:
            if agent.base_pattern not in PATTERNS:
                raise SchemaError(f"unknown pattern {agent.base_pattern!r}")
            leave = agent.leave_at if agent.leave_at is not None else self.video_length - 1
            if not (0 <= agent.appear_at <= leave < self.video_length):
                raise SchemaError(
                    f"presence [{agent.appear_at}, {leave}] outside video of "
                    f"length {self.video_length}"
                )
            for event in agent.events:
                if event.pattern not in PATTERNS:
                    raise SchemaError(f"unknown pattern {event.pattern!r}")
                if not (agent.appear_at <= event.start <= event.end <= leave):
                    raise SchemaError(
                        f"event [{event.start}, {event.end}] outside presence of "
                        f"agent in {self.video_id}"
                    )


def _unit(angle_rad: float) -> np.ndarray:
    return np.array([np.cos(angle_rad), np.sin(angle_rad)])


def generate_scene(cfg: SceneConfig) -> tuple[list[Track], np.ndarray]:
    """Simulate one scene; returns per-agent tracks and frame labels."""
    rng = np.random.default_rng(cfg.seed)
    width, height = cfg.canvas
    lo = np.array([CANVAS_MARGIN, CANVAS_MARGIN])
    hi = np.array([width - CANVAS_MARGIN, height - CANVAS_MARGIN])

    labels = np.zeros(cfg.video_length, dtype=np.int8)
    tracks = []
    for person_id, agent in enumerate(cfg.agents):
        # spawn far enough from walls that the agent cannot reach one; a
        # bounce flips the heading and would read as spurious uniqueness
        first = agent.appear_at
        last = agent.leave_at if agent.leave_at is not None else cfg.video_length - 1
        patterns = [PATTERNS[agent.base_pattern]]
        patterns.extend(PATTERNS[e.pattern] for e in agent.events)
        travel = max(p.speed for p in patterns) * (last - first + 1)
        travel += max(p.sway for p in patterns)
        inset = np.minimum(travel, (hi - lo) * 0.45)
        safe_lo, safe_hi = lo + inset, hi - inset
        pos = safe_lo + rng.random(2) * (safe_hi - safe_lo)
        angle = (
            np.deg2rad(agent.heading_deg)
            if agent.heading_deg is not None
            else rng.random() * 2.0 * np.pi
        )
        heading = _unit(angle)

        active = {e.start: e for e in agent.events}
        ends = {e.end: e for e in agent.events}
        for event in agent.events:
            labels[event.start : event.end + 1] = 1
        if agent.anomalous:
            labels[first : last + 1] = 1

        pattern = PATTERNS[agent.base_pattern]
        pattern_t0 = first
        frames = []
        for t in range(first, last + 1):
            if t in active:
                pattern = PATTERNS[active[t].pattern]
                pattern_t0 = t
            perp = np.array([-heading[1], heading[0]])
            # sway phase restarts with the pattern so switches stay continuous
            sway = pattern.sway * np.sin(2.0 * np.pi * (t - pattern_t0) / SWAY_PERIOD)
            center = pos + sway * perp
            noise = rng.standard_normal((N_JOINTS, 2)) * pattern.jitter
            xy = center + JOINT_TEMPLATE + noise
            frames.append(
                PoseFrame(
                    frame_index=t,
                    person_id=person_id,
                    xy=xy,
                    confidence=np.ones(N_JOINTS),
                )
            )
            if t in ends:
                pattern = PATTERNS[agent.base_pattern]
                pattern_t0 = t + 1

            pos = pos + pattern.speed * heading
            for axis in range(2):
                if pos[axis] < lo[axis]:
                    pos[axis] = 2 * lo[axis] - pos[axis]
                    heading[axis] = -heading[axis]
                elif pos[axis] > hi[axis]:
                    pos[axis] = 2 * hi[axis] - pos[axis]
                    heading[axis] = -heading[axis]
        tracks.append(Track(video_id=cfg.video_id, person_id=person_id, frames=frames))
    return tracks, labels


def make_outlier_scene(
    video_id: str,
    seed: int,
    n_conforming: int = 9,
    outlier_pattern: str = "erratic-jitter",
    video_length: int = 160,
) -> tuple[list[Track], int]:
    """A crowd sharing one motion pattern plus a single odd agent out.

    Conforming agents walk along a shared scene direction with small per-agent
    spread; the outlier follows `outlier_pattern` for the whole video. Returns
    the tracks and the outlier's person_id (always the last agent).
    """
    rng = np.random.default_rng(seed)
    crowd_heading = rng.random() * 360.0
    agents = [
        AgentSpec("linear-walk", heading_deg=crowd_heading + rng.uniform(-15.0, 15.0))
        for _ in range(n_conforming)
    ]
    agents.append(AgentSpec(outlier_pattern))
    cfg = SceneConfig(
        video_id=video_id,
        video_length=video_length,
        agents=agents,
        seed=seed + 1,
        canvas=(2048.0, 2048.0),
    )
    tracks, _ = generate_scene(cfg)
    return tracks, n_conforming


# Benchmark defaults: sizes chosen so the whole pipeline stays under a couple
# of minutes on a laptop CPU while leaving clear score margins.
CORPUS_CLASSES = NORMAL_CLASSES + ABNORMAL_CLASSES
CORPUS_VIDEOS_PER_CLASS = 16
CORPUS_VIDEO_LENGTH = 96
TEST_VIDEO_LENGTH = 224
# every test video carries an anomaly, as in real VAD test sets; the
# per-video standardization of the fusion stage is only well calibrated when
# an anomaly anchors the video's score scale
TEST_VIDEOS_PATTERN = 15  # every third one is an incursion, the rest switches
TEST_VIDEOS_OUTLIER = 15
# test kind -> its scene-seed offset index; the offsets are part of every
# bundle's bytes, so they stay fixed
TEST_KINDS = {"pattern": 1, "outlier": 2}
TEST_WALKERS = 7  # plus one scene-dependent extra agent
# large enough that nobody reaches a wall in TEST_VIDEO_LENGTH frames;
# wall bounces flip headings and would inject spurious uniqueness
TEST_CANVAS = (2048.0, 2048.0)
# short interval relative to the video: video-level standardization caps the
# anomalous z at sqrt((1-p)/p) for anomalous snippet fraction p, so p must
# stay small
ANOMALY_START = 64
ANOMALY_END = 111


@dataclass
class BenchmarkData:
    corpus_videos: dict[str, list[Track]]
    corpus_classes: dict[str, str]  # video_id -> action class
    test_videos: dict[str, list[Track]]
    test_labels: dict[str, np.ndarray]
    manifest: dict[str, str]  # video_id -> pattern | outlier
    typicality: TypicalitySpec


def make_benchmark(
    seed: int = 0,
    videos_per_class: int = CORPUS_VIDEOS_PER_CLASS,
    test_counts: dict[str, int] | None = None,
) -> BenchmarkData:
    if test_counts is None:
        test_counts = {"pattern": TEST_VIDEOS_PATTERN, "outlier": TEST_VIDEOS_OUTLIER}
    unknown = sorted(set(test_counts) - set(TEST_KINDS))
    if unknown:
        raise SchemaError(
            f"test_counts: unknown test kind {unknown[0]!r}, expected one of {list(TEST_KINDS)}"
        )
    corpus_videos: dict[str, list[Track]] = {}
    corpus_classes: dict[str, str] = {}
    scene_seed = seed * 1_000_003
    for class_name in CORPUS_CLASSES:
        for i in range(videos_per_class):
            video_id = f"corpus_{class_name}_{i:03d}"
            scene_seed += 1
            cfg = SceneConfig(
                video_id=video_id,
                video_length=CORPUS_VIDEO_LENGTH,
                agents=[AgentSpec(class_name)],
                seed=scene_seed,
            )
            tracks, _ = generate_scene(cfg)
            corpus_videos[video_id] = tracks
            corpus_classes[video_id] = class_name

    test_videos: dict[str, list[Track]] = {}
    test_labels: dict[str, np.ndarray] = {}
    manifest: dict[str, str] = {}
    pattern_anomalies = ["fast-run", "erratic-jitter"]
    for kind, kind_index in TEST_KINDS.items():
        for i in range(test_counts.get(kind, 0)):
            video_id = f"test_{kind}_{i:03d}"
            scene_seed += 1
            scene_rng = np.random.default_rng(scene_seed)
            crowd_heading = scene_rng.random() * 360.0

            def walker(offset_deg: float = 0.0) -> AgentSpec:
                return AgentSpec(
                    "linear-walk",
                    heading_deg=crowd_heading
                    + offset_deg
                    + scene_rng.uniform(-15.0, 15.0),
                )

            agents = [walker() for _ in range(TEST_WALKERS)]
            if kind == "pattern":
                # a counter-flow walker is unique in scene but typically
                # normal; only the typicality family can clear it
                agents.append(walker(180.0))
                if i % 3 == 2:
                    # incursion: a same-heading running pair crosses the scene
                    # only during the interval; their short tracks have no
                    # self-inspection partners and they are each other's
                    # nearest cross-person neighbors, so only typicality can
                    # flag them
                    chase_heading = crowd_heading + scene_rng.uniform(20.0, 70.0)
                    for _ in range(2):
                        agents.append(
                            AgentSpec(
                                "fast-run",
                                heading_deg=chase_heading + scene_rng.uniform(-3.0, 3.0),
                                appear_at=ANOMALY_START,
                                leave_at=ANOMALY_END,
                                anomalous=True,
                            )
                        )
                else:
                    # one agent switches to a typically abnormal pattern
                    anomaly = pattern_anomalies[i % len(pattern_anomalies)]
                    agents[0] = AgentSpec(
                        "linear-walk",
                        events=[AnomalyEvent(anomaly, ANOMALY_START, ANOMALY_END)],
                        heading_deg=agents[0].heading_deg,
                    )
            else:
                agents.append(walker())
                agents[0] = AgentSpec(
                    "linear-walk",
                    events=[AnomalyEvent("weave-walk", ANOMALY_START, ANOMALY_END)],
                    heading_deg=agents[0].heading_deg,
                )
            cfg = SceneConfig(
                video_id=video_id,
                video_length=TEST_VIDEO_LENGTH,
                agents=agents,
                seed=scene_seed + 7 * kind_index,
                canvas=TEST_CANVAS,
            )
            tracks, labels = generate_scene(cfg)
            test_videos[video_id] = tracks
            test_labels[video_id] = labels
            manifest[video_id] = kind

    spec = TypicalitySpec(
        normal_actions=list(NORMAL_CLASSES),
        abnormal_actions=list(ABNORMAL_CLASSES),
        prompt_text=TYPICALITY_PROMPT,
    )
    return BenchmarkData(
        corpus_videos=corpus_videos,
        corpus_classes=corpus_classes,
        test_videos=test_videos,
        test_labels=test_labels,
        manifest=manifest,
        typicality=spec,
    )
