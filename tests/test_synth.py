import numpy as np
import pytest

from skel_sentinel.config import RunConfig
from skel_sentinel.errors import SchemaError
from skel_sentinel.pipeline import extract_snippets, featurize_snippets
from skel_sentinel.synth import (
    AgentSpec,
    AnomalyEvent,
    JOINT_TEMPLATE,
    SceneConfig,
    generate_scene,
    make_benchmark,
    make_outlier_scene,
)
from skel_sentinel.typicality import read_class_map, write_class_map


def simple_cfg(video_id="v0", agents=None, length=64, seed=0, **kw):
    agents = agents or [AgentSpec("linear-walk"), AgentSpec("stationary")]
    return SceneConfig(video_id=video_id, video_length=length, agents=agents, seed=seed, **kw)


class TestGenerateScene:
    def test_no_anomalies_all_zero_labels(self):
        _, labels = generate_scene(simple_cfg())
        assert labels.sum() == 0
        assert len(labels) == 64

    def test_same_seed_identical(self):
        t1, l1 = generate_scene(simple_cfg(seed=5))
        t2, l2 = generate_scene(simple_cfg(seed=5))
        np.testing.assert_array_equal(l1, l2)
        for a, b in zip(t1, t2):
            for fa, fb in zip(a.frames, b.frames):
                assert fa.xy.tobytes() == fb.xy.tobytes()

    def test_labels_cover_exact_interval(self):
        agents = [
            AgentSpec("linear-walk", events=[AnomalyEvent("fast-run", 100, 150)]),
            AgentSpec("linear-walk"),
        ]
        _, labels = generate_scene(simple_cfg(agents=agents, length=200))
        np.testing.assert_array_equal(np.flatnonzero(labels), np.arange(100, 151))

    def test_presence_window_limits_track(self):
        agents = [
            AgentSpec("linear-walk"),
            AgentSpec("fast-run", appear_at=30, leave_at=49, anomalous=True),
        ]
        tracks, labels = generate_scene(simple_cfg(agents=agents, length=64))
        assert tracks[1].frames[0].frame_index == 30
        assert tracks[1].frames[-1].frame_index == 49
        np.testing.assert_array_equal(np.flatnonzero(labels), np.arange(30, 50))

    def test_coordinates_finite_and_inside_canvas(self):
        cfg = simple_cfg(
            agents=[AgentSpec(p) for p in ("linear-walk", "fast-run", "erratic-jitter", "weave-walk")],
            length=128,
        )
        tracks, _ = generate_scene(cfg)
        w, h = cfg.canvas
        for track in tracks:
            for frame in track.frames:
                assert np.isfinite(frame.xy).all()
                assert (frame.xy[:, 0] > -60).all() and (frame.xy[:, 0] < w + 60).all()
                assert (frame.xy[:, 1] > -60).all() and (frame.xy[:, 1] < h + 60).all()

    def test_event_outside_video_rejected(self):
        with pytest.raises(SchemaError):
            simple_cfg(agents=[AgentSpec("linear-walk", events=[AnomalyEvent("fast-run", 0, 99)])], length=50)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SchemaError):
            simple_cfg(agents=[AgentSpec("moonwalk")])

    def test_template_shape(self):
        assert JOINT_TEMPLATE.shape == (17, 2)


class TestPatternSeparability:
    def test_between_class_distance_dominates_in_scene(self):
        # the operating regime of the context graphs: several agents per
        # pattern sharing a scene, headings spread around one crowd direction
        cfg = RunConfig()
        classes = ["linear-walk", "stationary", "fast-run", "erratic-jitter"]
        rng = np.random.default_rng(0)
        same_all, diff_all = [], []
        for scene_i in range(3):
            crowd = float(rng.uniform(0, 360))
            agents, owner = [], []
            for name in classes:
                for _ in range(3):
                    agents.append(
                        AgentSpec(name, heading_deg=crowd + float(rng.uniform(-15, 15)))
                    )
                    owner.append(name)
            scene = SceneConfig(
                video_id=f"s{scene_i}", video_length=48, agents=agents,
                seed=500 + scene_i, canvas=(2048.0, 2048.0),
            )
            tracks, _ = generate_scene(scene)
            table = extract_snippets({scene.video_id: tracks}, 16, 8)
            _, feats, _ = featurize_snippets(table, cfg.feature_dim, 0)
            labels = [owner[person] for person in table.person_ids.tolist()]
            for i in range(len(feats)):
                for j in range(i + 1, len(feats)):
                    d = float(np.linalg.norm(feats[i] - feats[j]))
                    (same_all if labels[i] == labels[j] else diff_all).append(d)
        assert np.mean(diff_all) >= 2.0 * np.mean(same_all)


class TestOutlierScene:
    def test_structure(self):
        tracks, outlier = make_outlier_scene("s", seed=3, n_conforming=8)
        assert len(tracks) == 9
        assert outlier == 8
        assert all(len(t.frames) == 160 for t in tracks)


class TestBenchmark:
    def test_composition_and_determinism(self):
        a = make_benchmark(seed=0, videos_per_class=2, test_counts={"pattern": 2, "outlier": 1})
        b = make_benchmark(seed=0, videos_per_class=2, test_counts={"pattern": 2, "outlier": 1})
        assert sorted(a.corpus_videos) == sorted(b.corpus_videos)
        assert sorted(a.test_videos) == sorted(b.test_videos)
        assert a.manifest == b.manifest
        for vid in a.test_labels:
            np.testing.assert_array_equal(a.test_labels[vid], b.test_labels[vid])
        kinds = sorted(a.manifest.values())
        assert kinds == ["outlier", "pattern", "pattern"]

    def test_labels_match_video_length(self):
        data = make_benchmark(seed=1, videos_per_class=1, test_counts={"pattern": 1, "outlier": 1})
        for vid, labels in data.test_labels.items():
            length = max(f.frame_index for t in data.test_videos[vid] for f in t.frames) + 1
            assert len(labels) == length
            assert labels.sum() > 0

    def test_typicality_spec_covers_corpus_classes(self):
        data = make_benchmark(seed=2, videos_per_class=1, test_counts={"pattern": 1, "outlier": 1})
        listed = set(data.typicality.normal_actions) | set(data.typicality.abnormal_actions)
        assert set(data.corpus_classes.values()) == listed

    @pytest.mark.parametrize("kind", ["none", "Pattern"])
    def test_unknown_test_kind_rejected(self, kind):
        with pytest.raises(SchemaError, match=f"unknown test kind '{kind}'"):
            make_benchmark(seed=0, videos_per_class=1, test_counts={kind: 1, "outlier": 1})


def test_class_map_round_trip(tmp_path):
    classes = {"v1": "linear-walk", "v2": "fast-run"}
    path = tmp_path / "classes.tsv"
    write_class_map(classes, path)
    assert read_class_map(path) == classes
