"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
heavyweight fixtures (cluster training, the end-to-end benchmark) are
session-scoped and shared across criteria.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from skel_sentinel.checks import (
    density_integral,
    gradient_max_rel_error,
    invertibility_error,
    logdet_max_error,
    make_perturbed_flow,
)
from skel_sentinel.config import RunConfig
from skel_sentinel.context import (
    SceneIndex,
    cross_person_neighbors,
    self_inspection_neighbors,
    video_uniqueness_scores,
)
from skel_sentinel.evaluation import LabeledVideo, micro_auc, run_benchmark, write_labels
from skel_sentinel.featurize import FeatureStore, TextEmbedding, class_prototypes
from skel_sentinel.flow import init_flow, save_flow, train_flow, typicality_score
from skel_sentinel.pipeline import extract_snippets, featurize_snippets
from skel_sentinel.pose_io import write_tracks
from skel_sentinel.synth import make_benchmark, make_outlier_scene
from skel_sentinel.typicality import TypicalitySpec, select_typical


def report(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- shared heavyweight artifacts -------------------------------------------

@pytest.fixture(scope="session")
def cluster_flow():
    """Criterion 5 training run; its trained D=64 flow also feeds criterion 1."""
    rng = np.random.default_rng(42)
    dim = 64
    center_n = rng.standard_normal(dim) * 2.0
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    center_a = center_n + 6.0 * direction
    train_n = center_n + rng.standard_normal((4096, dim))
    train_a = center_a + rng.standard_normal((4096, dim))
    test_n = center_n + rng.standard_normal((2000, dim))
    test_a = center_a + rng.standard_normal((2000, dim))

    model = init_flow(dim, 4, 128, seed=7)
    started = time.perf_counter()
    model, history = train_flow(
        model, train_n, train_a, RunConfig(epochs=50, seed=7)
    )
    seconds = time.perf_counter() - started

    scores = np.concatenate(
        [np.asarray(typicality_score(model, test_n)), np.asarray(typicality_score(model, test_a))]
    )
    labels = np.concatenate([np.zeros(2000, dtype=np.int8), np.ones(2000, dtype=np.int8)])
    auc = micro_auc([LabeledVideo("clusters", labels, scores)])
    return {"model": model, "auc": auc, "seconds": seconds, "history": history}


def run_full_pipeline(out_dir, seed=0):
    """synth -> featurize -> select -> train -> score -> eval, files included."""
    cfg = RunConfig(seed=seed)
    data = make_benchmark(seed=seed)
    corpus_snippets = extract_snippets(data.corpus_videos, cfg.window_length, cfg.stride)
    refs, matrix, meta = featurize_snippets(corpus_snippets, cfg.feature_dim, cfg.seed)
    store = FeatureStore(refs, matrix)
    labels_map = {r: data.corpus_classes[v] for r, v in zip(refs, meta.video_ids)}
    prototypes = class_prototypes(store, labels_map)
    selection = select_typical(
        store, prototypes, labels_map, data.typicality, cfg.beta_normal, cfg.beta_abnormal
    )
    data_n, data_a = store.rows(selection.normal_refs), store.rows(selection.abnormal_refs)
    model = init_flow(cfg.feature_dim, cfg.flow_layers, cfg.hidden_width, cfg.seed)
    model, _ = train_flow(model, data_n, data_a, cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    tracks_path = out_dir / "test_tracks.tsv"
    labels_path = out_dir / "test_labels.tsv"
    model_path = out_dir / "model.skfl"
    write_tracks(data.test_videos, tracks_path)
    write_labels(data.test_labels, labels_path)
    save_flow(model, model_path)
    bench = run_benchmark(tracks_path, model_path, labels_path, out_dir, cfg)
    return bench, data.manifest


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_benchmark")
    first, manifest = run_full_pipeline(root / "run1", seed=0)
    second, _ = run_full_pipeline(root / "run2", seed=0)
    return {"first": first, "second": second, "manifest": manifest, "root": root}


# -- criteria ----------------------------------------------------------------

def test_criterion_1_invertibility(cluster_flow):
    started = time.perf_counter()
    err = invertibility_error(cluster_flow["model"], 1000, seed=100)
    seconds = time.perf_counter() - started
    report(
        1, err <= 1e-5 and seconds < 5.0,
        f"max roundtrip error {err:.2e} (tol 1e-5), {seconds:.2f}s (< 5s)",
    )


def test_criterion_2_logdet():
    worst = 0.0
    for dim in (2, 4, 6):
        model = make_perturbed_flow(dim, 4, 16, seed=200 + dim, scale=0.1)
        worst = max(worst, logdet_max_error(model, 100, seed=300 + dim))
    report(2, worst <= 1e-4, f"max |analytic - numeric Jacobian logdet| {worst:.2e} (tol 1e-4)")


def test_criterion_3_gradients():
    model = make_perturbed_flow(4, 2, 8, seed=400, scale=0.1)
    rng = np.random.default_rng(401)
    rel = gradient_max_rel_error(
        model, rng.standard_normal((6, 4)), rng.standard_normal((5, 4)) + 2.0
    )
    report(3, rel <= 1e-4, f"max relative gradient error {rel:.2e} (tol 1e-4)")


def test_criterion_4_density_normalization():
    worst = 0.0
    for seed in (500, 501):
        model = make_perturbed_flow(2, 4, 16, seed=seed, scale=0.05)
        worst = max(worst, abs(density_integral(model) - 1.0))
    report(4, worst <= 0.02, f"max |grid integral - 1| = {worst:.4f} (tol 0.02)")


def test_criterion_5_typicality_learning(cluster_flow):
    auc = cluster_flow["auc"]
    seconds = cluster_flow["seconds"]
    history = cluster_flow["history"]
    ok = auc >= 0.95 and seconds < 60.0 and len(history) <= 50
    report(
        5, ok,
        f"cluster AUC {auc:.4f} (>= 0.95) in {len(history)} epochs, {seconds:.1f}s (< 60s)",
    )


def test_criterion_6_knn_oracle_equivalence():
    k, alpha, window = 16, 4.0, 16
    rng = np.random.default_rng(600)
    mismatches = 0
    for scene in range(50):
        n = int(rng.integers(20, 201))
        persons = rng.integers(0, int(rng.integers(2, 7)), n)
        times = rng.permutation(n * 8)[:n]  # unique, so (person, time) is unique
        features = rng.standard_normal((n, 16))
        refs = [f"s{scene}:{p}:{t}" for p, t in zip(persons, times)]
        index = SceneIndex(f"s{scene}", refs, persons, times, features)
        cross = cross_person_neighbors(index, k)
        inspect = self_inspection_neighbors(index, k, alpha, window)

        def engine(graph, row):
            m = int(graph.counts[row])
            kept = zip(graph.members[row, :m], graph.distances[row, :m])
            return [(refs[j], float(d)) for j, d in kept]

        for row in range(n):
            def oracle(predicate):
                scored = []
                for j in range(n):
                    if j == row or not predicate(j):
                        continue
                    d = math.sqrt(float(((features[j] - features[row]) ** 2).sum()))
                    scored.append((d, refs[j]))
                scored.sort()
                return [(r, d) for d, r in scored[:k]]

            got_c = engine(cross, row)
            want_c = oracle(lambda j: persons[j] != persons[row])
            got_s = engine(inspect, row)
            want_s = oracle(
                lambda j: persons[j] == persons[row]
                and abs(int(times[j]) - int(times[row])) > alpha * window
            )
            if got_c != want_c or got_s != want_s:
                mismatches += 1
    report(6, mismatches == 0, f"{mismatches} neighborhood mismatches over 50 scenes (exact match required)")


def test_criterion_7_uniqueness_detection():
    cfg = RunConfig()
    patterns = ["erratic-jitter", "fast-run", "weave-walk"]
    wins = 0
    for s in range(20):
        video_id = f"scene_{s:02d}"
        tracks, outlier_pid = make_outlier_scene(
            video_id, seed=1000 + s, n_conforming=9, outlier_pattern=patterns[s % 3]
        )
        snippets = extract_snippets({video_id: tracks}, cfg.window_length, cfg.stride)
        refs, matrix, meta = featurize_snippets(snippets, cfg.feature_dim, cfg.seed)
        index = SceneIndex(
            video_id, refs,
            meta.person_ids,
            meta.starts,
            matrix,
        )
        scores, _ = video_uniqueness_scores(index, cfg.k_neighbors, cfg.alpha, cfg.window_length)
        per_agent = {}
        for person_id, score in zip(meta.person_ids.tolist(), scores):
            per_agent.setdefault(person_id, []).append(score)
        means = {p: float(np.mean(v)) for p, v in per_agent.items()}
        if max(means, key=means.get) == outlier_pid:
            wins += 1
    report(7, wins >= 19, f"outlier agent attains max mean uniqueness in {wins}/20 scenes (need >= 19)")


def test_criterion_8_selection_law():
    rng = np.random.default_rng(800)
    failures = 0
    for table in range(1000):
        n_classes = int(rng.integers(1, 4))
        normal_classes = [f"n{c}" for c in range(n_classes)]
        abnormal_classes = [f"a{c}" for c in range(int(rng.integers(1, 4)))]
        if table == 0:
            beta_n, beta_a = 0.9, 0.1  # Table-default regime
        else:
            beta_n = int(rng.integers(1, 101)) / 100
            beta_a = int(rng.integers(1, 101)) / 100

        refs, rows, labels = [], [], {}
        texts = {}
        all_classes = normal_classes + abnormal_classes
        dim = 2 * len(all_classes)
        for c, label in enumerate(all_classes):
            proto = np.zeros(dim)
            proto[2 * c] = 1.0
            texts[label] = TextEmbedding(label=label, values=proto)
            count = int(rng.integers(1, 30))
            values = rng.uniform(-0.99, 0.99, count)
            if count > 3 and rng.random() < 0.3:
                values[1] = values[0]  # force a tie
            for i, s in enumerate(values):
                ref = f"{label}:{i:03d}"
                vec = np.zeros(dim)
                vec[2 * c] = s
                vec[2 * c + 1] = math.sqrt(max(0.0, 1.0 - s * s))
                refs.append(ref)
                rows.append(vec)
                labels[ref] = label

        store = FeatureStore(refs, np.array(rows))
        spec = TypicalitySpec(normal_classes, abnormal_classes)
        result = select_typical(store, texts, labels, spec, beta_n, beta_a)

        def oracle(class_list, beta):
            candidates = [r for r in labels if labels[r] in class_list]
            ranked = sorted(candidates, key=lambda r: (-result.similarities[r], r))
            # betas are exact hundredths; ceiling computed in exact arithmetic
            keep = max(1, math.ceil(Fraction(round(beta * 100), 100) * len(candidates)))
            return ranked[:keep]

        if result.normal_refs != oracle(normal_classes, beta_n):
            failures += 1
        if result.abnormal_refs != oracle(abnormal_classes, beta_a):
            failures += 1
    report(8, failures == 0, f"{failures} selection mismatches over 1000 random tables (exact match required)")


def test_criterion_9_auc_oracle():
    hand = micro_auc(
        [LabeledVideo("h", np.array([0, 0, 1, 1], dtype=np.int8), np.array([0.1, 0.4, 0.35, 0.8]))]
    )
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 1001))
        labels = rng.integers(0, 2, n).astype(np.int8)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:
            scores = rng.choice(np.linspace(-1, 1, 7), n)  # heavy ties
        else:
            scores = rng.standard_normal(n)
        got = micro_auc([LabeledVideo("v", labels, scores)])
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        pairs = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        want = float(pairs) / (len(pos) * len(neg))
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12 and hand == pytest.approx(0.75, abs=1e-12)
    report(9, ok, f"hand case = {hand:.4f} (0.75), max |rank - pair counting| = {worst:.2e} (tol 1e-12)")


def test_criterion_10_end_to_end(benchmark_runs):
    from skel_sentinel.evaluation import read_labels

    bench = benchmark_runs["first"]
    manifest = benchmark_runs["manifest"]
    labels = read_labels(benchmark_runs["root"] / "run1" / "test_labels.tsv")

    def subset_auc(frames, kinds):
        videos = [
            LabeledVideo(vid, video_labels, frames[vid])
            for vid, video_labels in labels.items()
            if manifest[vid] in kinds
        ]
        return micro_auc(videos)

    pattern_full = subset_auc(bench.frame_scores, {"pattern"})
    pattern_unq = subset_auc(bench.frame_scores_uniqueness, {"pattern"})
    outlier_full = subset_auc(bench.frame_scores, {"outlier"})
    outlier_typ = subset_auc(bench.frame_scores_typicality, {"outlier"})

    ok = (
        bench.micro >= 0.90
        and pattern_full > pattern_unq  # removing typicality hurts pattern anomalies
        and outlier_full > outlier_typ  # removing uniqueness hurts outlier anomalies
    )
    report(
        10, ok,
        f"micro AUC {bench.micro:.4f} (>= 0.90); pattern subset {pattern_full:.4f} > "
        f"{pattern_unq:.4f} w/o typicality; outlier subset {outlier_full:.4f} > "
        f"{outlier_typ:.4f} w/o uniqueness",
    )


def test_criterion_11_determinism(benchmark_runs):
    root = benchmark_runs["root"]
    same_scores = (root / "run1" / "scores.tsv").read_bytes() == (
        root / "run2" / "scores.tsv"
    ).read_bytes()
    same_details = (root / "run1" / "details.tsv").read_bytes() == (
        root / "run2" / "details.tsv"
    ).read_bytes()

    # wall_seconds is a wall-clock measurement and cannot be byte-stable; every
    # other report line must match exactly
    lines1 = (root / "run1" / "report.txt").read_text().splitlines()
    lines2 = (root / "run2" / "report.txt").read_text().splitlines()
    stable1 = [l for l in lines1 if not l.startswith("wall_seconds")]
    stable2 = [l for l in lines2 if not l.startswith("wall_seconds")]
    diffs = len(lines1) - len(stable1) + sum(a != b for a, b in zip(stable1, stable2))
    same_report = stable1 == stable2 and len(lines1) == len(lines2)

    ok = same_scores and same_details and same_report
    report(
        11, ok,
        "score files byte-identical, report identical apart from the wall_seconds line"
        if ok
        else f"mismatch: scores={same_scores} details={same_details} report={same_report}",
    )
