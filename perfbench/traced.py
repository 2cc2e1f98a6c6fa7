"""Traced in-process run of one CLI chain, with a span around every stage.

Runs as a child process with the program's sources on PYTHONPATH:

    python3 perfbench/traced.py JOB_JSON

The job names the chain (`score`: score then eval; `train`: featurize, select
and train), its input files and an output directory. This script calls the
program's public stage functions through their defining modules, in the order
`cli.cmd_score`/`cmd_eval` and `cmd_featurize`/`cmd_select`/`cmd_train` call
them, in one process and one thread, and writes the same output files the CLI
writes, so the orchestrator can require byte-identical outputs.

Calls made inside the program are timed by wrapping the module attribute the
caller looks up at call time: `pipeline.typicality_score` and
`pipeline.video_uniqueness_scores` (looked up by `pipeline.score_scene`),
`context.cross_person_neighbors` and `context.self_inspection_neighbors`
(looked up by `context.video_uniqueness_scores`), `flow.nll_loss_and_grad`
(looked up by `flow.train_flow`) and `featurize.load_embeddings` (looked up by
`featurize.load_text_embeddings`). A wrapped function the program no longer
calls yields no span, and its metrics are reported absent.

Spans stay in memory and are written with the counts to `job["result"]` when
the chain ends.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from skel_sentinel import (
    config,
    context,
    evaluation,
    featurize,
    flow,
    pipeline,
    pose_io,
    scoring,
    synth,
    typicality,
)
from skel_sentinel.errors import SchemaError, UndefinedMetricError


class Tracer:
    """Spans (name, start, end, parent, run id) and counts of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            span["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def wrap(self, module, attr: str, name: str):
        """Time every lookup of `module.attr` made while the block runs."""
        original = getattr(module, attr, None)
        if original is None:
            yield
            return

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)


def resolve_config(path: str | None) -> config.RunConfig:
    """As cli._resolve_config does with no --seed and no --threads flag."""
    cfg = config.RunConfig.from_file(path) if path else config.RunConfig()
    return cfg.replace(threads=config.resolve_threads(None))


def write_resolved(cfg: config.RunConfig, out: Path, stage: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_file(out / f"config.{stage}.resolved")


def count_windows(tr: Tracer, videos, snippets, cfg: config.RunConfig) -> None:
    tracks = [t for video in videos.values() for t in video]
    total = sum(len(range(0, t.length - cfg.window_length + 1, cfg.stride)) for t in tracks)
    tr.count("pose_io.lines", sum(len(t.frames) for t in tracks))
    tr.count("pose_io.windows_kept", len(snippets))
    tr.count("pose_io.windows_dropped", total - len(snippets))


def count_features(tr: Tracer, snippets, matrix: np.ndarray) -> None:
    tr.count("featurize.rows", matrix.shape[0])
    if snippets:
        tr.counts["featurize.descriptor_dim"] = featurize.snippet_descriptor(snippets[0]).size
        tr.counts["featurize.feature_dim"] = matrix.shape[1]


def count_context(tr: Tracer, indices, scored, cfg: config.RunConfig) -> None:
    """Exact candidate-distance counts from each index's person and time arrays."""
    gap = cfg.alpha * cfg.window_length
    tr.count("pipeline.scenes", len(indices))
    tr.counts["pipeline.max_scene_rows"] = max((len(ix) for ix in indices.values()), default=0)
    for video_id, index in indices.items():
        n = len(index)
        _, sizes = np.unique(index.person_ids, return_counts=True)
        tr.count("context.queries", n)
        tr.count("context.cross_person_pairs", n * n - int((sizes * sizes).sum()))
        for person in np.unique(index.person_ids):
            times = np.sort(index.times[index.person_ids == person])
            near = np.searchsorted(times, times + gap, side="right") - np.searchsorted(
                times, times - gap, side="left"
            )
            tr.count("context.self_inspection_pairs", int((len(times) - near).sum()))
        tr.count("context.isolated", len(scored[video_id].isolated))


def score_chain(tr: Tracer, job: dict) -> float:
    """`score` then `eval`, as cli.cmd_score and cli.cmd_eval run them."""
    cfg = resolve_config(job.get("config"))
    out = Path(job["out"])
    scores_dir, report_dir = out / "scores", out / "report"
    with tr.span("chain"):
        # cmd_score
        model = tr.call("flow.load_flow", flow.load_flow, job["model"])
        videos = tr.call("pose_io.load_tracks", pose_io.load_tracks, job["tracks"], cfg.joints)
        snippets = tr.call(
            "pipeline.extract_snippets", pipeline.extract_snippets,
            videos, cfg.window_length, cfg.stride,
        )
        refs, matrix, meta = tr.call(
            "pipeline.featurize_snippets", pipeline.featurize_snippets,
            snippets, cfg.feature_dim, cfg.seed,
        )
        indices = tr.call(
            "pipeline.build_scene_indices", pipeline.build_scene_indices, refs, matrix, meta
        )
        with tr.wrap(pipeline, "typicality_score", "flow.typicality_score"), \
                tr.wrap(pipeline, "video_uniqueness_scores", "context.video_uniqueness_scores"), \
                tr.wrap(context, "cross_person_neighbors", "context.cross_person_neighbors"), \
                tr.wrap(context, "self_inspection_neighbors", "context.self_inspection_neighbors"):
            scored = tr.call(
                "pipeline.score_scenes", pipeline.score_scenes, model, indices, cfg, cfg.threads
            )
        frame_scores, all_series = {}, {}
        for video_id, vs in scored.items():
            video_length = max(vs.start_times) + cfg.window_length
            series = tr.call(
                "scoring.build_score_series", scoring.build_score_series,
                video_id, vs.refs, vs.person_ids, vs.start_times,
                vs.typicality, vs.uniqueness, video_length, cfg.window_length, cfg.epsilon,
            )
            all_series[video_id] = series
            frames = series.frame_scores
            if cfg.smoothing_window > 1:
                frames = tr.call(
                    "scoring.smooth_scores", scoring.smooth_scores, frames, cfg.smoothing_window
                )
            frame_scores[video_id] = frames
        write_resolved(cfg, scores_dir, "score")
        tr.call(
            "scoring.write_frame_scores", scoring.write_frame_scores,
            frame_scores, scores_dir / "scores.tsv",
        )
        tr.call(
            "scoring.write_snippet_details", scoring.write_snippet_details,
            all_series, scores_dir / "details.tsv",
        )

        # cmd_eval
        eval_cfg = resolve_config(None)
        started = time.perf_counter()
        read_scores = tr.call(
            "scoring.read_frame_scores", scoring.read_frame_scores, scores_dir / "scores.tsv"
        )
        labels = tr.call("evaluation.read_labels", evaluation.read_labels, job["labels"])
        labeled, per_video = [], {}
        for video_id in sorted(labels):
            if video_id not in read_scores:
                raise SchemaError(f"no scores for labeled video {video_id!r}")
            video_scores = read_scores[video_id]
            length = len(labels[video_id])
            if len(video_scores) < length:
                pad = np.full(length - len(video_scores), video_scores.min())
                video_scores = np.concatenate([video_scores, pad])
            video = evaluation.LabeledVideo(video_id, labels[video_id], video_scores[:length])
            labeled.append(video)
            try:
                per_video[video_id] = tr.call("evaluation.micro_auc", evaluation.micro_auc, [video])
            except UndefinedMetricError:
                pass
        micro = tr.call("evaluation.micro_auc", evaluation.micro_auc, labeled)
        n_frames = sum(len(v.labels) for v in labeled)
        write_resolved(eval_cfg, report_dir, "eval")
        entries = [
            ("micro_auc", micro),
            ("videos", len(labeled)),
            ("frames", n_frames),
            ("wall_seconds", time.perf_counter() - started),
        ]
        entries.extend((f"video_auc.{vid}", auc) for vid, auc in sorted(per_video.items()))
        tr.call(
            "evaluation.write_report", evaluation.write_report, entries, report_dir / "report.txt"
        )

    count_windows(tr, videos, snippets, cfg)
    count_features(tr, snippets, matrix)
    count_context(tr, indices, scored, cfg)
    tr.count("flow.typicality_rows", sum(len(ix) for ix in indices.values()))
    tr.count("scoring.bytes_written", sum(
        (scores_dir / name).stat().st_size for name in ("scores.tsv", "details.tsv")
    ))
    tr.count("evaluation.frames", n_frames)
    return micro


def _labels_for(refs: list[str], class_map: dict[str, str]) -> dict[str, str]:
    labels = {}
    for ref in refs:
        video_id = pose_io.parse_snippet_ref(ref)[0]
        if video_id in class_map:
            labels[ref] = class_map[video_id]
    return labels


def train_chain(tr: Tracer, job: dict) -> None:
    """`featurize --classes --text-out`, `select`, `train`, as the CLI runs them."""
    cfg = resolve_config(job.get("config"))
    out = Path(job["out"])
    features_path, texts_path = out / "corpus.skem", out / "texts.skem"
    sel_dir, model_dir = out / "sel", out / "model"
    with tr.span("chain"):
        # cmd_featurize
        videos = tr.call("pose_io.load_tracks", pose_io.load_tracks, job["tracks"], cfg.joints)
        snippets = tr.call(
            "pipeline.extract_snippets", pipeline.extract_snippets,
            videos, cfg.window_length, cfg.stride,
        )
        refs, matrix, _ = tr.call(
            "pipeline.featurize_snippets", pipeline.featurize_snippets,
            snippets, cfg.feature_dim, cfg.seed,
        )
        write_resolved(cfg, out, "featurize")
        tr.call("featurize.write_embeddings", featurize.write_embeddings, refs, matrix, features_path)
        class_map = synth.read_class_map(job["classes"])
        store = featurize.FeatureStore(refs, matrix)
        prototypes = tr.call(
            "featurize.class_prototypes", featurize.class_prototypes,
            store, _labels_for(refs, class_map),
        )
        names = sorted(prototypes)
        tr.call(
            "featurize.write_embeddings", featurize.write_embeddings,
            names, np.vstack([prototypes[n].values for n in names]), texts_path,
        )

        # cmd_select
        with tr.wrap(featurize, "load_embeddings", "featurize.load_embeddings"):
            store = featurize.load_embeddings(features_path)
            texts = tr.call(
                "featurize.load_text_embeddings", featurize.load_text_embeddings, texts_path
            )
        class_map = synth.read_class_map(job["classes"])
        spec = tr.call(
            "typicality.load_typicality_spec", typicality.load_typicality_spec, job["spec"]
        )
        result = tr.call(
            "typicality.select_typical", typicality.select_typical,
            store, texts, _labels_for(store.refs, class_map), spec,
            cfg.beta_normal, cfg.beta_abnormal,
        )
        write_resolved(cfg, sel_dir, "select")
        for name, selected in (("normal", result.normal_refs), ("abnormal", result.abnormal_refs)):
            with open(sel_dir / f"selected_{name}.tsv", "w", encoding="utf-8", newline="\n") as fh:
                for ref in selected:
                    fh.write(f"{ref}\t{result.similarities[ref]:.6f}\n")

        # cmd_train
        with tr.wrap(featurize, "load_embeddings", "featurize.load_embeddings"):
            store = featurize.load_embeddings(features_path)
        normal_refs = _read_selection(sel_dir / "selected_normal.tsv")
        abnormal_refs = _read_selection(sel_dir / "selected_abnormal.tsv")
        data_n = np.vstack([store.lookup(r) for r in normal_refs]).astype(np.float64)
        data_a = (
            np.vstack([store.lookup(r) for r in abnormal_refs]).astype(np.float64)
            if abnormal_refs
            else None
        )
        model = tr.call(
            "flow.init_flow", flow.init_flow,
            store.dimension, cfg.flow_layers, cfg.hidden_width, cfg.seed,
        )
        train_cfg = flow.TrainConfig(
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            epochs=cfg.epochs,
            seed=cfg.seed,
        )
        with tr.wrap(flow, "nll_loss_and_grad", "flow.nll_loss_and_grad"):
            model, history = tr.call(
                "flow.train_flow", flow.train_flow, model, data_n, data_a, train_cfg
            )
        write_resolved(cfg, model_dir, "train")
        tr.call("flow.save_flow", flow.save_flow, model, model_dir / "model.skfl")
        with open(model_dir / "loss_history.tsv", "w", encoding="utf-8", newline="\n") as fh:
            for epoch, loss in enumerate(history):
                fh.write(f"{epoch}\t{loss:.6f}\n")

    count_windows(tr, videos, snippets, cfg)
    count_features(tr, snippets, matrix)
    tr.count("featurize.skem_bytes", sum(
        Path(p).stat().st_size
        for p in (features_path, f"{features_path}.idx", texts_path, f"{texts_path}.idx")
    ))
    tr.counts["flow.final_nll"] = float(f"{history[-1]:.6f}")
    tr.count("typicality.candidates", len(result.similarities))
    tr.count("typicality.selected_normal", len(result.normal_refs))
    tr.count("typicality.selected_abnormal", len(result.abnormal_refs))


def _read_selection(path: Path) -> list[str]:
    return [line.split("\t")[0] for line in path.read_text(encoding="utf-8").splitlines() if line]


CHAINS = {"score": score_chain, "train": train_chain}


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    tr = Tracer(job["run_id"])
    result = {
        "run_id": tr.run_id,
        "micro_auc": CHAINS[job["chain"]](tr, job),
        "counts": tr.counts,
        "spans": tr.spans,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
