"""Per-layer metrics: their names and units, and how spans and counts make them.

Layers are the modules of `src/skel_sentinel/`. A span is named after the
public function it times, `<module>.<function>`; SPAN_LAYER assigns it to a
layer where the function lives in a glue module (`pipeline.extract_snippets`
does the windowing, so it belongs to `pose_io`). Pure standard library.
"""

from __future__ import annotations

LAYERS = (
    "pose_io", "featurize", "pipeline", "context", "flow", "typicality",
    "scoring", "evaluation",
)

SPAN_LAYER = {
    "pipeline.extract_snippets": "pose_io",
    "pipeline.featurize_snippets": "featurize",
}

# time metric -> the spans whose durations it sums
TIMED = {
    "pose_io.parse_s": ("pose_io.load_tracks",),
    "pose_io.window_s": ("pipeline.extract_snippets",),
    "featurize.kinematic_s": ("pipeline.featurize_snippets",),
    "featurize.skem_write_s": ("featurize.write_embeddings",),
    "featurize.skem_read_s": ("featurize.load_embeddings",),
    "featurize.prototypes_s": ("featurize.class_prototypes",),
    "pipeline.index_s": ("pipeline.build_scene_indices",),
    "context.uniqueness_s": ("context.video_uniqueness_scores",),
    "context.cross_person_s": ("context.cross_person_neighbors",),
    "context.self_inspection_s": ("context.self_inspection_neighbors",),
    "flow.typicality_s": ("flow.typicality_score",),
    "flow.train_s": ("flow.train_flow",),
    "typicality.select_s": ("typicality.select_typical",),
    "scoring.fusion_s": ("scoring.build_score_series",),
    "scoring.write_s": ("scoring.write_frame_scores", "scoring.write_snippet_details"),
    "evaluation.auc_s": ("evaluation.read_labels", "evaluation.micro_auc"),
}

# exact work counts, recorded by traced.py at the stage boundaries
COUNTED = (
    "pose_io.lines", "pose_io.windows_kept", "pose_io.windows_dropped",
    "featurize.rows", "featurize.skem_bytes",
    "pipeline.scenes", "pipeline.max_scene_rows",
    "context.queries", "context.cross_person_pairs", "context.self_inspection_pairs",
    "context.isolated",
    "flow.typicality_rows",
    "typicality.candidates", "typicality.selected_normal", "typicality.selected_abnormal",
    "scoring.bytes_written",
    "evaluation.frames",
)

# counts that must repeat exactly and that the CLI's own outputs reproduce
EXACT = (
    "pose_io.windows_kept", "pose_io.windows_dropped",
    "context.cross_person_pairs", "context.self_inspection_pairs", "context.isolated",
    "flow.train_steps", "typicality.selected_normal", "typicality.selected_abnormal",
)

DERIVED = {
    "flow.final_nll": "nats",
    "pose_io.parse_us_per_line": "us",
    "featurize.projection_flops": "flop",
    "flow.train_steps": "count",
    "flow.step_ms": "ms",
    "flow.loss_grad_ms": "ms",
    "flow.adam_ms": "ms",
}

UNITS = {"_s": "s", "_mb": "MB", "_bytes": "bytes", "bytes_written": "bytes"}


def _unit(name: str) -> str:
    if name in DERIVED:
        return DERIVED[name]
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


METRIC_NAMES = (
    list(TIMED) + list(COUNTED) + list(DERIVED)
    + [f"{layer}.self_s" for layer in LAYERS]
    + [f"{layer}.peak_rss_mb" for layer in LAYERS]
    + ["trace.wall_s", "trace.overhead_s"]
)
METRICS = {name: _unit(name) for name in METRIC_NAMES}


def layer_of(span_name: str) -> str:
    return SPAN_LAYER.get(span_name, span_name.split(".", 1)[0])


def span_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float | None]:
    """Every per-layer metric one traced chain yields; None where it never ran.

    Self time is a span's duration minus the time its child spans cover; a
    layer's self time sums it over the layer's spans. Peak RSS is the
    process's ru_maxrss when the layer's last span ended.
    """
    by_name: dict[str, list[float]] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["end"] - s["start"])
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def total(names) -> float | None:
        found = [d for name in names for d in by_name.get(name, ())]
        return sum(found) if found else None

    out: dict[str, float | None] = {name: total(names) for name, names in TIMED.items()}
    out.update({name: counts.get(name) for name in COUNTED})

    out["flow.final_nll"] = counts.get("flow.final_nll")
    lines, parse_s = counts.get("pose_io.lines"), out["pose_io.parse_s"]
    out["pose_io.parse_us_per_line"] = parse_s / lines * 1e6 if parse_s and lines else None
    rows, raw_dim, dim = (
        counts.get(k) for k in ("featurize.rows", "featurize.descriptor_dim", "featurize.feature_dim")
    )
    out["featurize.projection_flops"] = (
        rows * 2 * raw_dim * dim if None not in (rows, raw_dim, dim) else None
    )
    steps = by_name.get("flow.nll_loss_and_grad", [])
    train_s = out["flow.train_s"]
    out["flow.train_steps"] = len(steps) if train_s is not None else None
    if train_s is not None and steps:
        out["flow.step_ms"] = train_s / len(steps) * 1e3
        out["flow.loss_grad_ms"] = sum(steps) / len(steps) * 1e3
        out["flow.adam_ms"] = out["flow.step_ms"] - out["flow.loss_grad_ms"]
    else:
        out["flow.step_ms"] = out["flow.loss_grad_ms"] = out["flow.adam_ms"] = None

    self_s: dict[str, float] = {}
    peak_kb: dict[str, int] = {}
    for s in spans:
        if s["parent"] is None:
            continue
        layer = layer_of(s["name"])
        duration = s["end"] - s["start"]
        self_s[layer] = self_s.get(layer, 0.0) + duration - child_time.get(s["id"], 0.0)
        peak_kb[layer] = max(peak_kb.get(layer, 0), s["rss_kb"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer)
        out[f"{layer}.peak_rss_mb"] = peak_kb[layer] / 1024 if layer in peak_kb else None
    return out


def glue_s(spans: list[dict]) -> float:
    """Self time of the root span: the CLI glue between the stage calls."""
    roots = [s for s in spans if s["parent"] is None]
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == roots[0]["id"])
    return roots[0]["end"] - roots[0]["start"] - covered
