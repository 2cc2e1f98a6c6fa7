"""Command-line front end.

Subcommands mirror the pipeline stages: synth, featurize, select, train,
score, eval, check. Each command resolves one RunConfig (defaults, then
--config file, then explicit flags), runs once, and writes the config next to
its outputs as ``config.<stage>.resolved``. ``--out`` names an output
directory, except for ``featurize``, where it names the ``.skem`` file; its
``.idx`` sidecar goes beside it and its resolved config in the same
directory. Failures print a single machine-parsable line

    error<TAB><command><TAB><exception type><TAB><message>

to stderr and exit 1; usage problems exit 2. When a pipeline stage fails, the
type is that of the underlying error and the message starts with the stage
name, e.g. ``load-tracks: line 3: ...``.

This module loads no NumPy: each handler imports its stages when it runs, so
``--help``, usage errors and ``eval`` load only what they use. ``main`` makes
OpenBLAS start at one thread (``OPENBLAS_NUM_THREADS=1``) for every command,
and `command_dispatch` runs each inside `blas.one_blas_thread`. ``train``
uses a second core its own way: `flow.train_flow` runs each coupling's two
nets on two threads.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .blas import one_blas_thread
from .config import RunConfig, read_lines
from .errors import DuplicateRecordError, SchemaError, SentinelError, StageError, stage


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run config file (key = value lines)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skel-sentinel",
        description="Skeleton-snippet video anomaly scoring pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        _add_common(p)
        return p

    p = add("synth", "generate the synthetic benchmark bundle")
    p.add_argument("--out", required=True, help="output directory")

    p = add("featurize", "tracks -> snippet embedding file")
    p.add_argument("--tracks", required=True, help="input track file")
    p.add_argument("--out", required=True, help="output .skem file")
    p.add_argument("--classes", help="video_id<TAB>class map; enables --text-out")
    p.add_argument("--text-out", help="write per-class prototype embeddings here")

    p = add("select", "pick high-similarity typical snippets")
    p.add_argument("--features", required=True, help="snippet embedding file")
    p.add_argument("--texts", required=True, help="class embedding file")
    p.add_argument("--classes", required=True, help="video_id<TAB>class map")
    p.add_argument("--spec", required=True, help="typicality label list file")
    p.add_argument("--out", required=True, help="output directory")

    p = add("train", "train the typicality flow on selected snippets")
    p.add_argument("--features", required=True, help="snippet embedding file")
    p.add_argument("--selection", required=True, help="directory with selected_*.tsv")
    p.add_argument("--out", required=True, help="output directory")

    p = add("score", "score test tracks with a trained flow")
    p.add_argument("--tracks", required=True, help="input track file")
    p.add_argument("--model", required=True, help="flow checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--features", help="embedding file; replaces the kinematic features when given"
    )

    p = add("eval", "micro-average frame-level AUC from score + label files")
    p.add_argument("--scores", required=True, help="frame score file")
    p.add_argument("--labels", required=True, help="frame label file")
    p.add_argument("--out", required=True, help="output directory")

    add("check", "run the numerical self-tests")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _write_resolved(cfg: RunConfig, out: Path, stage: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_file(out / f"config.{stage}.resolved")


def cmd_synth(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    from .evaluation import write_labels
    from .pose_io import write_tracks
    from .synth import make_benchmark
    from .typicality import save_typicality_spec, write_class_map

    data = make_benchmark(seed=cfg.seed)
    _write_resolved(cfg, out, "synth")
    write_tracks(data.corpus_videos, out / "corpus_tracks.tsv")
    write_class_map(data.corpus_classes, out / "corpus_classes.tsv")
    write_tracks(data.test_videos, out / "test_tracks.tsv")
    write_labels(data.test_labels, out / "test_labels.tsv")
    write_class_map(data.manifest, out / "benchmark_manifest.tsv")
    save_typicality_spec(data.typicality, out / "typicality.spec")
    print(f"benchmark written to {out}")
    return 0


def _class_labels(refs: list[str], class_map: dict[str, str], features: Path) -> dict[str, str]:
    """snippet_ref -> class of its video, for the videos the class map names.

    `refs` are the rows of the `.skem` file `features`; a row's ref that is not
    a snippet ref is a SchemaError naming its sidecar line.
    """
    from .pose_io import ref_video

    labels = {}
    for lineno, ref in enumerate(refs, start=1):
        video_id = ref_video(ref, f"{features}.idx, line {lineno}")
        if video_id in class_map:
            labels[ref] = class_map[video_id]
    return labels


def cmd_featurize(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    import numpy as np

    from .featurize import FeatureStore, class_prototypes, write_embeddings
    from .pipeline import snippet_features
    from .typicality import read_class_map

    for path in (out, args.text_out):
        if path and Path(path).is_dir():
            raise SchemaError(f"{path}: is a directory")
    if bool(args.classes) != bool(args.text_out):
        raise SchemaError("--classes and --text-out must be given together")
    class_map = read_class_map(args.classes) if args.classes else None
    refs, matrix, _ = snippet_features(cfg, args.tracks)
    if class_map is not None:
        labels = _class_labels(refs, class_map, out)
        if not labels:
            raise SchemaError(f"{args.classes}: no video of the class map has a snippet")
        prototypes = class_prototypes(FeatureStore(refs, matrix), labels)
    _write_resolved(cfg, out.parent, "featurize")
    write_embeddings(refs, matrix, out)
    print(f"wrote {len(refs)} features of dimension {cfg.feature_dim} to {out}")
    if class_map is not None:
        names = sorted(prototypes)
        write_embeddings(
            names, np.vstack([prototypes[n].values for n in names]), Path(args.text_out)
        )
        print(f"wrote {len(names)} class embeddings to {args.text_out}")
    return 0


def cmd_select(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    from .featurize import load_embeddings, load_text_embeddings
    from .typicality import load_typicality_spec, read_class_map, select_typical

    store = load_embeddings(args.features)
    texts = load_text_embeddings(args.texts)
    labels = _class_labels(store.refs, read_class_map(args.classes), args.features)
    spec = load_typicality_spec(args.spec)
    result = select_typical(store, texts, labels, spec, cfg.beta_normal, cfg.beta_abnormal)
    _write_resolved(cfg, out, "select")
    for name, refs in (("normal", result.normal_refs), ("abnormal", result.abnormal_refs)):
        with open(out / f"selected_{name}.tsv", "w", encoding="utf-8", newline="\n") as fh:
            for ref in refs:
                fh.write(f"{ref}\t{result.similarities[ref]:.6f}\n")
    print(
        f"selected {len(result.normal_refs)} normal and "
        f"{len(result.abnormal_refs)} abnormal snippets"
    )
    return 0


def _read_selection(path: Path) -> list[str]:
    """Refs of a `selected_*.tsv` file, whose lines are `ref<TAB>similarity`.

    A ref not of the form `video:person:start`, or a repeated one, is a typed
    error naming the path and line.
    """
    from .pose_io import ref_video

    refs: dict[str, None] = {}
    for lineno, line in read_lines(path):
        if not line:
            continue
        ref = line.split("\t")[0]
        ref_video(ref, f"{path}, line {lineno}")
        if ref in refs:
            raise DuplicateRecordError(f"{path}, line {lineno}: repeated ref {ref!r}")
        refs[ref] = None
    return list(refs)


def cmd_train(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    from .featurize import load_embeddings
    from .flow import init_flow, save_flow, train_flow

    store = load_embeddings(args.features)
    selection = Path(args.selection)
    normal_refs = _read_selection(selection / "selected_normal.tsv")
    abnormal_refs = _read_selection(selection / "selected_abnormal.tsv")
    data_n, data_a = store.rows(normal_refs), store.rows(abnormal_refs)
    dimension = store.dimension
    del store  # its matrix, refs and index are not read again: free them before training
    model = init_flow(dimension, cfg.flow_layers, cfg.hidden_width, cfg.seed)
    model, history = train_flow(model, data_n, data_a, cfg)
    _write_resolved(cfg, out, "train")
    save_flow(model, out / "model.skfl")
    with open(out / "loss_history.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for epoch, loss in enumerate(history):
            fh.write(f"{epoch}\t{loss:.6f}\n")
    final = f"{history[-1]:.4f}" if history else "n/a"
    print(f"trained {cfg.flow_layers}-layer flow for {cfg.epochs} epochs, final loss {final}")
    return 0


def cmd_score(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    from .pipeline import score_tracks
    from .scoring import write_frame_scores, write_snippet_details

    series = score_tracks(cfg, args.tracks, args.model, args.features)
    _write_resolved(cfg, out, "score")
    write_frame_scores({vid: s.frame_scores for vid, s in series.items()}, out / "scores.tsv")
    write_snippet_details(series, out / "details.tsv")
    snippets = sum(len(s.refs) for s in series.values())
    print(f"scored {len(series)} videos ({snippets} snippets)")
    return 0


def cmd_eval(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    from .evaluation import evaluate, read_labels, write_report
    from .scoring import read_frame_scores

    started = time.perf_counter()
    scores = stage("load-scores", read_frame_scores, args.scores)
    labels = stage("load-labels", read_labels, args.labels)
    result = stage("evaluate", evaluate, labels, scores)
    _write_resolved(cfg, out, "eval")
    write_report(result.report_entries(time.perf_counter() - started), out / "report.txt")
    print(
        f"micro_auc = {result.micro:.6f} over {result.frames} frames "
        f"in {result.videos} videos"
    )
    return 0


def cmd_check(args: argparse.Namespace, cfg: RunConfig, out: Path | None) -> int:
    from . import checks

    results = checks.run_self_tests(cfg.seed)
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


_HANDLERS = {
    "synth": cmd_synth,
    "featurize": cmd_featurize,
    "select": cmd_select,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
    "check": cmd_check,
}


def command_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    out = Path(args.out) if hasattr(args, "out") else None
    try:
        with one_blas_thread():
            return handler(args, _resolve_config(args), out)
    except (SentinelError, OSError, ValueError) as exc:
        cause = exc.cause if isinstance(exc, StageError) else exc
        message = str(exc).replace("\n", " ")
        print(f"error\t{args.command}\t{type(cause).__name__}\t{message}", file=sys.stderr)
        return 1


def main() -> None:
    # OpenBLAS reads its thread count when NumPy loads it, which no command
    # has done yet
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(command_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
