"""Output checks and exact work counts read back from the CLI's own files.

Pure standard library, so the orchestrator never imports NumPy or the
program. Every check returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from pathlib import Path

AUC_GATE = 0.90  # the acceptance gate's micro-AUC threshold


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_keyvalues(path: Path) -> dict[str, str]:
    """`key = value` lines, as written by report.txt and config.*.resolved."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def label_lengths(path: Path) -> dict[str, int]:
    """Frames per labeled video from a `video<TAB>frame<TAB>label` file."""
    lengths: dict[str, int] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line:
            video_id, frame, _ = line.split("\t")
            lengths[video_id] = max(lengths.get(video_id, 0), int(frame) + 1)
    return lengths


def check_scores(scores_path: Path, labels_path: Path, stride: int = 1) -> list[str]:
    """scores.tsv must hold exactly one finite line per labeled frame.

    `score` writes frames up to the end of each video's last window and
    `eval` pads the rest, so with stride s a tail of fewer than s frames that
    no window can reach may be missing; with stride 1 there is none.
    """
    expected = label_lengths(labels_path)
    seen: dict[str, set[int]] = {}
    problems = []
    try:
        text = Path(scores_path).read_text(encoding="utf-8")
    except OSError as exc:
        return [f"cannot read {scores_path}: {exc}"]
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split("\t")
        if len(parts) != 3:
            problems.append(f"scores line {lineno}: expected 3 fields")
            continue
        video_id, frame_text, score_text = parts
        try:
            frame, score = int(frame_text), float(score_text)
        except ValueError:
            problems.append(f"scores line {lineno}: unparsable")
            continue
        if not math.isfinite(score):
            problems.append(f"scores line {lineno}: non-finite score {score_text}")
        frames = seen.setdefault(video_id, set())
        if frame in frames:
            problems.append(f"scores line {lineno}: duplicate frame {video_id}:{frame}")
        frames.add(frame)
    for video_id, length in sorted(expected.items()):
        frames = seen.get(video_id, set())
        covered = len(frames)
        if frames != set(range(covered)) or not length - stride < covered <= length:
            problems.append(
                f"{video_id}: {len(frames)} scored frames for {length} labeled frames"
            )
    return problems[:10]


def check_report(report_path: Path) -> tuple[float | None, list[str]]:
    """micro_auc from an eval report, gated at AUC_GATE."""
    try:
        value = float(read_keyvalues(report_path)["micro_auc"])
    except (OSError, KeyError, ValueError) as exc:
        return None, [f"no micro_auc in {report_path}: {exc!r}"]
    if not value >= AUC_GATE:
        return value, [f"micro_auc {value} below the {AUC_GATE} gate"]
    return value, []


def check_loss_history(path: Path, epochs: int) -> tuple[float | None, list[str]]:
    """One finite `epoch<TAB>loss` line per epoch; returns the final loss."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return None, [f"cannot read {path}: {exc}"]
    problems = []
    if len(lines) != epochs:
        problems.append(f"loss history has {len(lines)} lines for {epochs} epochs")
    losses = []
    for i, line in enumerate(lines):
        epoch, _, loss_text = line.partition("\t")
        try:
            loss = float(loss_text)
        except ValueError:
            problems.append(f"loss line {i + 1}: unparsable")
            continue
        if epoch != str(i) or not math.isfinite(loss):
            problems.append(f"loss line {i + 1}: {line!r}")
        losses.append(loss)
    return (losses[-1] if losses else None), problems


def uncovered_tail(scores_path: Path, labels_path: Path) -> int:
    """Labeled frames, summed over videos, that scores.tsv leaves to eval's padding."""
    scored: dict[str, int] = {}
    for line in Path(scores_path).read_text(encoding="utf-8").splitlines():
        video_id = line.split("\t", 1)[0]
        scored[video_id] = scored.get(video_id, 0) + 1
    return sum(n - scored.get(v, 0) for v, n in label_lengths(labels_path).items())


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def score_counts(details_path: Path, alpha: float, window_length: int) -> dict[str, int]:
    """Exact work counts of one `score` run, from its per-snippet details.

    Mirrors the context masks: cross-person candidates are every row of
    another person in the video; self-inspection candidates are rows of the
    same person with |t_i - t_j| > alpha * window_length.
    """
    starts: dict[str, dict[int, list[int]]] = {}
    for line in Path(details_path).read_text(encoding="utf-8").splitlines():
        video_id, person, start = line.split("\t")[:3]
        starts.setdefault(video_id, {}).setdefault(int(person), []).append(int(start))
    gap = alpha * window_length
    counts = {
        "pose_io.windows_kept": 0,
        "pipeline.scenes": len(starts),
        "pipeline.max_scene_rows": 0,
        "context.queries": 0,
        "context.cross_person_pairs": 0,
        "context.self_inspection_pairs": 0,
        "context.isolated": 0,
    }
    for persons in starts.values():
        n = sum(len(times) for times in persons.values())
        counts["pose_io.windows_kept"] += n
        counts["context.queries"] += n
        counts["pipeline.max_scene_rows"] = max(counts["pipeline.max_scene_rows"], n)
        for times in persons.values():
            times = sorted(times)
            cross = n - len(times)
            counts["context.cross_person_pairs"] += cross * len(times)
            for t in times:
                lo = bisect.bisect_left(times, t - gap)
                hi = bisect.bisect_right(times, t + gap)
                far = len(times) - (hi - lo)
                counts["context.self_inspection_pairs"] += far
                if cross == 0 and far == 0:
                    counts["context.isolated"] += 1
    return counts


def train_counts(out_dir: Path, batch_size: int, epochs: int) -> dict[str, int]:
    """Exact work counts of one featurize/select/train chain, from its files."""
    n_normal = count_lines(out_dir / "sel" / "selected_normal.tsv")
    return {
        "pose_io.windows_kept": count_lines(Path(f"{out_dir / 'corpus.skem'}.idx")),
        "typicality.selected_normal": n_normal,
        "typicality.selected_abnormal": count_lines(out_dir / "sel" / "selected_abnormal.tsv"),
        "flow.train_steps": epochs * max(1, math.ceil(n_normal / batch_size)),
    }
