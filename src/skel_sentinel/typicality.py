"""Typicality label lists, video class maps and similarity-ranked snippet
selection.

The label lists arrive as a plain config file (produced offline, e.g. by
querying a language model once and pasting its answer):

    prompt = <verbatim prompt text, kept for provenance>
    [normal]
    reading book
    walking the dog
    [abnormal]
    skydiving
    rock climbing

Lines starting with ``#`` are comments; label order encodes decreasing
typicality and is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .config import read_lines
from .errors import DuplicateRecordError, LabelConflictError, MissingEmbeddingError, SchemaError
from .featurize import FeatureStore, TextEmbedding, cosine_similarity

# Guards math.ceil against float dust in beta * n (e.g. 0.07 * 100).
_CEIL_GUARD = 1e-9


@dataclass(frozen=True)
class TypicalitySpec:
    normal_actions: list[str]
    abnormal_actions: list[str]
    prompt_text: str = ""

    def __post_init__(self):
        if not self.normal_actions or not self.abnormal_actions:
            raise SchemaError("both typicality lists must be non-empty")
        for name, labels in (("normal", self.normal_actions), ("abnormal", self.abnormal_actions)):
            if len(set(labels)) != len(labels):
                raise SchemaError(f"duplicate label in {name} list")
        overlap = set(self.normal_actions) & set(self.abnormal_actions)
        if overlap:
            raise LabelConflictError(f"labels in both lists: {sorted(overlap)}")


@dataclass(frozen=True)
class SelectionResult:
    normal_refs: list[str]  # ranked, highest similarity first
    abnormal_refs: list[str]
    similarities: dict[str, float] = field(repr=False)


def load_typicality_spec(path: str | Path) -> TypicalitySpec:
    """The spec in the file at `path`.

    A bad line (unknown section, label outside a section, repeated prompt or
    label, a label in both lists) is a typed error naming the path and line;
    an empty list is a SchemaError naming the path.
    """
    lists: dict[str, list[str]] = {"normal": [], "abnormal": []}
    prompt = None
    section = None
    for lineno, raw in read_lines(path):
        where = f"{path}, line {lineno}"
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("prompt"):
            head, sep, rest = line.partition("=")
            if head.strip() == "prompt" and sep:
                if prompt is not None:
                    raise SchemaError(f"{where}: repeated prompt")
                prompt = rest[1:] if rest.startswith(" ") else rest
                continue
        if line in ("[normal]", "[abnormal]"):
            section = line[1:-1]
            continue
        if line.startswith("[") and line.endswith("]"):
            raise SchemaError(f"{where}: unknown section {line}")
        if section is None:
            raise SchemaError(f"{where}: label before any section")
        if line in lists[section]:
            raise SchemaError(f"{where}: repeated {section} label {line!r}")
        other = "abnormal" if section == "normal" else "normal"
        if line in lists[other]:
            raise LabelConflictError(f"{where}: label {line!r} is in both lists")
        lists[section].append(line)
    for name, labels in lists.items():
        if not labels:
            raise SchemaError(f"{path}: no {name} label")
    return TypicalitySpec(lists["normal"], lists["abnormal"], prompt or "")


def save_typicality_spec(spec: TypicalitySpec, path: str | Path) -> None:
    lines = [f"prompt = {spec.prompt_text}", "[normal]"]
    lines.extend(spec.normal_actions)
    lines.append("[abnormal]")
    lines.extend(spec.abnormal_actions)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_class_map(classes: dict[str, str], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for video_id in sorted(classes):
            fh.write(f"{video_id}\t{classes[video_id]}\n")


def read_class_map(path: str | Path) -> dict[str, str]:
    """video_id -> class, from `video_id<TAB>class` lines."""
    classes = {}
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(parts):
            raise SchemaError(f"{path}, line {lineno}: expected video_id<TAB>class")
        if parts[0] in classes:
            raise DuplicateRecordError(f"{path}, line {lineno}: repeated video_id {parts[0]!r}")
        classes[parts[0]] = parts[1]
    return classes


def top_count(beta: float, n_candidates: int) -> int:
    """Ceiling of beta * n, so any beta > 0 keeps at least one candidate."""
    if n_candidates == 0:
        return 0
    return max(1, math.ceil(beta * n_candidates - _CEIL_GUARD))


def select_typical(
    features: FeatureStore,
    texts: dict[str, TextEmbedding],
    labels: dict[str, str],
    spec: TypicalitySpec,
    beta_normal: float,
    beta_abnormal: float,
) -> SelectionResult:
    """Keep the top-beta fraction of each list's snippets by skeleton-text
    similarity, ranked within the whole list and tie-broken by snippet_ref."""
    for name, beta in (("beta_normal", beta_normal), ("beta_abnormal", beta_abnormal)):
        if not 0.0 < beta <= 1.0:
            raise SchemaError(f"{name} must lie in (0, 1], got {beta}")

    similarities: dict[str, float] = {}

    def pick(action_list: list[str], beta: float) -> list[str]:
        for label in action_list:
            if label not in texts:
                raise MissingEmbeddingError(f"no text embedding for label {label!r}")
        wanted = set(action_list)
        refs = [ref for ref, label in labels.items() if label in wanted]
        # one cosine per row: a vectorized form changes the last bits
        sims = [
            cosine_similarity(row, texts[labels[ref]].values)
            for ref, row in zip(refs, features.rows(refs))
        ]
        similarities.update(zip(refs, sims))
        ranked = sorted(zip(refs, sims), key=lambda item: (-item[1], item[0]))
        return [ref for ref, _ in ranked[: top_count(beta, len(ranked))]]

    return SelectionResult(
        normal_refs=pick(spec.normal_actions, beta_normal),
        abnormal_refs=pick(spec.abnormal_actions, beta_abnormal),
        similarities=similarities,
    )
