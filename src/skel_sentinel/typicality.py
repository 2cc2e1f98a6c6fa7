"""Typicality label lists and similarity-ranked snippet selection.

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

import numpy as np

from .config import read_lines
from .errors import LabelConflictError, MissingEmbeddingError, SchemaError
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
    normal: list[str] = []
    abnormal: list[str] = []
    prompt = ""
    section: list[str] | None = None
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("prompt"):
            head, sep, rest = line.partition("=")
            if head.strip() == "prompt" and sep:
                prompt = rest[1:] if rest.startswith(" ") else rest
                continue
        if line == "[normal]":
            section = normal
            continue
        if line == "[abnormal]":
            section = abnormal
            continue
        if line.startswith("[") and line.endswith("]"):
            raise SchemaError(f"{path}, line {lineno}: unknown section {line}")
        if section is None:
            raise SchemaError(f"{path}, line {lineno}: label before any section")
        section.append(line)
    return TypicalitySpec(normal_actions=normal, abnormal_actions=abnormal, prompt_text=prompt)


def save_typicality_spec(spec: TypicalitySpec, path: str | Path) -> None:
    lines = [f"prompt = {spec.prompt_text}", "[normal]"]
    lines.extend(spec.normal_actions)
    lines.append("[abnormal]")
    lines.extend(spec.abnormal_actions)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        wanted = set(action_list)
        for label in action_list:
            if label not in texts:
                raise MissingEmbeddingError(f"no text embedding for label {label!r}")
        scored = []
        for ref, label in labels.items():
            if label not in wanted:
                continue
            sim = cosine_similarity(
                features.lookup(ref).astype(np.float64), texts[label].values
            )
            similarities[ref] = sim
            scored.append((ref, sim))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return [ref for ref, _ in scored[: top_count(beta, len(scored))]]

    return SelectionResult(
        normal_refs=pick(spec.normal_actions, beta_normal),
        abnormal_refs=pick(spec.abnormal_actions, beta_abnormal),
        similarities=similarities,
    )
