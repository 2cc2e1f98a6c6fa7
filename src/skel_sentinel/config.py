"""Run configuration: one flat key-value file shared by every pipeline stage.

A resolved copy of the config is written next to the outputs of each run so
results can always be traced back to the exact hyperparameters that produced
them. The file format is `key = value`, one per line, `#` comments allowed.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .errors import SchemaError

THREADS_ENV_VAR = "SKEL_SENTINEL_THREADS"


@dataclass
class RunConfig:
    joints: int = 17
    window_length: int = 16
    stride: int = 1
    feature_dim: int = 64
    flow_layers: int = 4
    hidden_width: int = 128
    k_neighbors: int = 16
    alpha: float = 4.0
    beta_normal: float = 0.9
    beta_abnormal: float = 0.1
    learning_rate: float = 0.0005
    batch_size: int = 1024
    epochs: int = 40
    epsilon: float = 1e-8
    smoothing_window: int = 0
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        for field in dataclasses.fields(self):
            problem = _range_problem(field.name, getattr(self, field.name))
            if problem:
                raise SchemaError(problem)

    def replace(self, **overrides) -> "RunConfig":
        return dataclasses.replace(self, **overrides)

    def to_file(self, path: str | Path) -> None:
        lines = []
        for field in dataclasses.fields(self):
            lines.append(f"{field.name} = {getattr(self, field.name)!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        known = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for lineno, raw in read_lines(path):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}, line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise SchemaError(f"{path}, line {lineno}: unknown config key {key!r}")
            if key in values:
                raise SchemaError(f"{path}, line {lineno}: repeated config key {key!r}")
            values[key] = parse_value(
                value.strip(), known[key].type, f"{path}, line {lineno}: {key}"
            )
            problem = _range_problem(key, values[key])
            if problem:
                raise SchemaError(f"{path}, line {lineno}: {problem}")
        return cls(**values)


_AT_LEAST_ONE = ("joints", "stride", "flow_layers", "hidden_width", "k_neighbors", "batch_size")
_NON_NEGATIVE = ("alpha", "learning_rate", "epochs", "smoothing_window", "seed")
_FRACTIONS = ("beta_normal", "beta_abnormal")


def _range_problem(name: str, value) -> str | None:
    """Why `value` is out of range for the RunConfig field `name`, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"{name} must be finite, got {value!r}"
    if name == "epsilon" and value <= 0:
        return f"epsilon must be > 0, got {value!r}"
    # the flow splits each feature vector into two halves
    if name == "feature_dim" and (value < 4 or value % 2):
        return f"feature_dim must be even and >= 4, got {value!r}"
    if name == "window_length" and value < 2:
        return f"window_length must be >= 2, got {value!r}"
    if name in _AT_LEAST_ONE and value < 1:
        return f"{name} must be >= 1, got {value!r}"
    if name in _NON_NEGATIVE and value < 0:
        return f"{name} must be >= 0, got {value!r}"
    if name in _FRACTIONS and not 0 < value <= 1:
        return f"{name} must lie in (0, 1], got {value!r}"
    return None


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a UTF-8 file, read one line at a time.

    A line ends at `\n`, and one `\r` before it is dropped; any other `\r`,
    form feed or Unicode line separator is part of the line. A directory, or a
    line that is not UTF-8, is a SchemaError naming the path (and the line).
    """
    if Path(path).is_dir():
        raise SchemaError(f"{path}: is a directory")
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                text = raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
            except UnicodeDecodeError:
                raise SchemaError(f"{path}, line {lineno}: not valid UTF-8") from None
            yield lineno, text


def parse_value(text: str, field_type: str, where: str):
    """`text`, unquoted, as a value of a field of `field_type`.

    A value that does not parse is a SchemaError whose message starts with
    `where`.
    """
    if text and text[0] in "'\"" and text[-1] == text[0]:
        text = text[1:-1]
    try:
        return {"int": int, "float": float}.get(field_type, str)(text)
    except ValueError:
        raise SchemaError(f"{where}: expected {field_type}, got {text!r}") from None


def resolve_threads(cli_value: int | None) -> int:
    """CLI flag wins; SKEL_SENTINEL_THREADS is the fallback; default 1."""
    if cli_value is not None:
        return max(1, cli_value)
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SchemaError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}")
    return 1
