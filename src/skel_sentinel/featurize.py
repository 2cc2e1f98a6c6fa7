"""Snippet feature vectors: built-in kinematic descriptor plus embedding file IO.

The embedding container is a little-endian binary: magic ``SKEM``, u16
version (=1), u32 count, u32 dimension, then count*dimension float32 values
in row-major order. A UTF-8 sidecar at ``<path>.idx`` lists one snippet_ref
(or class label) per row.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateVectorError,
    DimensionError,
    FileFormatError,
    MissingEmbeddingError,
    NonFiniteError,
    SchemaError,
)
from .pose_io import NormalizedSnippet

MAGIC = b"SKEM"
VERSION = 1
_HEADER = struct.Struct("<4sHII")

# Orthonormal projections keyed by (raw_dim, target_dim, seed); one per run
# in practice, so a plain dict is enough.
_projection_cache: dict[tuple[int, int, int], np.ndarray] = {}


@dataclass(frozen=True)
class FeatureVector:
    snippet_ref: str
    values: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise NonFiniteError(f"feature for {self.snippet_ref} has non-finite values")


@dataclass(frozen=True)
class TextEmbedding:
    label: str
    values: np.ndarray  # stored pre-normalized to unit length

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise NonFiniteError(f"text embedding for {self.label!r} has non-finite values")
        norm = float(np.linalg.norm(self.values))
        if abs(norm - 1.0) > 1e-6:
            raise SchemaError(f"text embedding for {self.label!r} must be unit norm, got {norm}")


class FeatureStore:
    """Row-aligned float32 feature matrix with a ref -> row index."""

    def __init__(self, refs: list[str], matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise DimensionError(f"feature matrix must be 2-D, got shape {matrix.shape}")
        if len(refs) != matrix.shape[0]:
            raise SchemaError(f"{len(refs)} refs for {matrix.shape[0]} rows")
        if not np.isfinite(matrix).all():
            raise NonFiniteError("feature matrix contains non-finite values")
        index = {ref: row for row, ref in enumerate(refs)}
        if len(index) != len(refs):
            raise SchemaError("snippet refs must be unique")
        self.refs = list(refs)
        self.matrix = matrix
        self._index = index

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __contains__(self, ref: str) -> bool:
        return ref in self._index

    def row(self, ref: str) -> int:
        try:
            return self._index[ref]
        except KeyError:
            raise MissingEmbeddingError(f"no feature stored for {ref!r}")

    def lookup(self, ref: str) -> np.ndarray:
        return self.matrix[self.row(ref)]


def snippet_descriptor(snippet: NormalizedSnippet) -> np.ndarray:
    """Raw kinematic descriptor: coordinates, velocities, joint-pair distances."""
    joints = snippet.joints  # (2, J, T)
    _, n_joints, _ = joints.shape
    coords = joints.ravel()
    velocities = np.diff(joints, axis=2).ravel()
    ia, ib = np.triu_indices(n_joints, k=1)
    deltas = joints[:, ia, :] - joints[:, ib, :]  # (2, P, T)
    pair_distances = np.sqrt((deltas * deltas).sum(axis=0)).ravel()
    return np.concatenate([coords, velocities, pair_distances])


def _projection(raw_dim: int, target_dim: int, seed: int) -> np.ndarray:
    key = (raw_dim, target_dim, seed)
    cached = _projection_cache.get(key)
    if cached is not None:
        return cached
    if target_dim > raw_dim:
        raise DimensionError(f"cannot project {raw_dim} dims up to {target_dim}")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((raw_dim, target_dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))  # canonical sign so the basis is seed-stable
    _projection_cache[key] = q
    return q


def kinematic_features(snippet: NormalizedSnippet, dim: int, seed: int) -> FeatureVector:
    """Project the kinematic descriptor onto `dim` seeded orthonormal axes."""
    if dim < 4:
        raise DimensionError(f"feature dimension must be >= 4, got {dim}")
    raw = snippet_descriptor(snippet)
    values = raw @ _projection(raw.size, dim, seed)
    return FeatureVector(snippet_ref=snippet.ref, values=values)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a <= 1e-12 or norm_b <= 1e-12:
        raise DegenerateVectorError("cosine similarity undefined for near-zero vectors")
    return float(np.clip(np.dot(a, b) / (norm_a * norm_b), -1.0, 1.0))


def class_prototypes(store: FeatureStore, labels: dict[str, str]) -> dict[str, TextEmbedding]:
    """Unit-normalized per-class mean features, the built-in stand-in for
    label embeddings when no external text encoder is available."""
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for ref, label in labels.items():
        if ref not in store:
            continue
        vec = store.lookup(ref).astype(np.float64)
        if label in sums:
            sums[label] += vec
            counts[label] += 1
        else:
            sums[label] = vec.copy()
            counts[label] = 1
    prototypes = {}
    for label in sorted(sums):
        mean = sums[label] / counts[label]
        norm = float(np.linalg.norm(mean))
        if norm <= 1e-12:
            raise DegenerateVectorError(f"class {label!r} has a zero mean feature")
        prototypes[label] = TextEmbedding(label=label, values=mean / norm)
    return prototypes


def write_embeddings(refs: list[str], matrix: np.ndarray, path: str | Path) -> None:
    """Write rows as float32 plus the `<path>.idx` sidecar with one ref per line."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise DimensionError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    if len(refs) != matrix.shape[0]:
        raise SchemaError(f"{len(refs)} refs for {matrix.shape[0]} rows")
    if not np.isfinite(matrix).all():
        raise NonFiniteError("embedding matrix contains non-finite values")
    count, dim = matrix.shape
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, count, dim))
        fh.write(matrix.astype("<f4", copy=False).tobytes())
    Path(f"{path}.idx").write_text("\n".join(refs) + ("\n" if refs else ""), encoding="utf-8")


def load_embeddings(path: str | Path) -> FeatureStore:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, version, count, dim = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    payload = blob[_HEADER.size :]
    expected = count * dim * 4
    if len(payload) != expected:
        raise FileFormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    matrix = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
    if not np.isfinite(matrix).all():
        raise NonFiniteError(f"{path}: payload contains non-finite values")

    sidecar = Path(f"{path}.idx")
    if not sidecar.exists():
        raise FileFormatError(f"{path}: missing sidecar index {sidecar}")
    refs = sidecar.read_text(encoding="utf-8").splitlines()
    if len(refs) != count:
        raise FileFormatError(
            f"{sidecar}: {len(refs)} refs for {count} rows in {path}"
        )
    return FeatureStore(refs, matrix)


def load_text_embeddings(path: str | Path) -> dict[str, TextEmbedding]:
    """Read a SKEM file whose sidecar rows are class labels."""
    store = load_embeddings(path)
    embeddings = {}
    for row, label in enumerate(store.refs):
        values = store.matrix[row].astype(np.float64)
        norm = float(np.linalg.norm(values))
        if abs(norm - 1.0) > 1e-3:
            raise SchemaError(f"{path}: embedding for {label!r} is not unit norm ({norm})")
        # undo float32 quantization drift so the unit-norm invariant holds
        embeddings[label] = TextEmbedding(label=label, values=values / norm)
    return embeddings
