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

from .config import read_lines
from .errors import (
    DegenerateVectorError,
    DimensionError,
    DuplicateRecordError,
    FileFormatError,
    MissingEmbeddingError,
    NonFiniteError,
    SchemaError,
)
from .pose_io import BLOCK_ROWS, NormalizedSnippet

MAGIC = b"SKEM"
VERSION = 1
_HEADER = struct.Struct("<4sHII")

# Descriptor columns per projection GEMM; see kinematic_matrix.
PROJECTION_CHUNK = 256

# Orthonormal projections keyed by (raw_dim, target_dim, seed); one per run
# in practice, so a plain dict is enough.
_projection_cache: dict[tuple[int, int, int], np.ndarray] = {}


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


def descriptors(joints: np.ndarray) -> np.ndarray:
    """Raw kinematic descriptors of a (B, 2, J, T) block, one row per snippet.

    Each row holds the coordinates, the frame-to-frame velocities and the
    distance of every joint pair (i < j, in `np.triu_indices` order) in every
    frame, each flattened in C order.
    """
    n, _, n_joints, length = joints.shape
    n_coords = 2 * n_joints * length
    n_velocities = 2 * n_joints * (length - 1)
    n_pairs = n_joints * (n_joints - 1) // 2
    out = np.empty((n, n_coords + n_velocities + n_pairs * length), dtype=np.float64)
    out[:, :n_coords] = joints.reshape(n, n_coords)
    np.subtract(
        joints[..., 1:], joints[..., :-1],
        out=out[:, n_coords : n_coords + n_velocities].reshape(n, 2, n_joints, length - 1),
    )
    # Joint i against every later joint: one contiguous run of pairs per i.
    column = n_coords + n_velocities
    x, y = joints[:, 0], joints[:, 1]
    for i in range(n_joints - 1):
        dx = x[:, i : i + 1] - x[:, i + 1 :]
        dy = y[:, i : i + 1] - y[:, i + 1 :]
        dx *= dx
        dy *= dy
        dx += dy
        end = column + dx.shape[1] * length
        np.sqrt(dx, out=out[:, column:end].reshape(dx.shape))
        column = end
    return out


def snippet_descriptor(snippet: NormalizedSnippet) -> np.ndarray:
    """Raw kinematic descriptor: coordinates, velocities, joint-pair distances."""
    return descriptors(snippet.joints[None])[0]


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


def kinematic_matrix(joints: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """(N, dim) features of an (N, 2, J, T) stack of normalized snippets.

    Descriptors are built and projected BLOCK_ROWS rows at a time, so the
    descriptor block never outgrows BLOCK_ROWS rows. Each block is projected
    by GEMMs over fixed chunks of PROJECTION_CHUNK descriptor columns, summed
    into the block's output in chunk order. A single full-K GEMM is as fast,
    but the order in which OpenBLAS sums its K terms depends on the BLAS
    thread count, so its bits do too; with chunks this short the features are
    the same bytes at any thread count (checked by a test).

    The features are not bit-identical to a one-row-at-a-time product (nor is
    a one-row block to the same row in a larger one, which goes through gemv):
    every order of a K-term sum lies within gamma_K * sum_i |d_i p_i| of the
    exact dot product (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), gamma_K = K u / (1 - K u), u = 2**-53, so any two
    orders differ by at most 2 gamma_K * (|raw| @ |P|) per feature.
    """
    if dim < 4:
        raise DimensionError(f"feature dimension must be >= 4, got {dim}")
    n = joints.shape[0]
    out = np.empty((n, dim), dtype=np.float64)
    for b0 in range(0, n, BLOCK_ROWS):
        raw = descriptors(joints[b0 : b0 + BLOCK_ROWS])
        projection = _projection(raw.shape[1], dim, seed)
        block = out[b0 : b0 + BLOCK_ROWS]
        np.matmul(raw[:, :PROJECTION_CHUNK], projection[:PROJECTION_CHUNK], out=block)
        for k in range(PROJECTION_CHUNK, raw.shape[1], PROJECTION_CHUNK):
            block += raw[:, k : k + PROJECTION_CHUNK] @ projection[k : k + PROJECTION_CHUNK]
    return out


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
    if path.is_dir():
        raise FileFormatError(f"{path}: is a directory")
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
    lines = list(read_lines(sidecar))
    if len(lines) != count:
        raise FileFormatError(
            f"{sidecar}: {len(lines)} refs for {count} rows in {path}"
        )
    seen: set[str] = set()
    for lineno, ref in lines:
        if ref in seen:
            raise DuplicateRecordError(f"{sidecar}, line {lineno}: repeated ref {ref!r}")
        seen.add(ref)
    return FeatureStore([ref for _, ref in lines], matrix)


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
