"""Snippet feature vectors: built-in kinematic descriptor plus embedding file IO.

The embedding container is a little-endian binary: magic ``SKEM``, u16
version (=1), u32 count, u32 dimension, then count*dimension float32 values
in row-major order. A UTF-8 sidecar at ``<path>.idx`` lists one snippet_ref
(or class label) per row.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
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
    """Row-aligned float32 feature matrix with a ref -> row index; the one
    checked container that `write_embeddings` and `load_embeddings` share."""

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
            repeated = next(ref for row, ref in enumerate(refs) if index[ref] != row)
            raise DuplicateRecordError(f"repeated ref {repeated!r}")
        self.refs = list(refs)
        self.matrix = matrix
        self._index = index

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def _positions(self, refs: list[str]) -> list[int]:
        try:
            return [self._index[ref] for ref in refs]
        except KeyError as exc:
            raise MissingEmbeddingError(f"no feature stored for {exc.args[0]!r}") from None

    # perfbench/traced.py (lines 316-318) still gathers training rows by this.
    def lookup(self, ref: str) -> np.ndarray:
        """The stored float32 row of `ref`."""
        return self.matrix[self._positions([ref])[0]]

    def rows(self, refs: list[str]) -> np.ndarray:
        """Float64 copy of the rows of `refs`, in their order: (len(refs), D)."""
        return self.matrix[self._positions(refs)].astype(np.float64)


def descriptor_width(n_joints: int, length: int) -> int:
    """Columns of a raw descriptor of J joints over T frames."""
    return (2 * n_joints * length + 2 * n_joints * (length - 1)
            + n_joints * (n_joints - 1) // 2 * length)


def descriptors(joints: np.ndarray) -> np.ndarray:
    """Raw kinematic descriptors of a (B, 2, J, T) block, one row per snippet.

    Each row holds the coordinates, the frame-to-frame velocities and the
    distance of every joint pair (i < j, in `np.triu_indices` order) in every
    frame, each flattened in C order.
    """
    n, _, n_joints, length = joints.shape
    n_coords = 2 * n_joints * length
    n_velocities = 2 * n_joints * (length - 1)
    out = np.empty((n, descriptor_width(n_joints, length)), dtype=np.float64)
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


# perfbench/traced.py (line 128) still counts the descriptor width by this.
def snippet_descriptor(snippet: NormalizedSnippet) -> np.ndarray:
    """Raw kinematic descriptor: coordinates, velocities, joint-pair distances."""
    return descriptors(snippet.joints[None])[0]


def _projection(raw_dim: int, target_dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((raw_dim, target_dim))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))  # canonical sign so the basis is seed-stable


def kinematic_matrix(blocks: Iterable[np.ndarray] | np.ndarray, dim: int, seed: int) -> np.ndarray:
    """(N, dim) features of normalized snippets, in the order they arrive.

    `blocks` is one (N, 2, J, T) array, or a sized iterable of (B, 2, J, T)
    blocks of any sizes whose `len` bounds the rows it yields (as
    `pipeline.SnippetStream`'s does). Whatever the blocks, the rows are
    regrouped into GEMM blocks of exactly BLOCK_ROWS rows, only the last one
    shorter, so a row's bits depend on its position in the whole sequence,
    not on how the rows arrived. That matters: on OpenBLAS 0.3.31, a row of
    an (M, 256) @ (256, 64) product had the bits of the same row in the
    256-row product for every M from 2 to 255, but not for M = 1, which goes
    through gemv; so a stream that dropped a row and then passed on a one-row
    remainder would change that row's features. Each GEMM block's descriptors
    are built, then projected by GEMMs over fixed chunks of PROJECTION_CHUNK
    descriptor columns, summed into the block's rows of the output in chunk
    order. A single full-K GEMM is as fast, but the order in which OpenBLAS
    sums its K terms depends on the BLAS thread count, so its bits do too;
    with chunks this short the features are the same bytes at any thread
    count (checked by a test). Memory is one GEMM block of descriptors plus
    one (len(blocks), dim) output, allocated after the dimension check, whose
    first N rows are returned.

    The features are not bit-identical to a one-row-at-a-time product (nor is
    a one-row block to the same row in a larger one): every order of a K-term
    sum lies within gamma_K * sum_i |d_i p_i| of the exact dot product
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1),
    gamma_K = K u / (1 - K u), u = 2**-53, so any two orders differ by at
    most 2 gamma_K * (|raw| @ |P|) per feature.
    """
    if dim < 4:
        raise DimensionError(f"feature dimension must be >= 4, got {dim}")
    size = len(blocks)
    if isinstance(blocks, np.ndarray):
        blocks = (blocks,)
    out = np.empty((0, dim), dtype=np.float64)  # the features of no rows
    projection = None
    n = 0  # rows projected into out
    held: list[np.ndarray] = []  # rows waiting for a full GEMM block
    n_held = 0
    for block in blocks:
        _, _, n_joints, length = block.shape
        # checked before the output is allocated or the block's rows are held;
        # J is 0 only for a table of no tracks
        raw_dim = descriptor_width(n_joints, length)
        if n_joints and dim > raw_dim:
            raise DimensionError(f"cannot project {raw_dim} dims up to {dim}")
        if projection is None and len(block):
            projection = _projection(raw_dim, dim, seed)
            out = np.empty((size, dim), dtype=np.float64)
        while len(block):
            held.append(block[: BLOCK_ROWS - n_held])
            block = block[len(held[-1]) :]
            n_held += len(held[-1])
            if n_held == BLOCK_ROWS:
                n += _project(held, projection, out[n:])
                held, n_held = [], 0
    if held:
        n += _project(held, projection, out[n:])
    return out[:n]


def _project(held: list[np.ndarray], projection: np.ndarray, out: np.ndarray) -> int:
    """Write the features of one GEMM block, given as the row runs that make
    it up, into the first rows of `out`, and return how many rows it has."""
    raw = descriptors(held[0] if len(held) == 1 else np.concatenate(held))
    out = out[: len(raw)]
    np.matmul(raw[:, :PROJECTION_CHUNK], projection[:PROJECTION_CHUNK], out=out)
    for k in range(PROJECTION_CHUNK, raw.shape[1], PROJECTION_CHUNK):
        out += raw[:, k : k + PROJECTION_CHUNK] @ projection[k : k + PROJECTION_CHUNK]
    return len(raw)


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
    label embeddings when no external text encoder is available. Each class
    sums its rows in `labels` order, from -0.0, the exact additive identity."""
    names, codes, counts = np.unique(
        np.array(list(labels.values()), dtype=object), return_inverse=True, return_counts=True
    )
    sums = np.full((len(names), store.dimension), -0.0)
    np.add.at(sums, codes, store.rows(list(labels)))
    prototypes = {}
    for label, total, count in zip(names.tolist(), sums, counts.tolist()):
        mean = total / count
        norm = float(np.linalg.norm(mean))
        if norm <= 1e-12:
            raise DegenerateVectorError(f"class {label!r} has a zero mean feature")
        prototypes[label] = TextEmbedding(label=label, values=mean / norm)
    return prototypes


def write_embeddings(refs: list[str], matrix: np.ndarray, path: str | Path) -> None:
    """Write rows as float32 plus the `<path>.idx` sidecar with one ref per line.
    What `load_embeddings` would refuse is refused before any file is written."""
    store = FeatureStore(refs, matrix)
    for ref in store.refs:
        if "\n" in ref or ref.endswith("\r"):
            raise SchemaError(f"ref {ref!r} does not fit on one sidecar line")
    try:
        sidecar = "".join(f"{ref}\n" for ref in store.refs).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError(f"ref is not encodable as UTF-8: {exc.reason}") from None
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, *store.matrix.shape))
        fh.write(store.matrix.astype("<f4", copy=False).data)
    Path(f"{path}.idx").write_bytes(sidecar)


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
    for label, values in zip(store.refs, store.rows(store.refs)):
        norm = float(np.linalg.norm(values))
        if abs(norm - 1.0) > 1e-3:
            raise SchemaError(f"{path}: embedding for {label!r} is not unit norm ({norm})")
        # undo float32 quantization drift so the unit-norm invariant holds
        embeddings[label] = TextEmbedding(label=label, values=values / norm)
    return embeddings
