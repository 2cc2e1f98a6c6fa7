"""Dual-center normalizing flow over feature vectors.

The flow stacks K blocks, each a per-dimension affine normalization followed
by an affine coupling step whose scale/translation functions are small
two-layer perceptrons conditioned on the untouched half. Coupling outputs are
zero-initialized, so a fresh model is exactly the identity map with zero
log-determinant. The base density is a spherical unit Gaussian with two
centers, one for typical-normal features and one far away for
typical-abnormal features; training maximizes log-likelihood of both.

Gradients are computed analytically by reverse accumulation (no autodiff
dependency), which keeps the model checkable against finite differences.

Checkpoint format: magic ``SKFL``, u16 version (=1), u32 dimension, u32
layer count, u32 hidden width, then float32 little-endian parameters: for
each layer ``norm_log_scale, norm_bias, s_w1, s_b1, s_w2, s_b2, t_w1, t_b1,
t_w2, t_b2`` (row-major), followed by the two base centers.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    EmptyBatchError,
    FileFormatError,
    NonFiniteError,
    SchemaError,
    TrainingDivergedError,
)

MAGIC = b"SKFL"
VERSION = 1
_HEADER = struct.Struct("<4sHIII")

# Coupling log-scales are squashed through tanh into [-LOG_SCALE_BOUND,
# LOG_SCALE_BOUND] so a single layer can never overflow exp().
LOG_SCALE_BOUND = 5.0

# Per-dimension offset of the abnormal center; makes ||mu_n - mu_a|| = 10*sqrt(D).
ABNORMAL_CENTER_OFFSET = 10.0

# Adam moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class FlowLayer:
    parity: int  # 0: first half conditions, 1: second half conditions
    norm_log_scale: np.ndarray  # (D,)
    norm_bias: np.ndarray  # (D,)
    s_w1: np.ndarray  # (D/2, W)
    s_b1: np.ndarray  # (W,)
    s_w2: np.ndarray  # (W, D/2)
    s_b2: np.ndarray  # (D/2,)
    t_w1: np.ndarray
    t_b1: np.ndarray
    t_w2: np.ndarray
    t_b2: np.ndarray

    _PARAM_FIELDS = (
        "norm_log_scale", "norm_bias",
        "s_w1", "s_b1", "s_w2", "s_b2",
        "t_w1", "t_b1", "t_w2", "t_b2",
    )


@dataclass
class FlowModel:
    dimension: int
    hidden_width: int
    layers: list[FlowLayer]
    mu_normal: np.ndarray
    mu_abnormal: np.ndarray

    @property
    def base_log_norm(self) -> float:
        """Log-normalization constant of the unit Gaussian base density."""
        return -0.5 * self.dimension * math.log(2.0 * math.pi)

    def center(self, which: str) -> np.ndarray:
        if which == "normal":
            return self.mu_normal
        if which == "abnormal":
            return self.mu_abnormal
        raise SchemaError(f"unknown center {which!r}")

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name in FlowLayer._PARAM_FIELDS:
                out.append((f"layer{i}.{name}", getattr(layer, name)))
        return out


def init_flow(dimension: int, n_layers: int, hidden_width: int, seed: int) -> FlowModel:
    """Build a seed-deterministic flow that starts as the identity map."""
    if dimension < 2 or dimension % 2 != 0:
        raise DimensionError(f"dimension must be even and >= 2, got {dimension}")
    if n_layers < 1:
        raise SchemaError(f"need at least one layer, got {n_layers}")
    if hidden_width < 1:
        raise SchemaError(f"hidden width must be >= 1, got {hidden_width}")

    half = dimension // 2
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(n_layers):
        def hidden(fan_in: int) -> np.ndarray:
            return rng.standard_normal((fan_in, hidden_width)) / math.sqrt(fan_in)

        layers.append(
            FlowLayer(
                parity=i % 2,
                norm_log_scale=np.zeros(dimension),
                norm_bias=np.zeros(dimension),
                s_w1=hidden(half),
                s_b1=np.zeros(hidden_width),
                s_w2=np.zeros((hidden_width, half)),
                s_b2=np.zeros(half),
                t_w1=hidden(half),
                t_b1=np.zeros(hidden_width),
                t_w2=np.zeros((hidden_width, half)),
                t_b2=np.zeros(half),
            )
        )
    return FlowModel(
        dimension=dimension,
        hidden_width=hidden_width,
        layers=layers,
        mu_normal=np.zeros(dimension),
        mu_abnormal=np.full(dimension, ABNORMAL_CENTER_OFFSET),
    )


def _as_batch(x: np.ndarray, dimension: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dimension:
        raise DimensionError(f"expected vectors of dimension {dimension}, got shape {x.shape}")
    return x, single


def _split(a: np.ndarray, parity: int) -> tuple[np.ndarray, np.ndarray]:
    half = a.shape[1] // 2
    if parity == 0:
        return a[:, :half], a[:, half:]
    return a[:, half:], a[:, :half]


def _join(cond: np.ndarray, trans: np.ndarray, parity: int) -> np.ndarray:
    if parity == 0:
        return np.concatenate([cond, trans], axis=1)
    return np.concatenate([trans, cond], axis=1)


def _forward_batch(model: FlowModel, x: np.ndarray, keep_cache: bool):
    logdet = np.zeros(x.shape[0])
    caches = [] if keep_cache else None
    current = x
    for layer in model.layers:
        a = current * np.exp(layer.norm_log_scale) + layer.norm_bias
        cond, trans = _split(a, layer.parity)
        hs = np.tanh(cond @ layer.s_w1 + layer.s_b1)
        tanh_u = np.tanh(hs @ layer.s_w2 + layer.s_b2)
        log_scale = LOG_SCALE_BOUND * tanh_u
        ht = np.tanh(cond @ layer.t_w1 + layer.t_b1)
        shift = ht @ layer.t_w2 + layer.t_b2
        scaled = trans * np.exp(log_scale) + shift
        logdet += layer.norm_log_scale.sum() + log_scale.sum(axis=1)
        if keep_cache:
            caches.append((current, cond, trans, hs, tanh_u, log_scale, ht))
        current = _join(cond, scaled, layer.parity)
    return current, logdet, caches


def flow_forward(model: FlowModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Map features to base space; returns (z, accumulated log-determinant)."""
    batch, single = _as_batch(x, model.dimension)
    if not np.isfinite(batch).all():
        raise NonFiniteError("flow input contains non-finite values")
    z, logdet, _ = _forward_batch(model, batch, keep_cache=False)
    if not (np.isfinite(z).all() and np.isfinite(logdet).all()):
        raise NonFiniteError("flow produced non-finite values")
    if single:
        return z[0], float(logdet[0])
    return z, logdet


def flow_inverse(model: FlowModel, z: np.ndarray) -> np.ndarray:
    batch, single = _as_batch(z, model.dimension)
    if not np.isfinite(batch).all():
        raise NonFiniteError("flow inverse input contains non-finite values")
    current = batch
    for layer in reversed(model.layers):
        cond, scaled = _split(current, layer.parity)
        hs = np.tanh(cond @ layer.s_w1 + layer.s_b1)
        log_scale = LOG_SCALE_BOUND * np.tanh(hs @ layer.s_w2 + layer.s_b2)
        ht = np.tanh(cond @ layer.t_w1 + layer.t_b1)
        shift = ht @ layer.t_w2 + layer.t_b2
        trans = (scaled - shift) * np.exp(-log_scale)
        a = _join(cond, trans, layer.parity)
        current = (a - layer.norm_bias) * np.exp(-layer.norm_log_scale)
    if not np.isfinite(current).all():
        raise NonFiniteError("flow inverse produced non-finite values")
    return current[0] if single else current


def log_prob(model: FlowModel, x: np.ndarray, center: str) -> np.ndarray | float:
    """Log-density of x under the flow with the requested base center."""
    mu = model.center(center)
    batch, single = _as_batch(x, model.dimension)
    z, logdet, _ = _forward_batch(model, batch, keep_cache=False)
    diff = z - mu
    values = model.base_log_norm - 0.5 * (diff * diff).sum(axis=1) + logdet
    if not np.isfinite(values).all():
        raise NonFiniteError("log_prob produced non-finite values")
    return float(values[0]) if single else values


def typicality_score(model: FlowModel, features: np.ndarray) -> np.ndarray | float:
    """Negative log-likelihood under the normal center; higher = more anomalous."""
    result = log_prob(model, features, "normal")
    return -result if isinstance(result, float) else -np.asarray(result)


def _zero_grads(model: FlowModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(value) for name, value in model.parameters()}


def _backward_batch(
    model: FlowModel,
    caches: list,
    g_z: np.ndarray,
    g_logdet: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate parameter gradients for one batch into `grads`.

    g_z is dLoss/dz, g_logdet is dLoss/dlogdet per sample.
    """
    g_out = g_z
    g_ld_total = g_logdet.sum()
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        x_in, cond, trans, hs, tanh_u, log_scale, ht = caches[i]
        g_cond_out, g_scaled = _split(g_out, layer.parity)

        exp_ls = np.exp(log_scale)
        g_trans = g_scaled * exp_ls
        g_log_scale = g_scaled * trans * exp_ls + g_logdet[:, None]
        g_u = g_log_scale * (LOG_SCALE_BOUND * (1.0 - tanh_u * tanh_u))

        grads[f"layer{i}.s_w2"] += hs.T @ g_u
        grads[f"layer{i}.s_b2"] += g_u.sum(axis=0)
        g_hs_pre = (g_u @ layer.s_w2.T) * (1.0 - hs * hs)
        grads[f"layer{i}.s_w1"] += cond.T @ g_hs_pre
        grads[f"layer{i}.s_b1"] += g_hs_pre.sum(axis=0)
        g_cond = g_cond_out + g_hs_pre @ layer.s_w1.T

        grads[f"layer{i}.t_w2"] += ht.T @ g_scaled
        grads[f"layer{i}.t_b2"] += g_scaled.sum(axis=0)
        g_ht_pre = (g_scaled @ layer.t_w2.T) * (1.0 - ht * ht)
        grads[f"layer{i}.t_w1"] += cond.T @ g_ht_pre
        grads[f"layer{i}.t_b1"] += g_ht_pre.sum(axis=0)
        g_cond = g_cond + g_ht_pre @ layer.t_w1.T

        g_a = _join(g_cond, g_trans, layer.parity)
        exp_nls = np.exp(layer.norm_log_scale)
        grads[f"layer{i}.norm_log_scale"] += (g_a * x_in).sum(axis=0) * exp_nls + g_ld_total
        grads[f"layer{i}.norm_bias"] += g_a.sum(axis=0)
        g_out = g_a * exp_nls


def nll_loss_and_grad(
    model: FlowModel,
    batch_normal: np.ndarray,
    batch_abnormal: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean negative log-likelihood of both batches plus analytic gradients.

    The abnormal batch may be empty (full-shot mode), dropping its term.
    """
    batch_normal = np.asarray(batch_normal, dtype=np.float64)
    if batch_normal.size == 0:
        raise EmptyBatchError("normal batch must be non-empty")
    batches = [(batch_normal, model.mu_normal)]
    if batch_abnormal is not None:
        batch_abnormal = np.asarray(batch_abnormal, dtype=np.float64)
        if batch_abnormal.size > 0:
            batches.append((batch_abnormal, model.mu_abnormal))

    loss = 0.0
    grads = _zero_grads(model)
    for batch, mu in batches:
        batch, _ = _as_batch(batch, model.dimension)
        n = batch.shape[0]
        z, logdet, caches = _forward_batch(model, batch, keep_cache=True)
        diff = z - mu
        loss += float(
            (-model.base_log_norm + 0.5 * (diff * diff).sum(axis=1) - logdet).mean()
        )
        _backward_batch(model, caches, diff / n, np.full(n, -1.0 / n), grads)
    return loss, grads


@dataclass
class TrainConfig:
    learning_rate: float = 0.0005
    batch_size: int = 1024
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise SchemaError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise SchemaError("batch_size must be >= 1")
        if self.epochs < 0:
            raise SchemaError("epochs must be >= 0")


def train_flow(
    model: FlowModel,
    data_normal: np.ndarray,
    data_abnormal: np.ndarray | None,
    cfg: TrainConfig,
) -> tuple[FlowModel, list[float]]:
    """Adam maximum-likelihood training; returns the model and per-epoch loss.

    Shuffling is driven by cfg.seed, so identical inputs give identical loss
    histories and parameters. The model is updated in place.
    """
    data_normal = np.asarray(data_normal, dtype=np.float64)
    if data_normal.size == 0:
        raise EmptyBatchError("training requires a non-empty normal set")
    data_normal, _ = _as_batch(data_normal, model.dimension)
    n_abnormal = 0
    if data_abnormal is not None:
        data_abnormal = np.asarray(data_abnormal, dtype=np.float64)
        if data_abnormal.size > 0:
            data_abnormal, _ = _as_batch(data_abnormal, model.dimension)
            n_abnormal = data_abnormal.shape[0]

    rng = np.random.default_rng(cfg.seed)
    params = dict(model.parameters())
    adam_m = {name: np.zeros_like(p) for name, p in params.items()}
    adam_v = {name: np.zeros_like(p) for name, p in params.items()}
    step = 0
    history: list[float] = []

    n_normal = data_normal.shape[0]
    batch = cfg.batch_size
    steps_per_epoch = max(1, math.ceil(n_normal / batch))
    for epoch in range(cfg.epochs):
        order_n = rng.permutation(n_normal)
        order_a = rng.permutation(n_abnormal) if n_abnormal else None
        epoch_losses = []
        for s in range(steps_per_epoch):
            batch_n = data_normal[order_n[s * batch : (s + 1) * batch]]
            batch_a = None
            if n_abnormal:
                take = min(batch, n_abnormal)
                idx = (s * take + np.arange(take)) % n_abnormal
                batch_a = data_abnormal[order_a[idx]]
            try:
                loss, grads = nll_loss_and_grad(model, batch_n, batch_a)
            except NonFiniteError as exc:
                raise TrainingDivergedError(epoch, str(exc))
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            epoch_losses.append(loss)

            step += 1
            bias1 = 1.0 - ADAM_BETA1**step
            bias2 = 1.0 - ADAM_BETA2**step
            for name, param in params.items():
                g = grads[name]
                adam_m[name] = ADAM_BETA1 * adam_m[name] + (1.0 - ADAM_BETA1) * g
                adam_v[name] = ADAM_BETA2 * adam_v[name] + (1.0 - ADAM_BETA2) * (g * g)
                if cfg.learning_rate != 0.0:
                    m_hat = adam_m[name] / bias1
                    v_hat = adam_v[name] / bias2
                    param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        history.append(float(np.mean(epoch_losses)))
    return model, history


def save_flow(model: FlowModel, path: str | Path) -> None:
    chunks = [
        _HEADER.pack(MAGIC, VERSION, model.dimension, len(model.layers), model.hidden_width)
    ]
    for _, value in model.parameters():
        chunks.append(np.ascontiguousarray(value, dtype="<f4").tobytes())
    chunks.append(np.ascontiguousarray(model.mu_normal, dtype="<f4").tobytes())
    chunks.append(np.ascontiguousarray(model.mu_abnormal, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_flow(path: str | Path) -> FlowModel:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, version, dimension, n_layers, hidden_width = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    if dimension < 2 or dimension % 2 or n_layers < 1 or hidden_width < 1:
        raise FileFormatError(f"{path}: invalid geometry ({dimension}, {n_layers}, {hidden_width})")

    model = init_flow(dimension, n_layers, hidden_width, seed=0)
    offset = _HEADER.size

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal offset
        count = int(np.prod(shape))
        end = offset + 4 * count
        if end > len(blob):
            raise FileFormatError(f"{path}: payload shorter than geometry implies")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        offset = end
        return arr.astype(np.float64).reshape(shape)

    for layer in model.layers:
        for name in FlowLayer._PARAM_FIELDS:
            setattr(layer, name, take(getattr(layer, name).shape))
    model.mu_normal = take((dimension,))
    model.mu_abnormal = take((dimension,))
    if offset != len(blob):
        raise FileFormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return model
