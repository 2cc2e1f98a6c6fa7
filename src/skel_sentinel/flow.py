"""Dual-center normalizing flow over feature vectors.

The flow stacks K blocks, each a per-dimension affine normalization followed
by an affine coupling step whose scale/translation functions are small
two-layer perceptrons conditioned on the untouched half. Coupling outputs are
zero-initialized, so a fresh model is exactly the identity map with zero
log-determinant. The base density is a spherical unit Gaussian with two
centers, one for typical-normal features and one far away for
typical-abnormal features; training maximizes log-likelihood of both.

Inference has one form: `flow_forward`, `flow_inverse`, `log_prob` and
`typicality_score` take an (n, D) batch and return per-row results, and
`log_prob` is the density under the normal center. The abnormal center
enters only the training loss. One vector x is scored as the batch x[None].

Every parameter lives in one float64 vector, `FlowModel.flat`: each
layer's parameters in `_layout` order, then the two base centers. The layer
fields and both centers are views of it, so initialization, checkpoints,
gradients and Adam all share one layout.

Gradients are computed analytically by reverse accumulation (no autodiff
dependency), which keeps the model checkable against finite differences.

Forward and backward passes run in a workspace of preallocated buffers,
sized for the largest batch and used through row views [:n]. For training
it holds each layer's forward cache, only what the backward pass cannot
cheaply rebuild (the layer output, both hidden activations and tanh of the
log-scale pre-activation); one normalized input `a` and one exp(log_scale)
buffer shared by all layers; the backward scratch; and one gradient vector
laid out like the trained part of `flat`. `train_flow` allocates one and
reuses it for every step, and runs Adam as one elementwise pass over that
vector with one pair of moment vectors. The log-scale is computed in the
exp(log_scale) buffer. The backward pass rebuilds each layer's `a` and
exp(log_scale) from its input and tanh_u with the forward pass's own
operations, forms the tanh derivatives in place in tanh_u, hs and ht after
their last read, and g_a * x in g_out; the loss's squared difference is
formed in g_a. At the default geometry (1,024 rows, D = 64, W = 128, 4
layers) the training workspace holds 16.3 MiB. For inference every layer
shares one set of buffers. Every floating-point
operation is the one an allocating implementation would do, in the same
order and on the same shapes and strides, and a rebuilt buffer is the same
operations on the same operands, so losses, gradients and trained
parameters are bit-identical to it. The gradient dict returned by
`nll_loss_and_grad` holds views of the workspace's gradient vector and is
overwritten by its next call.

A coupling's scale net (s_*, and the log-determinant) and shift net (t_*)
are independent given the layer's input. In a training workspace they read
the same inputs and write disjoint buffers and gradient views (hs, tanh_u
and the shared exp(log_scale) belong to the scale net, ht to the shift net,
and the shared `a` is written before either starts), so
`train_flow` runs them on two threads, forward and backward, at one BLAS
thread each; the shift net's input gradient is added after the scale net's,
as a serial pass adds it. Each operation is the one a serial pass does, so
the bits are too. Inference runs serially: its workspace shares the two
nets' hidden buffers.

Checkpoint format: magic ``SKFL``, u16 version (=1), u32 dimension, u32
layer count, u32 hidden width, then the model's flat vector as float32
little-endian: for each layer ``norm_log_scale, norm_bias, s_w1, s_b1,
s_w2, s_b2, t_w1, t_b1, t_w2, t_b2`` (row-major), followed by the two base
centers.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blas import one_blas_thread
from .config import RunConfig
from .errors import (
    ContractError,
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

# Most parameters init_flow builds, about 2,000 times the default flow's
# 67,456; a larger geometry is refused before anything is allocated.
MAX_FLOW_PARAMETERS = 2**27


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


def _layout(dimension: int, hidden_width: int) -> list[tuple[str, tuple[int, ...]]]:
    """(field, shape) of one layer's parameters, in their order in `flat`."""
    half = dimension // 2
    return [
        ("norm_log_scale", (dimension,)), ("norm_bias", (dimension,)),
        ("s_w1", (half, hidden_width)), ("s_b1", (hidden_width,)),
        ("s_w2", (hidden_width, half)), ("s_b2", (half,)),
        ("t_w1", (half, hidden_width)), ("t_b1", (hidden_width,)),
        ("t_w2", (hidden_width, half)), ("t_b2", (half,)),
    ]


def _flat_size(dimension: int, n_layers: int, hidden_width: int) -> int:
    layer = sum(math.prod(shape) for _, shape in _layout(dimension, hidden_width))
    return n_layers * layer + 2 * dimension


def _layer_views(
    flat: np.ndarray, n_layers: int, dimension: int, hidden_width: int
) -> tuple[list[FlowLayer], dict[str, np.ndarray]]:
    """FlowLayers whose fields are views of `flat`, which holds exactly
    n_layers layers; and the same views keyed ``layer<i>.<field>``."""
    layout = _layout(dimension, hidden_width)
    bounds = np.cumsum([0] + [math.prod(shape) for _, shape in layout]).tolist()
    layers, named = [], {}
    for i, row in enumerate(flat.reshape(n_layers, bounds[-1])):
        fields = {
            name: row[a:b].reshape(shape)
            for (name, shape), a, b in zip(layout, bounds, bounds[1:])
        }
        named.update((f"layer{i}.{name}", view) for name, view in fields.items())
        layers.append(FlowLayer(i % 2, **fields))
    return layers, named


class FlowModel:
    """A flow over `flat`, its one parameter vector.

    `layers`, `mu_normal` and `mu_abnormal` are views of `flat`; `trained`
    is its leading part, every layer's parameters, which training updates.
    """

    def __init__(self, dimension: int, n_layers: int, hidden_width: int, flat: np.ndarray):
        self.dimension = dimension
        self.hidden_width = hidden_width
        self.flat = flat
        self.trained = flat[: -2 * dimension]
        self.layers, self._named = _layer_views(self.trained, n_layers, dimension, hidden_width)
        self.mu_normal, self.mu_abnormal = flat[-2 * dimension :].reshape(2, dimension)

    @property
    def base_log_norm(self) -> float:
        """Log-normalization constant of the unit Gaussian base density."""
        return -0.5 * self.dimension * math.log(2.0 * math.pi)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """(name, view) of every trained parameter, in `flat` order."""
        return list(self._named.items())


def init_flow(dimension: int, n_layers: int, hidden_width: int, seed: int) -> FlowModel:
    """Build a seed-deterministic flow that starts as the identity map."""
    if dimension < 2 or dimension % 2 != 0:
        raise DimensionError(f"dimension must be even and >= 2, got {dimension}")
    if n_layers < 1:
        raise SchemaError(f"need at least one layer, got {n_layers}")
    if hidden_width < 1:
        raise SchemaError(f"hidden width must be >= 1, got {hidden_width}")
    size = _flat_size(dimension, n_layers, hidden_width)
    if size > MAX_FLOW_PARAMETERS:
        raise DimensionError(
            f"a flow of dimension {dimension}, {n_layers} layers and hidden width "
            f"{hidden_width} holds {size} parameters, more than {MAX_FLOW_PARAMETERS}"
        )

    flat = np.zeros(size)
    model = FlowModel(dimension, n_layers, hidden_width, flat)
    model.mu_abnormal[:] = ABNORMAL_CENTER_OFFSET
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        # the coupling outputs (s_w2, t_w2 and the biases) stay zero
        for weight in (layer.s_w1, layer.t_w1):
            weight[...] = rng.standard_normal(weight.shape) / math.sqrt(dimension // 2)
    return model


def _as_batch(x: np.ndarray, dimension: int) -> np.ndarray:
    """x as a float64 (n, dimension) batch; any other shape is a DimensionError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dimension:
        raise DimensionError(f"expected (n, {dimension}) batches, got shape {x.shape}")
    return x


def _split(a: np.ndarray, parity: int) -> tuple[np.ndarray, np.ndarray]:
    half = a.shape[1] // 2
    if parity == 0:
        return a[:, :half], a[:, half:]
    return a[:, half:], a[:, :half]


@dataclass
class _LayerCache:
    """One layer's forward buffers, (rows, width) each: what its backward
    pass reads and cannot cheaply rebuild."""

    out: np.ndarray  # layer output, the next layer's input
    hs: np.ndarray
    ht: np.ndarray
    tanh_u: np.ndarray


class _Workspace:
    """Buffers for the forward and backward passes, allocated once for `rows`.

    A batch of n <= rows rows uses the row views [:n]. Every layer writes
    its normalized input to `a` and its log-scale, then exp(log_scale), to
    `exp_ls`. With `training`, each layer has its own forward cache (out,
    hs, ht, tanh_u), while `a` and `exp_ls` are shared by all layers and
    rebuilt by the backward pass from the layer's input and tanh_u; the
    backward scratch and the gradient exist too: `grad`, laid out like
    `model.trained`, with FlowLayer views `grad_layers` and the same views
    by name in `grads`. The scale and shift nets each have their own
    backward scratch, so a training workspace given an `executor` runs them
    concurrently (`pair`). Without `training`, every layer shares one set
    of forward buffers (and hs/ht, tanh_u/exp_ls share storage), so
    inference memory is O(rows x hidden_width) whatever the depth, and the
    nets run serially. Nothing derived from the parameters is kept from one
    call to the next.
    """

    def __init__(
        self, model: FlowModel, rows: int, training: bool = True,
        executor: Executor | None = None,
    ):
        dim, width, half = model.dimension, model.hidden_width, model.dimension // 2

        def buf(cols: int) -> np.ndarray:
            return np.empty((rows, cols))

        self.rows = rows
        self.training = training
        self.a = buf(dim)
        if training:
            self.layers = [
                _LayerCache(buf(dim), buf(width), buf(width), buf(half)) for _ in model.layers
            ]
            self.exp_ls = buf(half)
            # backward scratch
            self.g_out = buf(dim)
            self.g_a = buf(dim)
            self.g_u = buf(half)
            self.g_mm = buf(half)
            self.g_hidden = buf(width)
            # the shift net's own backward scratch
            self.t_g_mm = buf(half)
            self.t_g_hidden = buf(width)
            self.grad = np.zeros(model.trained.size)
            self.grad_layers, self.grads = _layer_views(self.grad, len(model.layers), dim, width)
        else:
            hidden, gate = buf(width), buf(half)
            self.layers = [_LayerCache(buf(dim), hidden, hidden, gate)] * len(model.layers)
            self.exp_ls = gate
        self.shift = buf(half)
        self.executor = executor if training else None

    def pair(self, first: Callable[[], None], second: Callable[[], None]) -> None:
        """Run `first` here and `second` on the executor, and return when both
        are done; with no executor, run them in that order."""
        if self.executor is None:
            first()
            second()
            return
        future = self.executor.submit(second)
        try:
            first()
        finally:
            future.result()


def _dense_tanh(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = tanh(x @ w + b), computed in `out`."""
    np.matmul(x, w, out=out)
    np.add(out, b, out=out)
    np.tanh(out, out=out)


def _one_minus_square(x: np.ndarray) -> None:
    """x = 1 - x*x, the tanh derivative, in place."""
    np.multiply(x, x, out=x)
    np.subtract(1.0, x, out=x)


def _normalize(x: np.ndarray, layer: FlowLayer, out: np.ndarray) -> None:
    """out = x * exp(norm_log_scale) + norm_bias, the layer's normalized input."""
    np.multiply(x, np.exp(layer.norm_log_scale), out=out)
    np.add(out, layer.norm_bias, out=out)


def _forward(model: FlowModel, x: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Map the batch through every layer; z is a view of the last output buffer.

    The scale net runs before the shift net, or beside it (`ws.pair`). The
    order matters for an inference workspace, where hs and ht share
    storage, and so do tanh_u and exp_ls: hs is consumed before ht is
    written, and tanh_u is read once, into the log-scale that exp_ls holds
    until it is summed and exp() overwrites it.
    """
    n = x.shape[0]
    logdet = np.zeros(n)
    a, exp_ls, shift = ws.a[:n], ws.exp_ls[:n], ws.shift[:n]
    current = x
    for layer, cache in zip(model.layers, ws.layers):
        out, hs, ht, tanh_u = cache.out[:n], cache.hs[:n], cache.ht[:n], cache.tanh_u[:n]
        _normalize(current, layer, a)
        cond, trans = _split(a, layer.parity)
        out_cond, scaled = _split(out, layer.parity)

        def scale_net() -> None:
            _dense_tanh(cond, layer.s_w1, layer.s_b1, hs)
            _dense_tanh(hs, layer.s_w2, layer.s_b2, tanh_u)
            np.multiply(LOG_SCALE_BOUND, tanh_u, out=exp_ls)
            np.add(logdet, layer.norm_log_scale.sum() + exp_ls.sum(axis=1), out=logdet)
            np.exp(exp_ls, out=exp_ls)

        def shift_net() -> None:
            _dense_tanh(cond, layer.t_w1, layer.t_b1, ht)
            np.matmul(ht, layer.t_w2, out=shift)
            np.add(shift, layer.t_b2, out=shift)

        ws.pair(scale_net, shift_net)
        np.multiply(trans, exp_ls, out=scaled)
        np.add(scaled, shift, out=scaled)
        out_cond[...] = cond
        current = out
    return current, logdet


def flow_forward(model: FlowModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map an (n, D) batch to base space; returns (z, per-row log-determinant)."""
    batch = _as_batch(x, model.dimension)
    if not np.isfinite(batch).all():
        raise NonFiniteError("flow input contains non-finite values")
    z, logdet = _forward(model, batch, _Workspace(model, batch.shape[0], training=False))
    if not (np.isfinite(z).all() and np.isfinite(logdet).all()):
        raise NonFiniteError("flow produced non-finite values")
    return z, logdet


def flow_inverse(model: FlowModel, z: np.ndarray) -> np.ndarray:
    """Map an (n, D) batch of base-space points back to feature space."""
    batch = _as_batch(z, model.dimension)
    if not np.isfinite(batch).all():
        raise NonFiniteError("flow inverse input contains non-finite values")
    current = batch
    for layer in reversed(model.layers):
        cond, scaled = _split(current, layer.parity)
        hs = np.tanh(cond @ layer.s_w1 + layer.s_b1)
        log_scale = LOG_SCALE_BOUND * np.tanh(hs @ layer.s_w2 + layer.s_b2)
        ht = np.tanh(cond @ layer.t_w1 + layer.t_b1)
        shift = ht @ layer.t_w2 + layer.t_b2
        a = np.empty_like(current)
        a_cond, a_trans = _split(a, layer.parity)
        a_cond[...] = cond
        np.multiply(scaled - shift, np.exp(-log_scale), out=a_trans)
        current = (a - layer.norm_bias) * np.exp(-layer.norm_log_scale)
    if not np.isfinite(current).all():
        raise NonFiniteError("flow inverse produced non-finite values")
    return current


def log_prob(model: FlowModel, x: np.ndarray) -> np.ndarray:
    """Log-density of each row of an (n, D) batch under the normal center."""
    batch = _as_batch(x, model.dimension)
    z, logdet = _forward(model, batch, _Workspace(model, batch.shape[0], training=False))
    diff = np.subtract(z, model.mu_normal, out=z)
    sq = np.multiply(diff, diff, out=diff)
    values = model.base_log_norm - 0.5 * sq.sum(axis=1) + logdet
    if not np.isfinite(values).all():
        raise NonFiniteError("log_prob produced non-finite values")
    return values


def typicality_score(model: FlowModel, features: np.ndarray) -> np.ndarray:
    """Negative log-likelihood of each row under the normal center; higher =
    more anomalous."""
    return -log_prob(model, features)


def _backward(model: FlowModel, ws: _Workspace, x: np.ndarray, g_logdet: np.ndarray) -> None:
    """Accumulate parameter gradients for one batch into ws.grad.

    On entry ws.g_out[:n] holds dLoss/dz; g_logdet is dLoss/dlogdet per
    sample. The forward caches must still hold this batch's forward pass;
    each layer's pass leaves its hs, ht and tanh_u holding tanh derivatives.
    """
    n = x.shape[0]
    a, exp_ls, g_out, g_a = ws.a[:n], ws.exp_ls[:n], ws.g_out[:n], ws.g_a[:n]
    g_u, g_mm, g_hidden = ws.g_u[:n], ws.g_mm[:n], ws.g_hidden[:n]
    t_g_mm, t_g_hidden = ws.t_g_mm[:n], ws.t_g_hidden[:n]
    g_ld_total = g_logdet.sum()
    for i in range(len(model.layers) - 1, -1, -1):
        layer, cache, grad = model.layers[i], ws.layers[i], ws.grad_layers[i]
        x_in = x if i == 0 else ws.layers[i - 1].out[:n]
        hs, ht, tanh_u = cache.hs[:n], cache.ht[:n], cache.tanh_u[:n]
        _normalize(x_in, layer, a)  # as the forward pass built it
        cond, trans = _split(a, layer.parity)
        g_cond_out, g_scaled = _split(g_out, layer.parity)
        g_cond, g_trans = _split(g_a, layer.parity)

        def scale_net() -> None:
            # exp(log_scale), as the forward pass built it
            np.multiply(LOG_SCALE_BOUND, tanh_u, out=exp_ls)
            np.exp(exp_ls, out=exp_ls)
            np.multiply(g_scaled, exp_ls, out=g_trans)
            # g_log_scale = g_scaled * trans * exp_ls + g_logdet
            np.multiply(g_scaled, trans, out=g_u)
            np.multiply(g_u, exp_ls, out=g_u)
            np.add(g_u, g_logdet[:, None], out=g_u)
            # g_u = g_log_scale * (LOG_SCALE_BOUND * (1 - tanh_u^2)); each
            # tanh derivative is formed in place after its tanh's last read
            _one_minus_square(tanh_u)
            np.multiply(LOG_SCALE_BOUND, tanh_u, out=tanh_u)
            np.multiply(g_u, tanh_u, out=g_u)

            grad.s_w2 += hs.T @ g_u
            grad.s_b2 += g_u.sum(axis=0)
            np.matmul(g_u, layer.s_w2.T, out=g_hidden)
            _one_minus_square(hs)
            np.multiply(g_hidden, hs, out=g_hidden)
            grad.s_w1 += cond.T @ g_hidden
            grad.s_b1 += g_hidden.sum(axis=0)
            np.matmul(g_hidden, layer.s_w1.T, out=g_mm)
            np.add(g_cond_out, g_mm, out=g_cond)

        def shift_net() -> None:
            grad.t_w2 += ht.T @ g_scaled
            grad.t_b2 += g_scaled.sum(axis=0)
            np.matmul(g_scaled, layer.t_w2.T, out=t_g_hidden)
            _one_minus_square(ht)
            np.multiply(t_g_hidden, ht, out=t_g_hidden)
            grad.t_w1 += cond.T @ t_g_hidden
            grad.t_b1 += t_g_hidden.sum(axis=0)
            np.matmul(t_g_hidden, layer.t_w1.T, out=t_g_mm)

        ws.pair(scale_net, shift_net)
        np.add(g_cond, t_g_mm, out=g_cond)

        exp_nls = np.exp(layer.norm_log_scale)
        # dLoss/dout is spent: g_out holds g_a * x_in until it takes dLoss/dx_in
        prod = np.multiply(g_a, x_in, out=g_out)
        grad.norm_log_scale += prod.sum(axis=0) * exp_nls + g_ld_total
        grad.norm_bias += g_a.sum(axis=0)
        if i > 0:  # layer 0's input gradient, dLoss/dx, is never read
            np.multiply(g_a, exp_nls, out=g_out)


def nll_loss_and_grad(
    model: FlowModel,
    batch_normal: np.ndarray,
    batch_abnormal: np.ndarray | None = None,
    workspace: _Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean negative log-likelihood of both batches plus analytic gradients.

    The abnormal batch may be empty (full-shot mode), dropping its term.
    With no workspace, one sized to the larger batch is built for this call.
    The returned gradient arrays belong to the workspace: a later call with
    the same workspace overwrites them.
    """
    batch_normal = np.asarray(batch_normal, dtype=np.float64)
    if batch_normal.size == 0:
        raise EmptyBatchError("normal batch must be non-empty")
    batches = [(_as_batch(batch_normal, model.dimension), model.mu_normal)]
    if batch_abnormal is not None:
        batch_abnormal = np.asarray(batch_abnormal, dtype=np.float64)
        if batch_abnormal.size > 0:
            batches.append((_as_batch(batch_abnormal, model.dimension), model.mu_abnormal))
    rows = max(batch.shape[0] for batch, _ in batches)
    ws = _Workspace(model, rows) if workspace is None else workspace
    if not ws.training or ws.rows < rows:
        raise ContractError(f"workspace holds {ws.rows} training rows, batch needs {rows}")

    loss = 0.0
    ws.grad.fill(0.0)
    for batch, mu in batches:
        n = batch.shape[0]
        z, logdet = _forward(model, batch, ws)
        diff = np.subtract(z, mu, out=ws.g_out[:n])
        sq = np.multiply(diff, diff, out=ws.g_a[:n])
        loss += float((-model.base_log_norm + 0.5 * sq.sum(axis=1) - logdet).mean())
        np.divide(diff, n, out=diff)
        _backward(model, ws, batch, np.full(n, -1.0 / n))
    return loss, ws.grads


# perfbench/traced.py (line 326) still builds the training config by this
# name, passing all four fields train_flow reads.
TrainConfig = RunConfig


def train_flow(
    model: FlowModel,
    data_normal: np.ndarray,
    data_abnormal: np.ndarray | None,
    cfg: RunConfig,
) -> tuple[FlowModel, list[float]]:
    """Adam maximum-likelihood training; returns the model and per-epoch loss.

    Of `cfg` it reads learning_rate, batch_size, epochs and seed. Shuffling
    is driven by cfg.seed, so identical inputs give identical loss histories
    and parameters. The model is updated in place.

    Training runs at one BLAS thread, and each coupling's scale and shift
    nets run on two threads; the second one lives only as long as this call.
    """
    data_normal = np.asarray(data_normal, dtype=np.float64)
    if data_normal.size == 0:
        raise EmptyBatchError("training requires a non-empty normal set")
    data_normal = _as_batch(data_normal, model.dimension)
    n_abnormal = 0
    if data_abnormal is not None:
        data_abnormal = np.asarray(data_abnormal, dtype=np.float64)
        if data_abnormal.size > 0:
            data_abnormal = _as_batch(data_abnormal, model.dimension)
            n_abnormal = data_abnormal.shape[0]

    rng = np.random.default_rng(cfg.seed)
    n_normal = data_normal.shape[0]
    batch = cfg.batch_size
    rows_n = np.empty((min(batch, n_normal), model.dimension))
    rows_a = np.empty((min(batch, n_abnormal), model.dimension))
    with one_blas_thread(), ThreadPoolExecutor(1) as executor:
        workspace = _Workspace(model, max(rows_n.shape[0], rows_a.shape[0]), executor=executor)
        params, grad = model.trained, workspace.grad
        # Adam moments m and v, then two scratch vectors
        m, v = np.zeros_like(params), np.zeros_like(params)
        update, denom = np.empty_like(params), np.empty_like(params)
        step = 0
        history: list[float] = []

        steps_per_epoch = max(1, math.ceil(n_normal / batch))
        for epoch in range(cfg.epochs):
            order_n = rng.permutation(n_normal)
            order_a = rng.permutation(n_abnormal) if n_abnormal else None
            epoch_losses = []
            for s in range(steps_per_epoch):
                # mode="clip" gathers straight into `out` ("raise" would
                # buffer); permutation indices are always in range
                idx_n = order_n[s * batch : (s + 1) * batch]
                batch_n = np.take(
                    data_normal, idx_n, axis=0, out=rows_n[: len(idx_n)], mode="clip"
                )
                batch_a = None
                if n_abnormal:
                    take = rows_a.shape[0]
                    idx = (s * take + np.arange(take)) % n_abnormal
                    batch_a = np.take(data_abnormal, order_a[idx], axis=0, out=rows_a, mode="clip")
                try:
                    loss, _ = nll_loss_and_grad(model, batch_n, batch_a, workspace)
                except NonFiniteError as exc:
                    raise TrainingDivergedError(epoch, str(exc))
                if not math.isfinite(loss):
                    raise TrainingDivergedError(epoch)
                epoch_losses.append(loss)

                step += 1
                bias1 = 1.0 - ADAM_BETA1**step
                bias2 = 1.0 - ADAM_BETA2**step
                # m = BETA1 * m + (1 - BETA1) * grad; v likewise with grad * grad
                m *= ADAM_BETA1
                np.multiply(1.0 - ADAM_BETA1, grad, out=update)
                m += update
                v *= ADAM_BETA2
                np.multiply(grad, grad, out=denom)
                denom *= 1.0 - ADAM_BETA2
                v += denom
                if cfg.learning_rate != 0.0:
                    # params -= lr * (m / bias1) / (sqrt(v / bias2) + EPSILON)
                    np.divide(m, bias1, out=update)
                    update *= cfg.learning_rate
                    np.divide(v, bias2, out=denom)
                    np.sqrt(denom, out=denom)
                    denom += ADAM_EPSILON
                    update /= denom
                    params -= update
            history.append(float(np.mean(epoch_losses)))
    return model, history


def _require_finite(stored: FlowModel, path: str | Path) -> None:
    """NonFiniteError naming the first parameter of `stored`, a model over a
    checkpoint's float32 values, that is not finite."""
    if np.isfinite(stored.flat).all():
        return
    named = [
        *stored.parameters(), ("mu_normal", stored.mu_normal), ("mu_abnormal", stored.mu_abnormal)
    ]
    bad = next(name for name, value in named if not np.isfinite(value).all())
    raise NonFiniteError(f"{path}: non-finite values in {bad}")


def save_flow(model: FlowModel, path: str | Path) -> None:
    """Write `model` as float32; a parameter that is not finite as float32 is
    a NonFiniteError naming it, raised before anything is written."""
    with np.errstate(over="ignore"):
        values = model.flat.astype("<f4")
    _require_finite(FlowModel(model.dimension, len(model.layers), model.hidden_width, values), path)
    header = _HEADER.pack(MAGIC, VERSION, model.dimension, len(model.layers), model.hidden_width)
    Path(path).write_bytes(header + values.tobytes())


def load_flow(path: str | Path) -> FlowModel:
    path = Path(path)
    if path.is_dir():
        raise FileFormatError(f"{path}: is a directory")
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

    # the expected size comes from the header alone, before any allocation
    count = _flat_size(dimension, n_layers, hidden_width)
    payload = len(blob) - _HEADER.size
    if payload < 4 * count:
        raise FileFormatError(f"{path}: payload shorter than geometry implies")
    if payload > 4 * count:
        raise FileFormatError(f"{path}: {payload - 4 * count} trailing bytes")
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=_HEADER.size)
    _require_finite(FlowModel(dimension, n_layers, hidden_width, values), path)
    return FlowModel(dimension, n_layers, hidden_width, values.astype(np.float64))
