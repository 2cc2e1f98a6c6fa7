import dataclasses
import math
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skel_sentinel.checks import (
    density_integral,
    gradient_max_rel_error,
    invertibility_error,
    make_perturbed_flow,
    numeric_logdet,
    roundtrip_error_z,
    run_self_tests,
)
from skel_sentinel.config import BLOCK_ROWS, RunConfig, next_block_rows
from skel_sentinel.errors import (
    ContractError,
    DimensionError,
    EmptyBatchError,
    FileFormatError,
    NonFiniteError,
    TrainingDivergedError,
)
from skel_sentinel import flow
from skel_sentinel.flow import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    LOG_SCALE_BOUND,
    _Workspace,
    flow_forward,
    flow_inverse,
    init_flow,
    load_flow,
    log_prob,
    nll_loss_and_grad,
    save_flow,
    train_flow,
    typicality_score,
)


class TestInit:
    def test_fresh_model_is_identity(self):
        model = init_flow(8, 4, 16, seed=0)
        x = np.random.default_rng(1).standard_normal((20, 8)) * 5
        z, logdet = flow_forward(model, x)
        np.testing.assert_array_equal(z, x)
        np.testing.assert_array_equal(logdet, 0.0)

    def test_same_seed_bitwise_equal(self):
        a = init_flow(8, 3, 16, seed=42)
        b = init_flow(8, 3, 16, seed=42)
        for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert pa.tobytes() == pb.tobytes()

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            init_flow(3, 2, 8, seed=0)

    @pytest.mark.parametrize(
        "dimension, n_layers, width", [(64, 4, 10**12), (64, 10**12, 128), (2 * 10**12, 4, 128)]
    )
    def test_oversized_flow_refused_before_allocating(self, dimension, n_layers, width):
        with pytest.raises(
            DimensionError,
            match=f"dimension {dimension}, {n_layers} layers and hidden width {width} holds",
        ):
            init_flow(dimension, n_layers, width, seed=0)

    def test_center_separation(self):
        for d in (2, 16, 64):
            model = init_flow(d, 2, 8, seed=0)
            gap = np.linalg.norm(model.mu_normal - model.mu_abnormal)
            assert gap == pytest.approx(10.0 * math.sqrt(d))


class TestForwardInverse:
    def test_pure_scaling_logdet_closed_form(self):
        model = init_flow(2, 1, 4, seed=0)
        model.layers[0].norm_log_scale[:] = 1.0  # multiply both dims by e
        z, logdet = flow_forward(model, np.array([[0.5, -2.0]]))
        np.testing.assert_allclose(z[0], np.array([0.5, -2.0]) * math.e)
        assert logdet[0] == pytest.approx(2.0)

    def test_logdet_matches_numeric_jacobian_trained(self):
        model = make_perturbed_flow(4, 3, 8, seed=5, scale=0.2)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.standard_normal(4) * 2
            _, analytic = flow_forward(model, x[None])
            assert abs(analytic[0] - numeric_logdet(model, x)) <= 1e-4

    def test_roundtrip_x_to_z_to_x(self):
        model = make_perturbed_flow(16, 4, 32, seed=7, scale=0.1)
        assert invertibility_error(model, 1000, seed=8) <= 1e-5

    def test_roundtrip_z_to_x_to_z(self):
        model = make_perturbed_flow(16, 4, 32, seed=9, scale=0.1)
        assert roundtrip_error_z(model, 1000, seed=10) <= 1e-5

    def test_identity_inverse(self):
        model = init_flow(6, 2, 8, seed=0)
        z = np.random.default_rng(2).standard_normal(6)
        np.testing.assert_array_equal(flow_inverse(model, z[None]), z[None])


class TestLogProb:
    def test_closed_form_at_normal_center(self):
        model = init_flow(2, 2, 8, seed=0)
        value = log_prob(model, model.mu_normal[None])[0]
        assert value == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_monotone_in_distance_for_identity_flow(self):
        model = init_flow(4, 2, 8, seed=0)
        rng = np.random.default_rng(3)
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        values = log_prob(model, [model.mu_normal + r * direction for r in (0, 1, 2, 5)])
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_scaling_flow_change_of_variables(self):
        # z = e * x: log p_x(x) = log N(e*x; mu, I) + D*log(e)
        model = init_flow(2, 1, 4, seed=0)
        model.layers[0].norm_log_scale[:] = 1.0
        x = np.array([0.3, -0.7])
        z = x * math.e
        base = -math.log(2 * math.pi) - 0.5 * float(((z - model.mu_normal) ** 2).sum())
        assert log_prob(model, x[None])[0] == pytest.approx(base + 2.0, abs=1e-12)

    def test_density_normalizes_identity(self):
        model = init_flow(2, 4, 8, seed=0)
        assert density_integral(model) == pytest.approx(1.0, abs=0.02)

    def test_density_normalizes_perturbed(self):
        model = make_perturbed_flow(2, 4, 16, seed=4, scale=0.05)
        assert density_integral(model) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**32, 2**63 - 1])
    def test_self_tests_pass(self, seed):
        # a fixed +-8 grid around mu_normal integrated 0.8887 at seed 12345,
        # 0.9526 at 2**32 and 0.9321 at 2**63 - 1: the flow's mass lay outside it
        results = run_self_tests(seed)
        assert [name for name, passed, _ in results if not passed] == [], results

    def test_typicality_score_is_negative_log_prob(self):
        model = make_perturbed_flow(6, 2, 8, seed=11, scale=0.1)
        x = np.random.default_rng(12).standard_normal(6)
        assert typicality_score(model, x[None])[0] == -log_prob(model, x[None])[0]

    def test_typicality_monotone_from_center(self):
        model = init_flow(4, 2, 8, seed=0)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        assert typicality_score(model, model.mu_normal[None])[0] < typicality_score(
            model, (model.mu_normal + v)[None]
        )[0]

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129])
    def test_typicality_in_blocks_has_the_bits_of_one_batch(self, n):
        # scored BLOCK_ROWS = 64 rows at a time, never in a block of one row
        # unless n = 1 (a one-row GEMM goes through gemv); -log_prob scores
        # the n rows as one batch
        model = make_perturbed_flow(64, 4, 128, seed=15, scale=0.05)
        x = np.random.default_rng(n).standard_normal((n, 64))
        blocks, left = [], n
        while rows := next_block_rows(left, BLOCK_ROWS, ended=True):
            blocks.append(rows)
            left -= rows
        assert sum(blocks) == n
        assert all(1 < rows <= BLOCK_ROWS for rows in blocks) or n == 1
        scores = typicality_score(model, x)
        want = -log_prob(model, x)
        np.testing.assert_array_equal(scores.view(np.int64), want.view(np.int64))

    def test_typicality_holds_one_block_workspace(self):
        # 10,000 rows at the default geometry: a workspace for every row
        # would be about 25.6 MB; one of BLOCK_ROWS rows is 164 KB. NumPy
        # reports its allocations to tracemalloc.
        n, width = 10_000, 128
        model = make_perturbed_flow(64, 4, width, seed=16, scale=0.05)
        x = np.random.default_rng(17).standard_normal((n, 64))
        tracemalloc.start()
        try:
            scores = typicality_score(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.shape == (n,)
        # the (n,) scores plus eight (BLOCK_ROWS, width) float64 buffers
        bound = n * 8 + 8 * BLOCK_ROWS * width * 8
        assert peak < bound, f"peak {peak} bytes, bound {bound}"

    def test_shift_invariance_of_argmax(self):
        model = make_perturbed_flow(6, 2, 8, seed=13, scale=0.1)
        x = np.random.default_rng(14).standard_normal((50, 6))
        scores = np.asarray(typicality_score(model, x))
        assert np.argmax(scores) == np.argmax(scores + 123.456)


class TestLossAndGrad:
    def test_closed_form_at_centers(self):
        model = init_flow(2, 3, 8, seed=0)
        loss, _ = nll_loss_and_grad(
            model, model.mu_normal[None, :], model.mu_abnormal[None, :]
        )
        assert loss == pytest.approx(2 * math.log(2 * math.pi), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        model = make_perturbed_flow(4, 2, 8, seed=15, scale=0.1)
        rng = np.random.default_rng(16)
        batch_n = rng.standard_normal((6, 4))
        batch_a = rng.standard_normal((5, 4)) + 3.0
        assert gradient_max_rel_error(model, batch_n, batch_a) <= 1e-4

    def test_gradients_match_fd_without_abnormal_batch(self):
        model = make_perturbed_flow(4, 2, 8, seed=17, scale=0.1)
        batch_n = np.random.default_rng(18).standard_normal((7, 4))
        assert gradient_max_rel_error(model, batch_n, None) <= 1e-4

    def test_duplicated_rows_leave_loss_unchanged(self):
        model = make_perturbed_flow(4, 2, 8, seed=19, scale=0.1)
        rng = np.random.default_rng(20)
        bn = rng.standard_normal((5, 4))
        ba = rng.standard_normal((4, 4))
        loss_once, _ = nll_loss_and_grad(model, bn, ba)
        loss_twice, _ = nll_loss_and_grad(
            model, np.vstack([bn, bn]), np.vstack([ba, ba])
        )
        assert loss_twice == pytest.approx(loss_once, rel=1e-12)

    def test_empty_normal_batch_rejected(self):
        model = init_flow(4, 2, 8, seed=0)
        with pytest.raises(EmptyBatchError):
            nll_loss_and_grad(model, np.empty((0, 4)), None)


def two_clusters(rng, dim, n, separation=6.0):
    center_n = rng.standard_normal(dim) * 2.0
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    center_a = center_n + separation * direction
    return (
        center_n + rng.standard_normal((n, dim)),
        center_a + rng.standard_normal((n, dim)),
    )


class TestTraining:
    def test_loss_decreases_on_two_clusters(self):
        rng = np.random.default_rng(21)
        data_n, data_a = two_clusters(rng, 8, 512)
        model = init_flow(8, 2, 16, seed=22)
        _, history = train_flow(
            model, data_n, data_a, RunConfig(batch_size=128, epochs=20, seed=23)
        )
        assert history[-1] < history[0]

    def test_zero_learning_rate_is_null_update(self):
        rng = np.random.default_rng(24)
        data_n, data_a = two_clusters(rng, 4, 64)
        model = init_flow(4, 2, 8, seed=25)
        before = {name: p.copy() for name, p in model.parameters()}
        train_flow(
            model, data_n, data_a,
            RunConfig(learning_rate=0.0, batch_size=32, epochs=3, seed=26),
        )
        for name, p in model.parameters():
            assert p.tobytes() == before[name].tobytes()

    def test_same_seed_same_history(self):
        rng = np.random.default_rng(27)
        data_n, data_a = two_clusters(rng, 4, 128)
        cfg = RunConfig(batch_size=64, epochs=5, seed=28)
        _, h1 = train_flow(init_flow(4, 2, 8, seed=29), data_n, data_a, cfg)
        _, h2 = train_flow(init_flow(4, 2, 8, seed=29), data_n, data_a, cfg)
        assert h1 == h2

    def test_full_shot_mode_trains_without_abnormal(self):
        rng = np.random.default_rng(30)
        data_n, _ = two_clusters(rng, 4, 256)
        model = init_flow(4, 2, 8, seed=31)
        _, history = train_flow(
            model, data_n, None, RunConfig(batch_size=64, epochs=10, seed=32)
        )
        assert history[-1] < history[0]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(33)
        data_n, data_a = two_clusters(rng, 4, 64)
        model = init_flow(4, 2, 8, seed=34)
        # squared distances overflow immediately, so epoch 0 must be reported
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train_flow(
                model, data_n * 1e200, data_a * 1e200,
                RunConfig(learning_rate=10.0, batch_size=32, epochs=5, seed=35),
            )

    def test_scores_separate_clusters_after_training(self):
        rng = np.random.default_rng(36)
        data_n, data_a = two_clusters(rng, 8, 1024)
        model = init_flow(8, 4, 32, seed=37)
        train_flow(model, data_n, data_a, RunConfig(batch_size=256, epochs=30, seed=38))
        test_n, test_a = two_clusters(np.random.default_rng(39), 8, 200)
        mean_n = float(np.mean(typicality_score(model, data_n)))
        mean_a = float(np.mean(typicality_score(model, data_a)))
        assert mean_a > mean_n


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = make_perturbed_flow(8, 3, 16, seed=40, scale=0.1)
        path = tmp_path / "model.skfl"
        save_flow(model, path)
        loaded = load_flow(path)
        x = np.random.default_rng(41).standard_normal((10, 8))
        z0, ld0 = flow_forward(model, x)
        z1, ld1 = flow_forward(loaded, x)
        # parameters are stored as float32, so allow quantization error
        np.testing.assert_allclose(z0, z1, rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(ld0, ld1, rtol=1e-5, atol=1e-4)

    def test_header_is_validated(self, tmp_path):
        model = init_flow(4, 2, 8, seed=42)
        path = tmp_path / "model.skfl"
        save_flow(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="magic"):
            load_flow(path)

    def test_truncation_detected(self, tmp_path):
        model = init_flow(4, 2, 8, seed=43)
        path = tmp_path / "model.skfl"
        save_flow(model, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError):
            load_flow(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.skfl"):
            load_flow(tmp_path / "nope.skfl")

    def test_oversized_geometry_rejected_before_allocating(self, tmp_path):
        # 20 bytes whose header claims a 64-d, 4-layer, 16,384-wide flow
        path = tmp_path / "model.skfl"
        path.write_bytes(struct.pack("<4sHIII", b"SKFL", 1, 64, 4, 16384) + b"\0\0")
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError, match="shorter than geometry"):
                load_flow(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "name, index, value",
        [("mu_abnormal", 1, np.nan), ("layer0.norm_log_scale", 0, np.inf)],
    )
    def test_non_finite_parameter_names_path_and_parameter(self, tmp_path, name, index, value):
        model = make_perturbed_flow(4, 2, 3, seed=44, scale=0.1)
        path = tmp_path / "model.skfl"
        save_flow(model, path)
        # save_flow refuses the bad value, so it is written into the payload
        target = model.mu_abnormal if name == "mu_abnormal" else dict(model.parameters())[name]
        target[index] = value
        header = path.read_bytes()[: -4 * model.flat.size]
        path.write_bytes(header + model.flat.astype("<f4").tobytes())
        with pytest.raises(NonFiniteError, match=f"model.skfl: non-finite values in {name}"):
            load_flow(path)

    @pytest.mark.parametrize(
        "name, index, value",
        [
            ("mu_abnormal", 1, np.nan),
            ("layer0.norm_log_scale", 0, np.inf),
            # finite as float64, inf as float32
            ("layer0.norm_log_scale", 3, 1e39),
            ("layer1.t_b2", 0, -1e39),
        ],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, name, index, value):
        model = make_perturbed_flow(4, 2, 3, seed=44, scale=0.1)
        target = model.mu_abnormal if name == "mu_abnormal" else dict(model.parameters())[name]
        target[index] = value
        path = tmp_path / "model.skfl"
        with pytest.raises(NonFiniteError, match=f"model.skfl: non-finite values in {name}"):
            save_flow(model, path)
        assert not path.exists()


def small_blob() -> bytes:
    """A (4, 2, 3) checkpoint: 18-byte header, then 92 float32 values.

    Every value lies in +-[1, 2), so its exponent field is 0b01111111 and
    flipping the top exponent bit (bit 6 of the value's last byte) gives
    an inf or NaN.
    """
    rng = np.random.default_rng(45)
    values = rng.uniform(1.0, 2.0, 92) * rng.choice([-1.0, 1.0], 92)
    return struct.pack("<4sHIII", b"SKFL", 1, 4, 2, 3) + values.astype("<f4").tobytes()


SMALL_BLOB = small_blob()


@settings(max_examples=200, deadline=None)
@given(bit=st.integers(0, 8 * len(SMALL_BLOB) - 1))
@example(bit=8 * 17 + 7)  # top bit of hidden_width: claims 2**31 + 3
@example(bit=8 * (18 + 3) + 6)  # first value becomes non-finite
def test_single_bit_flip_loads_finite_model_or_typed_error(tmp_path_factory, bit):
    blob = bytearray(SMALL_BLOB)
    blob[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path_factory.getbasetemp() / "flipped.skfl"
    path.write_bytes(bytes(blob))
    try:
        model = load_flow(path)
    except (FileFormatError, NonFiniteError):
        return
    _, _, dimension, n_layers, hidden_width = struct.unpack_from("<4sHIII", blob)
    assert (model.dimension, len(model.layers), model.hidden_width) == (
        dimension, n_layers, hidden_width,
    )
    for _, p in model.parameters():
        assert np.isfinite(p).all()
    assert np.isfinite(model.mu_normal).all() and np.isfinite(model.mu_abnormal).all()


# Frozen copy of the per-parameter checkpoint writer and reader that the flat
# vector replaced: the format must not change a byte.
FROZEN_FIELDS = (
    "norm_log_scale", "norm_bias", "s_w1", "s_b1", "s_w2", "s_b2", "t_w1", "t_b1", "t_w2", "t_b2",
)


def frozen_save_flow(model, path):
    chunks = [
        struct.pack("<4sHIII", b"SKFL", 1, model.dimension, len(model.layers), model.hidden_width)
    ]
    for layer in model.layers:
        for field in FROZEN_FIELDS:
            chunks.append(np.ascontiguousarray(getattr(layer, field), dtype="<f4").tobytes())
    chunks.append(np.ascontiguousarray(model.mu_normal, dtype="<f4").tobytes())
    chunks.append(np.ascontiguousarray(model.mu_abnormal, dtype="<f4").tobytes())
    path.write_bytes(b"".join(chunks))


def frozen_load_flow(path):
    """(dimension, layers, width), [(name, values)], mu_normal, mu_abnormal."""
    blob = path.read_bytes()
    _, _, dimension, n_layers, hidden_width = struct.unpack_from("<4sHIII", blob)
    half = dimension // 2
    shapes = {
        "norm_log_scale": (dimension,), "norm_bias": (dimension,),
        "s_w1": (half, hidden_width), "s_b1": (hidden_width,),
        "s_w2": (hidden_width, half), "s_b2": (half,),
        "t_w1": (half, hidden_width), "t_b1": (hidden_width,),
        "t_w2": (hidden_width, half), "t_b2": (half,),
    }
    offset = 18

    def take(shape):
        nonlocal offset
        size = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
        offset += 4 * size
        return arr.astype(np.float64).reshape(shape)

    params = [
        (f"layer{i}.{field}", take(shapes[field]))
        for i in range(n_layers) for field in FROZEN_FIELDS
    ]
    mu_normal, mu_abnormal = take((dimension,)), take((dimension,))
    assert offset == len(blob)
    return (dimension, n_layers, hidden_width), params, mu_normal, mu_abnormal


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(1, 4),
    n_layers=st.integers(1, 3),
    hidden_width=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1e-3, 0.1, 3.0, 1e4]),
)
def test_checkpoint_matches_frozen_format(
    tmp_path_factory, half, n_layers, hidden_width, seed, scale
):
    model = make_perturbed_flow(2 * half, n_layers, hidden_width, seed, scale)
    rng = np.random.default_rng(seed + 2)
    model.mu_normal += rng.standard_normal(2 * half) * scale
    model.mu_abnormal += rng.standard_normal(2 * half) * scale
    root = tmp_path_factory.getbasetemp()
    save_flow(model, root / "new.skfl")
    frozen_save_flow(model, root / "frozen.skfl")
    blob = (root / "new.skfl").read_bytes()
    assert blob == (root / "frozen.skfl").read_bytes()

    geometry, params, mu_normal, mu_abnormal = frozen_load_flow(root / "frozen.skfl")
    loaded = load_flow(root / "new.skfl")
    assert (loaded.dimension, len(loaded.layers), loaded.hidden_width) == geometry
    assert [name for name, _ in loaded.parameters()] == [name for name, _ in params]
    for (name, value), (_, expected) in zip(loaded.parameters(), params):
        assert value.shape == expected.shape, name
        np.testing.assert_array_equal(value.view(np.int64), expected.view(np.int64), name)
    for value, expected in ((loaded.mu_normal, mu_normal), (loaded.mu_abnormal, mu_abnormal)):
        np.testing.assert_array_equal(value.view(np.int64), expected.view(np.int64))


# Frozen copy of the allocating forward, backward and loss that the reused
# workspace replaced: every step must match it bit for bit.
def _oracle_split(a, parity):
    half = a.shape[1] // 2
    if parity == 0:
        return a[:, :half], a[:, half:]
    return a[:, half:], a[:, :half]


def _oracle_join(cond, trans, parity):
    if parity == 0:
        return np.concatenate([cond, trans], axis=1)
    return np.concatenate([trans, cond], axis=1)


def oracle_forward_batch(model, x, keep_cache):
    logdet = np.zeros(x.shape[0])
    caches = [] if keep_cache else None
    current = x
    for layer in model.layers:
        a = current * np.exp(layer.norm_log_scale) + layer.norm_bias
        cond, trans = _oracle_split(a, layer.parity)
        hs = np.tanh(cond @ layer.s_w1 + layer.s_b1)
        tanh_u = np.tanh(hs @ layer.s_w2 + layer.s_b2)
        log_scale = LOG_SCALE_BOUND * tanh_u
        ht = np.tanh(cond @ layer.t_w1 + layer.t_b1)
        shift = ht @ layer.t_w2 + layer.t_b2
        scaled = trans * np.exp(log_scale) + shift
        logdet += layer.norm_log_scale.sum() + log_scale.sum(axis=1)
        if keep_cache:
            caches.append((current, cond, trans, hs, tanh_u, log_scale, ht))
        current = _oracle_join(cond, scaled, layer.parity)
    return current, logdet, caches


def oracle_backward_batch(model, caches, g_z, g_logdet, grads):
    g_out = g_z
    g_ld_total = g_logdet.sum()
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        x_in, cond, trans, hs, tanh_u, log_scale, ht = caches[i]
        g_cond_out, g_scaled = _oracle_split(g_out, layer.parity)

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

        g_a = _oracle_join(g_cond, g_trans, layer.parity)
        exp_nls = np.exp(layer.norm_log_scale)
        grads[f"layer{i}.norm_log_scale"] += (g_a * x_in).sum(axis=0) * exp_nls + g_ld_total
        grads[f"layer{i}.norm_bias"] += g_a.sum(axis=0)
        g_out = g_a * exp_nls


def oracle_loss_and_grad(model, batch_normal, batch_abnormal=None):
    batch_normal = np.asarray(batch_normal, dtype=np.float64)
    batches = [(batch_normal, model.mu_normal)]
    if batch_abnormal is not None:
        batch_abnormal = np.asarray(batch_abnormal, dtype=np.float64)
        if batch_abnormal.size > 0:
            batches.append((batch_abnormal, model.mu_abnormal))

    loss = 0.0
    grads = {name: np.zeros_like(value) for name, value in model.parameters()}
    for batch, mu in batches:
        n = batch.shape[0]
        z, logdet, caches = oracle_forward_batch(model, batch, keep_cache=True)
        diff = z - mu
        loss += float(
            (-model.base_log_norm + 0.5 * (diff * diff).sum(axis=1) - logdet).mean()
        )
        oracle_backward_batch(model, caches, diff / n, np.full(n, -1.0 / n), grads)
    return loss, grads


def oracle_train(model, data_normal, data_abnormal, cfg):
    n_abnormal = 0 if data_abnormal is None else data_abnormal.shape[0]
    rng = np.random.default_rng(cfg.seed)
    params = dict(model.parameters())
    adam_m = {name: np.zeros_like(p) for name, p in params.items()}
    adam_v = {name: np.zeros_like(p) for name, p in params.items()}
    step = 0
    history = []
    n_normal = data_normal.shape[0]
    batch = cfg.batch_size
    steps_per_epoch = max(1, math.ceil(n_normal / batch))
    for _ in range(cfg.epochs):
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
            loss, grads = oracle_loss_and_grad(model, batch_n, batch_a)
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


def assert_same_bits(result, expected):
    loss, grads = result
    loss_ref, grads_ref = expected
    assert np.float64(loss).view(np.int64) == np.float64(loss_ref).view(np.int64)
    assert grads.keys() == grads_ref.keys()
    for name, g in grads.items():
        np.testing.assert_array_equal(g.view(np.int64), grads_ref[name].view(np.int64), name)


def loss_batches(seed, n_normal, n_abnormal, dim=6):
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal((n_normal, dim)) * 1.5
    abnormal = None if n_abnormal is None else rng.standard_normal((n_abnormal, dim)) + 4.0
    return normal, abnormal


def held_bytes(obj):
    """Bytes of the distinct arrays that `obj`'s attributes hold, through
    lists, dicts and dataclasses; a view counts as the array it views, and
    an array held twice counts once."""
    owners = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            while value.base is not None:
                value = value.base
            owners[id(value)] = value
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif dataclasses.is_dataclass(value):
            for field in dataclasses.fields(value):
                walk(getattr(value, field.name))

    walk(vars(obj))
    return sum(array.nbytes for array in owners.values())


class TestWorkspace:
    # three layers: both coupling parities, and a layer of each after the other
    @pytest.fixture(scope="class")
    def model(self):
        return make_perturbed_flow(6, 3, 10, seed=46, scale=0.3)

    @pytest.mark.parametrize(
        "n_normal, n_abnormal",
        [(1, 1), (1, None), (7, 0), (5, 17), (33, 9), (12, None)],
        ids=["one-row", "no-abnormal", "empty-abnormal", "abnormal-larger", "normal-larger",
             "full-shot"],
    )
    def test_fresh_workspace_matches_oracle(self, model, n_normal, n_abnormal):
        bn, ba = loss_batches(n_normal, n_normal, n_abnormal)
        assert_same_bits(nll_loss_and_grad(model, bn, ba), oracle_loss_and_grad(model, bn, ba))

    @pytest.mark.parametrize("n_normal, n_abnormal", [(1, 1), (3, None), (20, 40), (64, 5)])
    def test_larger_workspace_matches_oracle(self, model, n_normal, n_abnormal):
        bn, ba = loss_batches(n_normal + 100, n_normal, n_abnormal)
        workspace = _Workspace(model, 64)
        assert_same_bits(
            nll_loss_and_grad(model, bn, ba, workspace), oracle_loss_and_grad(model, bn, ba)
        )

    def test_reused_workspace_leaks_no_stale_rows(self, model):
        workspace = _Workspace(model, 50)
        for step, (n_normal, n_abnormal) in enumerate([(50, 31), (4, 2), (50, None), (1, 1)]):
            bn, ba = loss_batches(200 + step, n_normal, n_abnormal)
            assert_same_bits(
                nll_loss_and_grad(model, bn, ba, workspace), oracle_loss_and_grad(model, bn, ba)
            )

    def test_workspace_smaller_than_batch_is_contract_error(self, model):
        bn, ba = loss_batches(300, 8, 9)
        with pytest.raises(ContractError, match="workspace holds 8"):
            nll_loss_and_grad(model, bn, ba, _Workspace(model, 8))

    def test_grads_without_workspace_survive_later_calls(self, model):
        bn, ba = loss_batches(301, 9, 4)
        _, grads = nll_loss_and_grad(model, bn, ba)
        kept = {name: g.copy() for name, g in grads.items()}
        other_n, other_a = loss_batches(302, 9, 4)
        nll_loss_and_grad(model, other_n, other_a)
        nll_loss_and_grad(model, other_n, other_a, _Workspace(model, 9))
        for name, g in grads.items():
            np.testing.assert_array_equal(g.view(np.int64), kept[name].view(np.int64), name)

    def test_training_workspace_size(self):
        # the default geometry and batch: 4 layers of D = 64, W = 128, 1,024 rows
        workspace = _Workspace(init_flow(64, 4, 128, seed=0), 1024)
        assert held_bytes(workspace) <= 16.5 * 2**20

    @pytest.mark.parametrize("n_abnormal", [None, 7, 40], ids=["full-shot", "few", "many"])
    def test_train_flow_matches_oracle_train_loop(self, n_abnormal):
        # batch 16 does not divide the 45 normal rows: every epoch ends short
        data_n, data_a = loss_batches(303, 45, n_abnormal, dim=8)
        cfg = RunConfig(learning_rate=0.01, batch_size=16, epochs=4, seed=47)
        model, history = train_flow(init_flow(8, 3, 12, seed=48), data_n, data_a, cfg)
        ref, ref_history = oracle_train(init_flow(8, 3, 12, seed=48), data_n, data_a, cfg)
        assert history == ref_history
        for (name, p), (_, p_ref) in zip(model.parameters(), ref.parameters()):
            np.testing.assert_array_equal(p.view(np.int64), p_ref.view(np.int64), name)


def train_with(branch_threads, data_n, data_a, cfg, dim=16, layers=3, width=48):
    """train_flow, with the nets on two threads or, with its workspace's
    executor taken away, serially; also returns whether each of its
    `nll_loss_and_grad` calls had a branch executor."""
    threaded = []

    def recorded(model, batch_n, batch_a, workspace):
        if not branch_threads:
            workspace.executor = None
        threaded.append(workspace.executor is not None)
        return nll_loss_and_grad(model, batch_n, batch_a, workspace)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "nll_loss_and_grad", recorded)
        model, history = train_flow(init_flow(dim, layers, width, seed=50), data_n, data_a, cfg)
    return model, history, threaded


class TestBranchThreads:
    """The scale and shift nets on two threads give the serial pass's bits."""

    # wide enough that NumPy releases the GIL and the two nets overlap
    @pytest.fixture(scope="class")
    def model(self):
        return make_perturbed_flow(16, 3, 48, seed=49, scale=0.3)

    @pytest.fixture(scope="class")
    def executor(self):
        with ThreadPoolExecutor(1) as pool:
            yield pool

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_normal=st.integers(1, 130),
        n_abnormal=st.one_of(st.none(), st.integers(0, 130)),
        spare_rows=st.integers(0, 9),
    )
    def test_loss_and_grad_match_serial(self, model, executor, seed, n_normal, n_abnormal,
                                        spare_rows):
        bn, ba = loss_batches(seed, n_normal, n_abnormal, dim=16)
        rows = max(n_normal, n_abnormal or 0) + spare_rows
        threaded = _Workspace(model, rows, executor=executor)
        loss, grads = nll_loss_and_grad(model, bn, ba, threaded)
        assert_same_bits((loss, grads), nll_loss_and_grad(model, bn, ba))

    def test_bits_hold_when_threads_switch_often(self, model, executor):
        """A lost update or a read of a half-written buffer would change a bit."""
        bn, ba = loss_batches(53, 130, 70, dim=16)
        expected = nll_loss_and_grad(model, bn, ba)
        expected = expected[0], {name: g.copy() for name, g in expected[1].items()}
        threaded = _Workspace(model, 130, executor=executor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                assert_same_bits(nll_loss_and_grad(model, bn, ba, threaded), expected)
        finally:
            sys.setswitchinterval(interval)

    def test_inference_workspace_stays_serial(self, model, executor):
        assert _Workspace(model, 4, training=False, executor=executor).executor is None

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_normal=st.integers(1, 161),
        n_abnormal=st.one_of(st.none(), st.integers(0, 171)),
        batch_size=st.integers(1, 96),
        epochs=st.integers(1, 3),
    )
    @example(seed=0, n_normal=33, n_abnormal=0, batch_size=48, epochs=2)  # empty abnormal set
    @example(seed=1, n_normal=7, n_abnormal=45, batch_size=40, epochs=1)  # batch > normal rows
    def test_training_matches_serial(self, seed, n_normal, n_abnormal, batch_size, epochs):
        data_n, data_a = loss_batches(seed, n_normal, n_abnormal, dim=16)
        cfg = RunConfig(learning_rate=0.01, batch_size=batch_size, epochs=epochs, seed=seed)
        model, history, threaded = train_with(True, data_n, data_a, cfg)
        ref, ref_history, serial = train_with(False, data_n, data_a, cfg)
        assert threaded and all(threaded) and not any(serial)
        assert history == ref_history
        np.testing.assert_array_equal(model.flat.view(np.int64), ref.flat.view(np.int64))

    def test_no_thread_outlives_training(self):
        data_n, data_a = loss_batches(51, 20, 5, dim=16)
        before = threading.active_count()
        _, _, threaded = train_with(True, data_n, data_a, RunConfig(batch_size=8, epochs=2))
        assert all(threaded) and threading.active_count() == before

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_no_thread_outlives_divergence(self):
        data_n, data_a = loss_batches(52, 20, 5, dim=16)
        before = threading.active_count()
        with pytest.raises(TrainingDivergedError):
            train_with(
                True, data_n * 1e200, data_a * 1e200,
                RunConfig(learning_rate=10.0, batch_size=8, epochs=2),
            )
        assert threading.active_count() == before
