import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import skel_sentinel
from skel_sentinel.config import BLOCK_ROWS
from skel_sentinel.errors import (
    DegenerateVectorError,
    DimensionError,
    DuplicateRecordError,
    FileFormatError,
    MissingEmbeddingError,
    NonFiniteError,
    SchemaError,
    SentinelError,
)
from skel_sentinel.featurize import (
    FeatureStore,
    class_prototypes,
    cosine_similarity,
    descriptors,
    kinematic_matrix,
    load_embeddings,
    load_text_embeddings,
    write_embeddings,
)
from skel_sentinel.pipeline import extract_snippets
from skel_sentinel.pose_io import PoseFrame, Track

J = 5


def make_table(frames=16, rng=None, constant=False):
    """A one-row SnippetTable of one track's only window."""
    rng = rng or np.random.default_rng(0)
    base = rng.random((J, 2)) * 40.0
    out = []
    for i in range(frames):
        xy = base if constant else base + rng.random((J, 2))
        out.append(PoseFrame(i, 0, xy.copy(), np.ones(J)))
    return extract_snippets({"v0": [Track("v0", 0, out)]}, frames, 1)


class RowBlocks:
    """Row blocks that arrive one at a time, sized by their rows, as
    `pipeline.SnippetStream` passes them to kinematic_matrix."""

    def __init__(self, blocks):
        self.blocks = blocks

    def __len__(self):
        return sum(map(len, self.blocks))

    def __iter__(self):
        return iter(self.blocks)


class TestKinematicFeatures:
    def test_output_length(self):
        for dim in (4, 16, 64):
            matrix = kinematic_matrix(make_table().joints, dim, seed=0)
            assert matrix.shape == (1, dim)

    def test_constant_pose_has_zero_velocities(self):
        table = make_table(constant=True)
        raw = descriptors(table.joints[0:1])[0]
        coords = 2 * J * 16
        velocities = raw[coords : coords + 2 * J * 15]
        np.testing.assert_array_equal(velocities, 0.0)

    def test_deterministic_given_seed(self):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        a = kinematic_matrix(make_table(rng=rng1).joints, 16, seed=9)
        b = kinematic_matrix(make_table(rng=rng2).joints, 16, seed=9)
        assert (a == b).all()

    def test_normalized_copies_have_identical_features(self):
        rng = np.random.default_rng(4)
        base = rng.random((J, 2)) * 40.0
        deltas = [rng.random((J, 2)) for _ in range(16)]
        frames_a = [PoseFrame(i, 0, base + deltas[i], np.ones(J)) for i in range(16)]
        frames_b = [
            PoseFrame(i, 0, (base + deltas[i]) * 3.0 + np.array([55.0, -20.0]), np.ones(J))
            for i in range(16)
        ]
        table_a = extract_snippets({"v0": [Track("v0", 0, frames_a)]}, 16, 1)
        table_b = extract_snippets({"v0": [Track("v0", 0, frames_b)]}, 16, 1)
        fa = kinematic_matrix(table_a.joints, 32, seed=1)
        fb = kinematic_matrix(table_b.joints, 32, seed=1)
        np.testing.assert_allclose(fa, fb, atol=1e-9)

    def test_projection_is_orthonormal(self):
        from skel_sentinel.featurize import _projection

        q = _projection(200, 16, seed=5)
        np.testing.assert_allclose(q.T @ q, np.eye(16), atol=1e-10)

    def test_small_dim_rejected(self):
        with pytest.raises(DimensionError):
            kinematic_matrix(make_table().joints, 3, seed=0)

    @pytest.mark.parametrize("rows", [4096, 0])
    def test_dim_beyond_descriptor_rejected_before_allocating(self, rows):
        # the (4096, 10**9) output would need 32 TB; with no rows, the
        # .skem file would claim 10**9 columns
        joints = np.zeros((rows, 2, J, 16))
        with pytest.raises(DimensionError, match="cannot project 470 dims up to 1000000000"):
            kinematic_matrix(joints, 10**9, seed=0)

    # N = 1 (mod BLOCK_ROWS); 257 = 1 (mod 256) too, the old block size
    @pytest.mark.parametrize("n", [65, 129, 257])
    def test_no_row_is_projected_alone(self, n):
        # With N = q BLOCK_ROWS + 1 rows the last go in blocks of BLOCK_ROWS - 1
        # and 2, not BLOCK_ROWS and 1: a one-row GEMM goes through gemv. Each
        # block projected on its own is the same computation, so the same
        # bits on any BLAS, however the rows arrive.
        joints = np.random.default_rng(n).standard_normal((n, 2, J, 16))
        sizes = [BLOCK_ROWS] * (n // BLOCK_ROWS - 1) + [BLOCK_ROWS - 1, 2]
        bounds = np.cumsum([0, *sizes]).tolist()
        want = np.concatenate(
            [kinematic_matrix(joints[a:b], 16, seed=2) for a, b in zip(bounds, bounds[1:])]
        )
        cuts = np.sort(np.random.default_rng(n + 1).choice(np.arange(1, n), n // 3, replace=False))
        for arrival in (joints, RowBlocks(np.split(joints, cuts)), RowBlocks(np.split(joints, n))):
            got = kinematic_matrix(arrival, 16, seed=2)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_same_bytes_at_any_blas_thread_count(self):
        # A single (256, K) @ (K, dim) GEMM changes its last bits between one
        # and two OpenBLAS threads; the K-chunked projection must not.
        script = (
            "import sys; import numpy as np\n"
            "from skel_sentinel.featurize import kinematic_matrix\n"
            "joints = np.random.default_rng(0).standard_normal((520, 2, 17, 16))\n"
            "sys.stdout.buffer.write(kinematic_matrix(joints, 64, seed=0).tobytes())\n"
        )
        src = str(Path(skel_sentinel.__file__).resolve().parents[1])
        features = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, check=True
            )
            features.append(run.stdout)
        assert len(features[0]) == 520 * 64 * 8
        assert features[0] == features[1]


class TestCosine:
    def test_identity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_antipodal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == -1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine_similarity(np.zeros(3), np.ones(3))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        scale_a=st.floats(1e-3, 1e3),
        scale_b=st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, seed, scale_a, scale_b):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        base = cosine_similarity(a, b)
        assert cosine_similarity(a * scale_a, b * scale_b) == pytest.approx(base, abs=1e-9)


class TestEmbeddingFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        refs = [f"v:{i}:0" for i in range(7)]
        matrix = rng.standard_normal((7, 12)).astype(np.float32)
        path = tmp_path / "f.skem"
        write_embeddings(refs, matrix, path)
        store = load_embeddings(path)
        assert store.refs == refs
        assert store.matrix.tobytes() == matrix.tobytes()

    def test_header_counts(self, tmp_path):
        path = tmp_path / "f.skem"
        write_embeddings(["a", "b", "c"], np.zeros((3, 8), dtype=np.float32), path)
        blob = path.read_bytes()
        assert blob[:4] == b"SKEM"
        assert len(blob) == 14 + 3 * 8 * 4
        assert len(load_embeddings(path)) == 3

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.skem"
        write_embeddings(["a", "b", "c"], np.zeros((3, 8), dtype=np.float32), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FileFormatError, match="payload"):
            load_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.skem"
        write_embeddings(["a"], np.zeros((1, 4), dtype=np.float32), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="magic"):
            load_embeddings(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "f.skem"
        matrix = np.zeros((2, 4), dtype=np.float32)
        matrix[1, 2] = np.inf
        with pytest.raises(NonFiniteError):
            write_embeddings(["a", "b"], matrix, path)
        # bypass the writer check to exercise the loader
        ok = np.zeros((2, 4), dtype=np.float32)
        write_embeddings(["a", "b"], ok, path)
        blob = bytearray(path.read_bytes())
        blob[14:18] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteError):
            load_embeddings(path)

    def test_sidecar_mismatch(self, tmp_path):
        path = tmp_path / "f.skem"
        write_embeddings(["a", "b"], np.zeros((2, 4), dtype=np.float32), path)
        (tmp_path / "f.skem.idx").write_text("a\n")
        with pytest.raises(FileFormatError, match="refs"):
            load_embeddings(path)

    @settings(max_examples=400, deadline=None)
    @given(
        target=st.sampled_from(["f.skem", "f.skem.idx"]),
        truncate=st.booleans(),
        position=st.integers(0, 10**6),
        bit=st.integers(0, 7),
    )
    def test_damaged_file_is_typed_error_or_sound_store(self, target, truncate, position, bit):
        # "v:0:1" is a prefix of "v:0:16", so a sidecar truncated inside the
        # last ref can repeat the first.
        refs = ["v:0:1", "v:0:2", "v:0:16"]
        matrix = np.random.default_rng(8).standard_normal((3, 4)).astype(np.float32)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "f.skem"
            write_embeddings(refs, matrix, path)
            damaged = Path(folder) / target
            data = bytearray(damaged.read_bytes())
            if truncate:
                del data[position % (len(data) + 1) :]
            else:
                data[position % len(data)] ^= 1 << bit
            damaged.write_bytes(bytes(data))
            try:
                store = load_embeddings(path)
            except (FileFormatError, NonFiniteError, SchemaError, DuplicateRecordError) as exc:
                assert str(path) in str(exc)
                return
            _, _, count, dim = struct.unpack_from("<4sHII", path.read_bytes())
            assert store.matrix.shape == (count, dim) == (3, 4)
            assert np.isfinite(store.matrix).all()
            assert len(store.refs) == len(set(store.refs)) == count


    def test_repeated_ref_refused_and_nothing_written(self, tmp_path):
        with pytest.raises(DuplicateRecordError, match="repeated ref 'a'"):
            write_embeddings(["a", "a"], np.zeros((2, 4)), tmp_path / "f.skem")
        assert not any(tmp_path.iterdir())

    @settings(max_examples=300, deadline=None)
    @given(
        refs=st.lists(
            st.text(alphabet="ab\r\n\u2028\x00é😀", max_size=3) | st.text(max_size=3),
            max_size=5,
        ),
        extra_rows=st.sampled_from([0, 0, 0, -1, 1]),
        dim=st.integers(0, 3),
        data=st.data(),
    )
    def test_write_is_refused_or_round_trips(self, refs, extra_rows, dim, data):
        rows = max(0, len(refs) + extra_rows)
        matrix = data.draw(hnp.arrays(np.float32, (rows, dim), elements=st.floats(width=32)))
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "f.skem"
            try:
                write_embeddings(refs, matrix, path)
            except SentinelError:
                assert not any(Path(folder).iterdir())
                return
            store = load_embeddings(path)
        assert store.refs == refs
        assert store.matrix.tobytes() == matrix.astype("<f4").tobytes()


class TestFeatureStore:
    def test_lookup_bit_equality(self):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((5, 6)).astype(np.float32)
        store = FeatureStore([f"r{i}" for i in range(5)], matrix)
        assert store.lookup("r3").tobytes() == matrix[3].tobytes()

    def test_missing_ref(self):
        store = FeatureStore(["a"], np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(MissingEmbeddingError):
            store.rows(["b"])

    def test_rows_are_float64_copies_in_ref_order(self):
        matrix = np.random.default_rng(3).standard_normal((4, 3)).astype(np.float32)
        store = FeatureStore(["a", "b", "c", "d"], matrix)
        rows = store.rows(["c", "a", "c"])
        assert rows.dtype == np.float64
        assert rows.tobytes() == matrix[[2, 0, 2]].astype(np.float64).tobytes()
        rows[:] = 0.0
        assert store.matrix.tobytes() == matrix.tobytes()
        assert store.rows([]).shape == (0, 3)

    def test_rows_missing_ref_is_named(self):
        store = FeatureStore(["a", "b"], np.zeros((2, 4)))
        with pytest.raises(MissingEmbeddingError, match="no feature stored for 'x'"):
            store.rows(["a", "x", "b"])

    def test_repeated_ref_refused(self):
        with pytest.raises(DuplicateRecordError, match="repeated ref 'b'"):
            FeatureStore(["a", "b", "c", "b"], np.zeros((4, 2)))

    def test_prototypes_are_running_sum_bits(self):
        rng = np.random.default_rng(11)
        refs = [f"r{i}" for i in range(40)]
        matrix = (rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-6, 6, (40, 1)))
        matrix[:, 0] = -0.0  # a column of negative zeros sums to -0.0, not +0.0
        store = FeatureStore(refs, matrix)
        labels = {ref: ["walk", "run", "jump"][int(rng.integers(3))] for ref in refs[::-1]}
        protos = class_prototypes(store, labels)
        for label in ("jump", "run", "walk"):
            members = [ref for ref, name in labels.items() if name == label]
            rows = store.rows(members)
            total = rows[0]
            for row in rows[1:]:
                total = total + row
            mean = total / len(members)
            expected = mean / float(np.linalg.norm(mean))
            assert protos[label].values.tobytes() == expected.tobytes()
        assert list(protos) == ["jump", "run", "walk"]

    def test_prototypes_labelled_ref_missing_from_store(self):
        store = FeatureStore(["a"], np.ones((1, 4)))
        with pytest.raises(MissingEmbeddingError, match="'b'"):
            class_prototypes(store, {"a": "walk", "b": "walk"})

    def test_prototypes_unit_norm_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        refs = [f"r{i}" for i in range(10)]
        store = FeatureStore(refs, rng.standard_normal((10, 8)).astype(np.float32))
        labels = {ref: ("walk" if i % 2 else "run") for i, ref in enumerate(refs)}
        protos = class_prototypes(store, labels)
        assert sorted(protos) == ["run", "walk"]
        for emb in protos.values():
            assert np.linalg.norm(emb.values) == pytest.approx(1.0, abs=1e-9)
        path = tmp_path / "texts.skem"
        names = sorted(protos)
        write_embeddings(names, np.vstack([protos[n].values for n in names]), path)
        loaded = load_text_embeddings(path)
        assert sorted(loaded) == names
        for name in names:
            np.testing.assert_allclose(loaded[name].values, protos[name].values, atol=1e-6)
