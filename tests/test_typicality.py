import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skel_sentinel.errors import LabelConflictError, MissingEmbeddingError, SchemaError
from skel_sentinel.featurize import FeatureStore, TextEmbedding
from skel_sentinel.typicality import (
    TypicalitySpec,
    load_typicality_spec,
    save_typicality_spec,
    select_typical,
    top_count,
)

SPEC_TEXT = """\
# produced offline, pasted verbatim
prompt = Which of these are normal and which are abnormal?
[normal]
reading book
walking the dog
[abnormal]
skydiving
rock climbing
"""


class TestSpecFile:
    def test_parse_example_lists(self, tmp_path):
        path = tmp_path / "t.spec"
        path.write_text(SPEC_TEXT)
        spec = load_typicality_spec(path)
        assert spec.normal_actions == ["reading book", "walking the dog"]
        assert spec.abnormal_actions == ["skydiving", "rock climbing"]
        assert spec.prompt_text.startswith("Which of these")

    def test_overlap_is_conflict(self, tmp_path):
        path = tmp_path / "t.spec"
        path.write_text("[normal]\nrunning\n[abnormal]\nrunning\n")
        with pytest.raises(LabelConflictError):
            load_typicality_spec(path)

    def test_empty_list_is_schema_error(self, tmp_path):
        path = tmp_path / "t.spec"
        path.write_text("[normal]\nwalking\n[abnormal]\n")
        with pytest.raises(SchemaError, match="t.spec: no abnormal label$"):
            load_typicality_spec(path)

    def test_round_trip_preserves_order(self, tmp_path):
        spec = TypicalitySpec(
            normal_actions=["c", "a", "b"],
            abnormal_actions=["z", "x"],
            prompt_text="pick, please",
        )
        path = tmp_path / "t.spec"
        save_typicality_spec(spec, path)
        back = load_typicality_spec(path)
        assert back == spec


def make_inputs(sims_by_class):
    """Build a store whose cosine against each class prototype is exactly sims.

    Uses 2-D features: prototype = e1; a feature at angle acos(s) has cosine s.
    Classes get orthogonal subspace pairs to stay independent.
    """
    refs, rows, labels = [], [], {}
    texts = {}
    dim = 2 * len(sims_by_class)
    for c, (label, sims) in enumerate(sorted(sims_by_class.items())):
        proto = np.zeros(dim)
        proto[2 * c] = 1.0
        texts[label] = TextEmbedding(label=label, values=proto)
        for i, s in enumerate(sims):
            ref = f"{label}:{i:03d}"
            vec = np.zeros(dim)
            vec[2 * c] = s
            vec[2 * c + 1] = math.sqrt(max(0.0, 1.0 - s * s))
            refs.append(ref)
            rows.append(vec)
            labels[ref] = label
    store = FeatureStore(refs, np.array(rows, dtype=np.float32))
    return store, texts, labels


class TestSelection:
    def test_beta_one_selects_everything(self):
        store, texts, labels = make_inputs({"walk": [0.9, 0.5, 0.1], "fight": [0.7, 0.2]})
        spec = TypicalitySpec(["walk"], ["fight"])
        result = select_typical(store, texts, labels, spec, 1.0, 1.0)
        assert len(result.normal_refs) == 3
        assert len(result.abnormal_refs) == 2

    def test_top_two_of_twenty(self):
        rng = np.random.default_rng(0)
        sims = rng.uniform(-0.9, 0.9, 20).tolist()
        store, texts, labels = make_inputs({"walk": [0.5], "fight": sims})
        spec = TypicalitySpec(["walk"], ["fight"])
        result = select_typical(store, texts, labels, spec, 1.0, 0.1)
        # sort oracle over the 20 scores
        ranked = sorted(range(20), key=lambda i: (-sims[i], f"fight:{i:03d}"))
        expected = [f"fight:{i:03d}" for i in ranked[:2]]
        assert result.abnormal_refs == expected

    def test_tie_break_by_ref(self):
        store, texts, labels = make_inputs({"walk": [0.4] * 10, "fight": [0.3]})
        spec = TypicalitySpec(["walk"], ["fight"])
        result = select_typical(store, texts, labels, spec, 0.5, 1.0)
        assert result.normal_refs == [f"walk:{i:03d}" for i in range(5)]

    def test_missing_text_embedding_names_label(self):
        store, texts, labels = make_inputs({"walk": [0.4], "fight": [0.3]})
        del texts["fight"]
        spec = TypicalitySpec(["walk"], ["fight"])
        with pytest.raises(MissingEmbeddingError, match="fight"):
            select_typical(store, texts, labels, spec, 1.0, 1.0)

    def test_pooled_across_classes_within_list(self):
        store, texts, labels = make_inputs({"walk": [0.9, 0.1], "stand": [0.5, 0.2], "fight": [0.3]})
        spec = TypicalitySpec(["walk", "stand"], ["fight"])
        result = select_typical(store, texts, labels, spec, 0.5, 1.0)
        # 4 normal candidates pooled -> top 2 by similarity across both classes
        assert result.normal_refs == ["walk:000", "stand:000"]

    def test_selected_similarities_dominate_rejected(self):
        rng = np.random.default_rng(1)
        sims = rng.uniform(-1.0, 1.0, 30).tolist()
        store, texts, labels = make_inputs({"walk": sims, "fight": [0.0]})
        spec = TypicalitySpec(["walk"], ["fight"])
        result = select_typical(store, texts, labels, spec, 0.4, 1.0)
        chosen = set(result.normal_refs)
        rest = [r for r in labels if labels[r] == "walk" and r not in chosen]
        worst_chosen = min(result.similarities[r] for r in result.normal_refs)
        best_rest = max(result.similarities[r] for r in rest)
        assert worst_chosen >= best_rest - 1e-12

    def test_invariant_under_feature_rescaling(self):
        rng = np.random.default_rng(2)
        sims = rng.uniform(-0.9, 0.9, 25).tolist()
        store, texts, labels = make_inputs({"walk": sims, "fight": [0.1, 0.7]})
        spec = TypicalitySpec(["walk"], ["fight"])
        base = select_typical(store, texts, labels, spec, 0.3, 0.5)
        scaled_store = FeatureStore(store.refs, store.matrix * 7.5)
        scaled = select_typical(scaled_store, texts, labels, spec, 0.3, 0.5)
        assert base.normal_refs == scaled.normal_refs
        assert base.abnormal_refs == scaled.abnormal_refs

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 60),
        beta_lo=st.floats(0.01, 1.0),
        beta_hi=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_monotone_in_beta(self, n, beta_lo, beta_hi, seed):
        if beta_lo > beta_hi:
            beta_lo, beta_hi = beta_hi, beta_lo
        rng = np.random.default_rng(seed)
        sims = rng.uniform(-0.99, 0.99, n).tolist()
        store, texts, labels = make_inputs({"walk": sims, "fight": [0.0]})
        spec = TypicalitySpec(["walk"], ["fight"])
        small = select_typical(store, texts, labels, spec, beta_lo, 1.0)
        large = select_typical(store, texts, labels, spec, beta_hi, 1.0)
        assert set(small.normal_refs) <= set(large.normal_refs)


class TestTopCount:
    def test_ceiling(self):
        assert top_count(0.1, 20) == 2
        assert top_count(0.1, 21) == 3
        assert top_count(1.0, 7) == 7

    def test_float_dust_does_not_overcount(self):
        # 0.07 * 100 is 7.000000000000001 in binary floating point
        assert top_count(0.07, 100) == 7

    def test_never_zero_for_nonempty(self):
        assert top_count(1e-9, 5) == 1
        assert top_count(0.0001, 1) == 1
