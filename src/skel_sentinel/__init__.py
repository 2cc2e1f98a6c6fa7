"""Zero-shot skeleton-based video anomaly scoring.

Typicality is modeled by a dual-center normalizing flow trained on
similarity-selected snippets; uniqueness comes from exact nearest-neighbor
context graphs inside each test video; both fuse into per-frame anomaly
scores evaluated with micro-average AUC.
"""

__version__ = "0.1.0"

from .config import RunConfig
from .context import SceneIndex
from .evaluation import LabeledVideo, micro_auc, run_benchmark
from .featurize import FeatureStore, load_embeddings, write_embeddings
from .flow import (
    FlowModel,
    TrainConfig,
    init_flow,
    load_flow,
    save_flow,
    train_flow,
    typicality_score,
)
from .pose_io import Track, load_tracks, write_tracks
from .synth import make_benchmark
from .typicality import SelectionResult, TypicalitySpec, load_typicality_spec, select_typical

__all__ = [
    "RunConfig",
    "SceneIndex",
    "LabeledVideo",
    "micro_auc",
    "run_benchmark",
    "FeatureStore",
    "load_embeddings",
    "write_embeddings",
    "FlowModel",
    "TrainConfig",
    "init_flow",
    "load_flow",
    "save_flow",
    "train_flow",
    "typicality_score",
    "Track",
    "load_tracks",
    "write_tracks",
    "make_benchmark",
    "SelectionResult",
    "TypicalitySpec",
    "load_typicality_spec",
    "select_typical",
]
