"""Zero-shot skeleton-based video anomaly scoring.

Typicality is modeled by a dual-center normalizing flow trained on
similarity-selected snippets; uniqueness comes from exact nearest-neighbor
context graphs inside each test video; both fuse into per-frame anomaly
scores evaluated with micro-average AUC.
"""

__version__ = "0.1.0"
