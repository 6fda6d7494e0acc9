"""Context pipeline: extraction, windowing, normalization (paper §2.3, §4.2)."""

from .extract import (
    EnvironmentContextExtractor,
    N_CELL_ATTRIBUTES,
    NetworkContextExtractor,
)
from .windows import ContextBuilder, ContextWindow, window_starts
from .normalize import (
    CellFeatureTransform,
    EnvFeatureNormalizer,
    N_CELL_FEATURES,
    TargetNormalizer,
)

__all__ = [
    "NetworkContextExtractor",
    "EnvironmentContextExtractor",
    "N_CELL_ATTRIBUTES",
    "N_CELL_FEATURES",
    "ContextBuilder",
    "ContextWindow",
    "window_starts",
    "CellFeatureTransform",
    "EnvFeatureNormalizer",
    "TargetNormalizer",
]
