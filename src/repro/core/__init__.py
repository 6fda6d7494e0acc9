"""GenDT core: the paper's conditional deep generative model."""

from .config import GenDTConfig, small_config
from .networks import AggregationNetwork, Discriminator, GnnNodeNetwork, ResGen
from .features import ModelBatch, WindowAssembler, recent_values_matrix
from .generator import GenDTGenerator
from .training import GenDTTrainer, TrainingHistory, make_minibatches
from .model import GenDT
from .uncertainty import UncertaintyEstimate, mc_dropout_uncertainty, subset_uncertainties
from .active import ActiveLearningResult, ActiveLearningStep, run_active_learning

__all__ = [
    "GenDTConfig",
    "small_config",
    "GnnNodeNetwork",
    "AggregationNetwork",
    "ResGen",
    "Discriminator",
    "ModelBatch",
    "WindowAssembler",
    "recent_values_matrix",
    "GenDTGenerator",
    "GenDTTrainer",
    "TrainingHistory",
    "make_minibatches",
    "GenDT",
    "UncertaintyEstimate",
    "mc_dropout_uncertainty",
    "subset_uncertainties",
    "ActiveLearningResult",
    "ActiveLearningStep",
    "run_active_learning",
]
