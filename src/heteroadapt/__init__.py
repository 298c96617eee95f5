"""Multisource heterogeneous domain adaptation with conditionally weighted
adversarial alignment."""

from .data import DomainData, MultiSourceTask, SynthSpec
from .errors import ConfigError, NonFiniteError, ParseError, ShapeError
from .model import ModelParams
from .numerics import Adam, Tape, Tensor
from .training import IterationRecord, TrainConfig, TrainTrace, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ConfigError",
    "DomainData",
    "IterationRecord",
    "ModelParams",
    "MultiSourceTask",
    "NonFiniteError",
    "ParseError",
    "ShapeError",
    "SynthSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainTrace",
    "train",
]
