"""Minimal float64 feed-forward engine with explicit backpropagation."""

from .layers import (
    AvgPoolToLength,
    BatchNorm,
    Conv1D,
    Flatten,
    FullyConnected,
    Layer,
    ReLU,
    SoftmaxHead,
    layer_from_spec,
)
from .model import (
    NetworkModel,
    build_model,
    cross_entropy_batch,
    encode_batch,
)
from .optim import Adam
from .serialize import NetModelError, load_model, save_model

__all__ = [
    "AvgPoolToLength", "BatchNorm", "Conv1D", "Flatten", "FullyConnected",
    "Layer", "ReLU", "SoftmaxHead", "layer_from_spec",
    "NetworkModel", "build_model", "cross_entropy_batch",
    "encode_batch",
    "Adam",
    "NetModelError", "load_model", "save_model",
]
