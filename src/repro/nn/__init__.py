"""Minimal NumPy neural-network substrate with manual backward passes."""

from repro.nn.embedding import EmbeddingTable
from repro.nn.init import uniform_embedding, xavier_uniform
from repro.nn.interaction import DotInteraction
from repro.nn.linear import Linear, ReLU
from repro.nn.loss import bce_grad, bce_with_logits, sigmoid
from repro.nn.mlp import MLP
from repro.nn.optim import SGD
from repro.nn.param import Parameter

__all__ = [
    "Parameter",
    "Linear",
    "ReLU",
    "MLP",
    "EmbeddingTable",
    "DotInteraction",
    "bce_with_logits",
    "bce_grad",
    "sigmoid",
    "SGD",
    "xavier_uniform",
    "uniform_embedding",
]
