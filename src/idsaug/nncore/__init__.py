"""Minimal dense-network engine: layers, losses, backprop, Adam, checkpoints."""

from .adam import Adam
from .checkpoint import load_network, read_network, save_network, write_network
from .layers import BatchNorm, Dense, LayerNorm, LeakyReLU, ReLU, Sigmoid
from .losses import (
    adversarial_losses,
    contrastive_loss,
    cross_entropy_loss,
    discriminator_score_grads,
    generator_score_grad,
    reconstruction_loss,
    softmax,
)
from .network import Network

__all__ = [
    "Adam",
    "BatchNorm",
    "Dense",
    "LayerNorm",
    "LeakyReLU",
    "Network",
    "ReLU",
    "Sigmoid",
    "adversarial_losses",
    "contrastive_loss",
    "cross_entropy_loss",
    "discriminator_score_grads",
    "generator_score_grad",
    "load_network",
    "read_network",
    "reconstruction_loss",
    "save_network",
    "softmax",
    "write_network",
]
