"""Deterministic random-stream fan-out.

A single master seed drives every randomized stage. Each stage (and each
per-class sub-stage) pulls its own named substream, so changing how many
draws one stage makes never perturbs another stage's output.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _token_entropy(token: object) -> int:
    digest = hashlib.sha256(repr(token).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(master_seed: int, *path: object) -> np.random.Generator:
    """Generator for the substream named by ``path`` under ``master_seed``.

    Path tokens are hashed with sha256, so the mapping is stable across
    runs and Python processes (unlike built-in ``hash``).
    """
    entropy = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(_token_entropy(token) for token in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(master_seed: int, *path: object) -> int:
    """Integer seed for a stage config, drawn from the substream at ``path``."""
    return int(substream(master_seed, *path).integers(2**63))


def as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    """Build a Generator from an integer seed; anything else passes through.

    Pass-through keeps generator-shaped test doubles usable wherever a
    Generator is accepted.
    """
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    return seed
