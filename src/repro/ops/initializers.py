"""Deterministic parameter initialization helpers."""

from __future__ import annotations

import hashlib
from typing import Sequence, Tuple

import numpy as np

__all__ = ["rng_for", "seed_for", "xavier_uniform", "scaled_normal"]


def seed_for(*key_parts: object) -> int:
    """Stable 64-bit seed digest of a structural key.

    Uses BLAKE2b rather than Python's builtin ``hash``: the builtin is
    salted per process (``PYTHONHASHSEED``), which would materialize
    *different* weights in every interpreter. A content
    digest keeps the seed a pure function of the key text.
    """
    key = "\x1f".join(str(p) for p in key_parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def rng_for(*key_parts: object) -> np.random.Generator:
    """Deterministic generator derived from a structural key.

    Two operators built with the same key (e.g. ``("rm2", "table", 3)``)
    always receive identical parameters — across processes, threads, and
    materialization orders — without threading a generator through every
    constructor.
    """
    return np.random.default_rng(seed_for(*key_parts))


def xavier_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform init, the Caffe2 default for FC weights."""
    fan_in, fan_out = _fans(tuple(shape))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=tuple(shape)).astype(np.float32)


def scaled_normal(
    shape: Sequence[int], rng: np.random.Generator, scale: float = 0.01
) -> np.ndarray:
    """Small-variance normal init (used for embedding tables)."""
    return (rng.standard_normal(tuple(shape)) * scale).astype(np.float32)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out
