"""Seeding: one counter-based random stream per (seed, suite, instance)."""

from __future__ import annotations

import hashlib

import numpy as np


def rng_for(seed: int, suite: str, index: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, suite, instance).

    Every instance gets its own Philox stream derived from a SHA-256 digest,
    so results do not depend on execution order and are reproducible across
    runs and platforms.
    """
    digest = hashlib.sha256(f"{seed}:{suite}:{index}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64).copy()
    return np.random.Generator(np.random.Philox(key=key))
