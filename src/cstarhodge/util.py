"""Small shared helpers: seeding and report formatting."""

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


def round17(x: float) -> float:
    """Clamp a float to 17 significant digits (round-trip exact)."""
    return float(format(float(x), ".17g"))


def format_floats(obj):
    """Recursively normalize floats in a report structure for serialization."""
    if isinstance(obj, float):
        return round17(obj)
    if isinstance(obj, dict):
        return {k: format_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [format_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return round17(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
