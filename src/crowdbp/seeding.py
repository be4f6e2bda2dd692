"""Deterministic seed derivation.

A single master seed drives an experiment; every (sweep point, trial,
stage) combination derives an independent child seed through
``numpy.random.SeedSequence`` spawn keys, so results do not depend on
execution order or thread count.
"""
from __future__ import annotations

import zlib

import numpy as np

from .errors import check_count


def child_seed(master: int, *parts: int | str) -> int:
    """Derive a 64-bit child seed from a master seed and a key path of counts and text."""
    key = tuple(zlib.crc32(part.encode("utf-8")) if isinstance(part, str)
                else check_count(part, "seed key part") for part in parts)
    seq = np.random.SeedSequence(check_count(master, "seed"), spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(check_count(seed, "seed"))
