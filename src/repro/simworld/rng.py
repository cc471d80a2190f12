"""Deterministic, independently-seeded random streams.

Every generator subsystem draws from its own named stream so that (a) the
whole world is reproducible from a single integer seed and (b) changing how
many variates one subsystem consumes does not perturb any other subsystem.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, label: str) -> np.random.Generator:
    """Return a generator for the (seed, label) stream.

    The label is folded into the seed material via CRC-32, which keeps the
    mapping stable across interpreter runs (unlike ``hash``).
    """
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence((seed, key)))

