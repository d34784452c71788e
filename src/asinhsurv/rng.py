"""Seeded, splittable random streams.

Seeds are 64-bit unsigned integers.  ``make_stream(seed)`` gives the root
stream; ``make_stream(seed, *key)`` derives an independent substream for a
spawn key such as ``(cell_index, replication)``.  Substreams depend only on
(seed, key), never on the order streams are created in, so serial and
parallel executions of the same plan draw identical numbers.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["make_stream"]

_SEED_MAX = 2**64 - 1


def make_stream(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator derived deterministically from ``seed`` and ``key``."""
    if not all(isinstance(value, (int, np.integer)) for value in (seed, *key)):
        raise DomainError("the seed and spawn key entries must be integers")
    if not 0 <= int(seed) <= _SEED_MAX or any(k < 0 for k in key):
        raise DomainError("the seed must fit in an unsigned 64-bit integer, key entries >= 0")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))
