"""Seeded random number generation helpers.

All randomness in this package flows through NumPy's PCG64 bit generator so
that every draw is reproducible from an integer seed, independent of
platform.  Only ``Generator.integers`` is used for discrete draws;
sampling and shuffling are built on top of it explicitly so the draw sequence
is pinned by this module rather than by NumPy convenience-method internals.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Return a PCG64 generator seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """Return an independent per-item stream derived from (seed, index).

    Streams for distinct indices never overlap, so an item's draws depend
    only on (seed, index), never on which items came before it.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def sample_indices(rng: np.random.Generator, population: int, k: int) -> list[int]:
    """Draw ``k`` distinct indices from ``range(population)``, sorted ascending.

    Partial Fisher-Yates over an index array; consumes exactly ``k`` integer
    draws from ``rng``.
    """
    if k > population:
        raise ValueError(f"cannot sample {k} items from population of {population}")
    idx = list(range(population))
    for i in range(k):
        j = int(rng.integers(i, population))
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def shuffled(rng: np.random.Generator, n: int) -> list[int]:
    """Return a Fisher-Yates permutation of ``range(n)``."""
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx
