"""NumPy's own generators and index draws: the oracle that ``ectuner._rng``
reproduces without importing ``numpy.random``.

``spawn_rng(seed, index)`` is the stream that ``Pcg64(seed, index)`` and row
``index`` of ``StreamBlock(seed, ...)`` draw from.  The index draws make one
scalar ``Generator.integers`` call per swap.
"""

from __future__ import annotations

import numpy as np


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """``Generator(PCG64(SeedSequence((seed, index))))``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def sample_indices(rng: np.random.Generator, population: int, k: int) -> list[int]:
    idx = list(range(population))
    for i in range(k):
        j = int(rng.integers(i, population))
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def shuffled(rng: np.random.Generator, n: int) -> list[int]:
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx
