"""Deterministic random number generation with splittable substreams.

The generator is numpy's PCG64, keyed through ``numpy.random.SeedSequence``.
The substream for index path ``(i, j, ...)`` under root seed ``s`` is the
generator seeded by ``SeedSequence(s, spawn_key=(i, j, ...))``, so draws are a
pure function of ``(seed, path)`` and replicates can be computed in any order.

Standard normal variates are produced by inversion: the uniforms
(k + 0.5) / 2**53, for the 53-bit integer k of each draw, lie strictly inside
(0, 1) and are mapped through the standard normal quantile function
``scipy.special.ndtri``. They are computed as ``Generator.random() + 2**-54``:
``random`` returns k * 2**-53 for the same k as ``Generator.integers(0, 2**53)``,
and scaling by a power of two is exact.
"""
from __future__ import annotations

import numpy as np


def _integer(name: str, v) -> int:
    """``v`` as an int: an integer or an integral float. Anything else, a bool
    included, raises ValueError naming the argument."""
    integral = isinstance(v, (float, np.floating)) and float(v).is_integer()
    if isinstance(v, bool) or not (isinstance(v, (int, np.integer)) or integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _real(name: str, v) -> float:
    """``v`` as a float: an integer or a real number. Anything else, a bool or a
    string included, raises ValueError naming the argument."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be real, got {v!r}")
    return float(v)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the substream identified by ``path``.

    Parameters
    ----------
    seed : int
        Nonnegative root seed.
    *path : int
        Substream indices, e.g. ``substream(seed, replicate)`` or
        ``substream(seed, size_index, replicate)``.
    """
    seed = _integer("seed", seed)
    path = tuple(_integer("path", k) for k in path)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if any(k < 0 for k in path):
        raise ValueError("substream indices must be nonnegative")
    key = np.random.SeedSequence(seed, spawn_key=path)
    return np.random.Generator(np.random.PCG64(key))


def standard_normals(gen: np.random.Generator, size: int) -> np.ndarray:
    """Draw i.i.d. N(0, 1) variates by inversion from 53-bit uniforms."""
    # Lazy: `import armle` loads no scipy (guard: test_cli::test_lazy_scipy_imports).
    from scipy.special import ndtri

    u = gen.random(size)
    u += 2.0**-54
    return ndtri(u, out=u)
