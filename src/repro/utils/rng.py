"""Deterministic random-number management.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` handed to it explicitly; nothing touches
global NumPy state.  ``RngPool`` provides named, independent streams derived
from a single seed so that e.g. the data generator and the model initializer
can be reseeded independently without correlated draws.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_rng", "RngPool"]


def spawn_rng(seed: int | np.random.Generator | None, *key: int | str) -> np.random.Generator:
    """Return an independent generator derived from ``seed`` and a key path.

    ``seed`` may be an integer, ``None`` (non-deterministic), or an existing
    ``Generator`` (returned unchanged, ignoring ``key``).  String keys are
    hashed stably (FNV-1a) so call sites can use readable names.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    material: list[int] = [] if seed is None else [int(seed)]
    for part in key:
        if isinstance(part, str):
            material.append(_fnv1a(part))
        else:
            material.append(int(part))
    if seed is None and not material:
        return np.random.default_rng()
    return np.random.default_rng(np.random.SeedSequence(material))


def _fnv1a(text: str) -> int:
    """Stable 64-bit FNV-1a hash of ``text`` (Python's ``hash`` is salted)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


class RngPool:
    """A pool of named, mutually independent random generators.

    >>> pool = RngPool(1234)
    >>> a = pool.get("data")
    >>> b = pool.get("model")
    >>> a is pool.get("data")   # streams are cached by name
    True
    """

    def __init__(self, seed: int | None):
        self._seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for stream ``name``."""
        if name not in self._streams:
            self._streams[name] = spawn_rng(self._seed, name)
        return self._streams[name]

    def fork(self, name: str, index: int) -> np.random.Generator:
        """Return a fresh generator for ``(name, index)``; not cached.

        Useful for per-iteration or per-rank streams where caching by name
        alone would alias distinct consumers.
        """
        return spawn_rng(self._seed, name, index)
