"""Hot-loop cache for the compression decoders.

:class:`LruCache` is a small bounded mapping used for decode-side peek
tables: rebuilding a ``2**max_length`` flat table per payload is pure waste
when the codebook repeats across chunks and iterations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["LruCache"]


class LruCache:
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
