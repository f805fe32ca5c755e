"""Hot-loop caches for the compression pipeline.

DLRM training calls the compressors once per (table, destination) slice on
every iteration, and consecutive batches from the same table have nearly
identical value distributions.  Two caches exploit that:

* :class:`LruCache` — a small bounded mapping used for decode-side peek
  tables (rebuilding a ``2**max_length`` flat table per payload is pure
  waste when the codebook repeats across chunks and iterations).
* :class:`EncoderPinCache` — the hybrid compressor tries
  both lossless legs and keeps the smaller payload.  Per-table winners are
  extremely stable (Table V), so the pin cache records the winner and
  replays it for ``refresh_every`` batches before paying the try-both cost
  again.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = [
    "LruCache",
    "EncoderPin",
    "EncoderPinCache",
]


class LruCache:
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

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

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class EncoderPin:
    """The winning lossless leg for one table, plus its replay age."""

    winner: str
    age: int = field(init=False, default=0)


@dataclass
class EncoderPinCache:
    """Per-table pinned-encoder decisions with a refresh window."""

    refresh_every: int = 16
    pins: dict[Hashable, EncoderPin] = field(init=False, default_factory=dict)
    pinned_hits: int = field(init=False, default=0)
    trials: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {self.refresh_every}")

    def pinned(self, key: Hashable) -> str | None:
        """The pinned encoder name, or ``None`` when a trial is due."""
        pin = self.pins.get(key)
        if pin is None or pin.age >= self.refresh_every:
            return None
        pin.age += 1
        self.pinned_hits += 1
        return pin.winner

    def record_winner(self, key: Hashable, winner: str) -> None:
        self.trials += 1
        self.pins[key] = EncoderPin(winner=winner)

    def clear(self) -> None:
        self.pins.clear()
