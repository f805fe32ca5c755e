"""Embedding-table sharding across ranks (model parallelism)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ShardingPlan"]


@dataclass(frozen=True)
class ShardingPlan:
    """Assignment of each embedding table to its owning rank."""

    owners: tuple[int, ...]
    n_ranks: int

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        by_rank: list[list[int]] = [[] for _ in range(self.n_ranks)]
        slots = []  # each table's position within its owner's tuple
        for table_id, owner in enumerate(self.owners):
            if not 0 <= owner < self.n_ranks:
                raise ValueError(
                    f"table {table_id} assigned to rank {owner}, "
                    f"out of range [0, {self.n_ranks})"
                )
            slots.append(len(by_rank[owner]))
            by_rank[owner].append(table_id)
        # Frozen dataclass: derived lookups go in through object.__setattr__.
        object.__setattr__(self, "_tables_by_rank", tuple(map(tuple, by_rank)))
        object.__setattr__(self, "_slots", tuple(slots))

    @property
    def n_tables(self) -> int:
        return len(self.owners)

    def owner_of(self, table_id: int) -> int:
        return self.owners[table_id]

    def tables_of(self, rank: int) -> tuple[int, ...]:
        return self._tables_by_rank[rank] if 0 <= rank < self.n_ranks else ()

    def slot_of(self, table_id: int) -> int:
        """Position of ``table_id`` within ``tables_of(owner_of(table_id))``."""
        return self._slots[table_id]

    @classmethod
    def round_robin(cls, n_tables: int, n_ranks: int) -> "ShardingPlan":
        """Table ``t`` goes to rank ``t % n_ranks``."""
        if n_tables < 1:
            raise ValueError(f"n_tables must be >= 1, got {n_tables}")
        return cls(owners=tuple(t % n_ranks for t in range(n_tables)), n_ranks=n_ranks)

    @classmethod
    def size_balanced(cls, cardinalities: list[int] | np.ndarray, n_ranks: int) -> "ShardingPlan":
        """Greedy largest-first bin packing on table cardinalities.

        Balances per-rank embedding memory, the production placement
        objective for terabyte-scale tables.
        """
        cardinalities = np.asarray(cardinalities, dtype=np.int64)
        if cardinalities.size < 1:
            raise ValueError("need at least one table")
        if (cardinalities < 1).any():
            raise ValueError("cardinalities must be >= 1")
        owners = np.zeros(cardinalities.size, dtype=np.int64)
        loads = np.zeros(n_ranks, dtype=np.int64)
        for table_id in np.argsort(-cardinalities, kind="stable"):
            rank = int(np.argmin(loads))
            owners[table_id] = rank
            loads[rank] += cardinalities[table_id]
        return cls(owners=tuple(int(o) for o in owners), n_ranks=n_ranks)
