"""Online dual-level error-bound controller (Algorithm 1's ``OnlineDecay``).

Combines the two adaptive levels at runtime:

* **table-wise** — each table's base bound comes from the offline
  :class:`~repro.adaptive.offline.CompressionPlan`;
* **iteration-wise** — a :class:`~repro.adaptive.decay.DecaySchedule`
  multiplies the base bound, larger early in training and 1.0 after the
  initial phase.

The controller also answers which encoder (vector-LZ or Huffman) each
table uses, per the offline Algorithm-2 selection.
"""

from __future__ import annotations

from repro.adaptive.decay import ConstantSchedule, DecaySchedule
from repro.adaptive.offline import CompressionPlan

__all__ = ["AdaptiveController"]


class AdaptiveController:
    """Runtime view of the dual-level adaptive strategy."""

    def __init__(self, plan: CompressionPlan, schedule: DecaySchedule | None = None):
        self.plan = plan
        self.schedule = schedule if schedule is not None else ConstantSchedule()

    def error_bound(self, table_id: int, iteration: int) -> float:
        """Effective bound = table base bound x decay multiplier."""
        return self.plan.error_bound_for(table_id) * self.schedule(iteration)

    def compressor_name(self, table_id: int) -> str:
        """The encoder the offline analysis selected for this table."""
        return self.plan.compressor_for(table_id)

    def table_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.plan.tables))
