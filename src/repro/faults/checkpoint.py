"""Trainer checkpoint/restore with bit-identical resume.

:class:`TrainerCheckpoint` snapshots everything that feeds the numerics of
a :class:`~repro.train.hybrid.HybridParallelTrainer` step:

* every model parameter array (dense MLPs and embedding tables) and its
  pending gradient accumulation;
* the **compression pipeline**, deep-copied — its codecs keep no state
  between calls, so payload bytes depend only on the step's inputs, but
  its transfer stats and per-table codec record resume where they were.

Resuming after an injected rank failure therefore replays the remaining
iterations to byte-for-byte the same parameters as the uninterrupted run
(`np.ndarray.tobytes()` equality — the chaos scenario's invariant).

Wire-byte counters (``forward_wire_bytes``/``forward_raw_bytes``) are
deliberately **not** restored: they meter real traffic, and the traffic of
the lost iterations genuinely happened before the failure.

Snapshot and reload both charge real time: a CHECKPOINT (or RESTORE)
memcpy of the state bytes on every rank's compute stream, priced by the
GPU model, so checkpoint cadence shows up in the makespan like it would
in production.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.dist.timeline import EventCategory
from repro.obs.runtime import OBS

__all__ = ["TrainerCheckpoint"]


@dataclass(frozen=True)
class TrainerCheckpoint:
    """Immutable snapshot of a trainer's numeric state at one iteration.

    Build with :meth:`capture`; apply with :meth:`restore`.  One snapshot
    can be restored any number of times — restores hand out fresh copies,
    never aliases into the snapshot.
    """

    iteration: int  # next iteration to run after a restore
    params: tuple[np.ndarray, ...]
    grads: tuple[np.ndarray, ...]
    pipeline: object | None
    nbytes: int = field(default=0)

    @classmethod
    def capture(cls, trainer, iteration: int) -> "TrainerCheckpoint":
        """Snapshot ``trainer`` as of *before* running ``iteration``.

        A CHECKPOINT memcpy of the state bytes is charged to every rank's
        compute stream at the current clock.
        """
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration!r}")
        params = tuple(p.data.copy() for p in trainer.model.parameters())
        grads = tuple(p.grad.copy() for p in trainer.model.parameters())
        pipeline = copy.deepcopy(trainer.pipeline) if trainer.pipeline is not None else None
        nbytes = int(sum(a.nbytes for a in params) + sum(a.nbytes for a in grads))
        snapshot = cls(
            iteration=int(iteration),
            params=params,
            grads=grads,
            pipeline=pipeline,
            nbytes=nbytes,
        )
        snapshot._charge(trainer, EventCategory.CHECKPOINT)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("checkpoints_taken_total", "trainer snapshots captured").inc()
            reg.gauge("checkpoint_nbytes_last", "size of the latest snapshot").set(nbytes)
        return snapshot

    def restore(self, trainer) -> int:
        """Load this snapshot back into ``trainer``; returns the iteration
        to resume from.

        Parameters and pending gradients are copied in place
        (``np.copyto``); the pipeline is replaced with a deep copy of the
        snapshot's, so the snapshot itself stays pristine across repeated
        restores.  Wire-byte counters are left alone —
        lost work's traffic still happened.
        """
        live_params = list(trainer.model.parameters())
        if len(live_params) != len(self.params):
            raise ValueError(
                f"snapshot holds {len(self.params)} parameters but the trainer "
                f"has {len(live_params)}"
            )
        for param, saved_data, saved_grad in zip(live_params, self.params, self.grads):
            if param.data.shape != saved_data.shape:
                raise ValueError(
                    f"parameter shape mismatch on restore: {param.data.shape} "
                    f"vs snapshot {saved_data.shape}"
                )
            np.copyto(param.data, saved_data)
            np.copyto(param.grad, saved_grad)
        trainer.pipeline = copy.deepcopy(self.pipeline) if self.pipeline is not None else None
        self._charge(trainer, EventCategory.RESTORE)
        if OBS.enabled:
            OBS.registry.counter(
                "checkpoint_restores_total", "trainer restores from snapshot"
            ).inc()
        return self.iteration

    def _charge(self, trainer, category: str) -> None:
        """Price a snapshot/reload as a state-sized memcpy on every rank."""
        sim = trainer.simulator
        seconds = sim.gpu.memcpy_time(self.nbytes)
        for rank in range(sim.n_ranks):
            sim.compute(rank, seconds, category)
