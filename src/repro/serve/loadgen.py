"""Open-loop request load: Poisson arrivals of Criteo-shaped lookups.

Serving systems are measured under *open-loop* load — requests arrive on
their own schedule whether or not the system keeps up, so queueing delay
(the p99 killer) is visible.  :class:`RequestLoadGenerator` draws
exponential interarrival gaps at a configured QPS and attaches each
arrival to one sample of a :class:`~repro.data.synthetic.SyntheticClickDataset`
mini-batch: 13 dense features plus one categorical id per embedding table,
Zipf-skewed per the table's spec — exactly the multi-table lookup shape
(and hot-row skew) the replica caches exploit.

Everything is deterministic under a fixed seed: the same generator
configuration replays the identical trace, which is what makes serving
simulations comparable across cache sizes, replica counts, and fabrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import SyntheticClickDataset
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_positive

__all__ = ["Request", "RequestLoadGenerator"]


@dataclass(frozen=True)
class Request:
    """One user's inference request."""

    request_id: int
    arrival_seconds: float
    sparse: np.ndarray  # (n_tables,) int64 — one id per embedding table
    dense: np.ndarray  # (n_dense,) float32


class RequestLoadGenerator:
    """Deterministic open-loop Poisson arrivals over a synthetic dataset.

    Parameters
    ----------
    dataset:
        Criteo-shaped sample source (ids carry the per-table Zipf skew).
    qps:
        Offered load — mean arrival rate, requests/second.
    seed:
        Arrival-process seed; id/dense content comes from the dataset's
        own seed, so traffic *shape* and traffic *timing* are independent
        knobs.
    """

    def __init__(self, dataset: SyntheticClickDataset, qps: float, seed: int = 0):
        check_positive("qps", qps)
        self.dataset = dataset
        self.qps = float(qps)
        self.seed = int(seed)
        self._round = 0
        self._clock = 0.0
        self._next_id = 0

    def generate(self, n_requests: int) -> list[Request]:
        """The next ``n_requests`` arrivals (consecutive calls continue the
        trace; a fresh generator with the same seed replays it)."""
        check_positive("n_requests", n_requests)
        n = int(n_requests)
        rng = spawn_rng(self.seed, "arrivals", self._round)
        gaps = rng.exponential(1.0 / self.qps, size=n)
        arrivals = self._clock + np.cumsum(gaps)
        # Content rides on the dataset's deterministic batch stream; the
        # batch index is derived from the seed so distinct load generators
        # over one dataset draw distinct (but reproducible) traffic.
        batch = self.dataset.batch(n, batch_index=1_000_003 * self.seed + self._round)
        requests = [
            Request(
                request_id=self._next_id + i,
                arrival_seconds=float(arrivals[i]),
                sparse=batch.sparse[i],
                dense=batch.dense[i],
            )
            for i in range(n)
        ]
        self._round += 1
        self._clock = float(arrivals[-1])
        self._next_id += n
        return requests

    def __repr__(self) -> str:
        return (
            f"RequestLoadGenerator(qps={self.qps:g}, seed={self.seed}, "
            f"generated={self._next_id})"
        )
