"""Synthetic Criteo-like dataset with planted, controllable structure.

The real Criteo datasets cannot ship with this repository, so the generator
plants the three distributional properties the paper's compressor exploits
(Section III-B), with per-table knobs from the :class:`~repro.data.specs.TableSpec`:

* **Unbalanced query frequency** — categorical ids are drawn from a
  truncated Zipf distribution per table; large exponents concentrate
  lookups on hot rows, producing the repeated-vector batches that feed
  vector-LZ and vector homogenization.
* **Gaussian vs. broad value distributions** — embedding initial values are
  drawn with per-table scales, so some tables' lookup batches have
  concentrated histograms (Huffman-friendly) and others broad ones.
* **Learnable labels** — clicks come from a planted logistic teacher over
  the dense features and per-category response scores, so DLRM training
  on the data genuinely converges and accuracy differences caused by
  compression noise are measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.specs import DatasetSpec
from repro.utils.rng import RngPool
from repro.utils.validation import check_positive

__all__ = ["MiniBatch", "zipf_probabilities", "SyntheticClickDataset"]


@dataclass(frozen=True)
class MiniBatch:
    """One training mini-batch."""

    dense: np.ndarray  # (batch, n_dense) float32
    sparse: np.ndarray  # (batch, n_tables) int64 category ids
    labels: np.ndarray  # (batch,) float32 in {0, 1}


def zipf_probabilities(cardinality: int, exponent: float) -> np.ndarray:
    """Truncated Zipf pmf over ``[0, cardinality)``: ``p(k) ~ (k+1)^-s``.

    ``exponent=0`` degenerates to uniform.
    """
    check_positive("cardinality", cardinality)
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, cardinality + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


class SyntheticClickDataset:
    """Deterministic synthetic CTR dataset for a given :class:`DatasetSpec`.

    Parameters
    ----------
    spec:
        Table layout and per-table regimes.
    seed:
        Master seed; every stream (queries, teacher, labels) is derived.
    teacher_scale:
        Strength of the planted signal; larger values make the task easier
        (higher achievable accuracy).
    dense_weight:
        Strength of the dense-feature part of the planted teacher relative
        to its categorical part (weight 1).  Lowering it makes label
        quality depend on the embeddings, so compression noise on lookups
        has a measurable accuracy cost (useful for error-bound sensitivity
        studies).
    """

    def __init__(
        self,
        spec: DatasetSpec,
        seed: int = 0,
        teacher_scale: float = 1.5,
        dense_weight: float = 1.0,
    ):
        self.spec = spec
        self.seed = seed
        self._pool = RngPool(seed)
        # Per-table query distributions (CDF for inverse-transform sampling).
        self._cdfs = [
            np.cumsum(zipf_probabilities(t.cardinality, t.zipf_exponent))
            for t in spec.tables
        ]
        # Hot ranks are scattered over the id space so that id value carries
        # no accidental ordering signal.
        self._rank_to_id = [
            self._pool.fork("perm", t.table_id).permutation(t.cardinality)
            for t in spec.tables
        ]
        # Planted teacher: dense weights, per-table first-order response
        # scores, and per-category latent vectors whose pairwise dot
        # products add a second-order term — the part of the signal DLRM's
        # dot interaction is built to capture, and therefore the part that
        # embedding-compression noise measurably degrades.
        teacher_rng = self._pool.get("teacher")
        self._latent_dim = 4
        self._w_dense = teacher_rng.normal(0.0, 1.0, size=spec.n_dense)
        self._w_tables = [
            teacher_rng.normal(0.0, 1.0, size=t.cardinality) for t in spec.tables
        ]
        self._v_tables = [
            teacher_rng.normal(0.0, 1.0, size=(t.cardinality, self._latent_dim))
            for t in spec.tables
        ]
        self._teacher_scale = float(teacher_scale)
        if dense_weight < 0:
            raise ValueError("dense_weight must be >= 0")
        self._dense_weight = float(dense_weight)
        self._bias = float(teacher_rng.normal(0.0, 0.1))

    def _sample_ids(self, rng: np.random.Generator, table_index: int, count: int) -> np.ndarray:
        """Inverse-transform Zipf sampling, then scatter ranks to ids."""
        u = rng.random(count)
        ranks = np.searchsorted(self._cdfs[table_index], u, side="right")
        ranks = np.minimum(ranks, self.spec.tables[table_index].cardinality - 1)
        return self._rank_to_id[table_index][ranks]

    def batch(self, batch_size: int, batch_index: int = 0) -> MiniBatch:
        """Generate the ``batch_index``-th mini-batch deterministically.

        The same ``(seed, batch_index, batch_size)`` always yields the same
        batch, so multi-rank simulations can regenerate shards cheaply.
        """
        check_positive("batch_size", batch_size)
        rng = self._pool.fork("batch", batch_index * 100003 + batch_size)
        dense = rng.normal(0.0, 1.0, size=(batch_size, self.spec.n_dense)).astype(np.float32)
        sparse = np.empty((batch_size, self.spec.n_tables), dtype=np.int64)
        for j in range(self.spec.n_tables):
            sparse[:, j] = self._sample_ids(rng, j, batch_size)
        logits = self._bias + self._dense_weight * (dense.astype(np.float64) @ self._w_dense)
        for j in range(self.spec.n_tables):
            logits = logits + self._w_tables[j][sparse[:, j]] / np.sqrt(
                self.spec.n_tables
            )
        # Second-order term via the factorization-machine identity:
        # sum_{t<u} v_t.v_u = ((sum_t v_t)^2 - sum_t v_t^2) / 2.
        latents = np.stack(
            [self._v_tables[j][sparse[:, j]] for j in range(self.spec.n_tables)], axis=1
        )
        total = latents.sum(axis=1)
        pairwise = 0.5 * ((total**2).sum(axis=-1) - (latents**2).sum(axis=(1, 2)))
        n_pairs = self.spec.n_tables * (self.spec.n_tables - 1) / 2
        if n_pairs > 0:
            logits = logits + pairwise / np.sqrt(
                n_pairs * self._latent_dim
            )
        prob = 1.0 / (1.0 + np.exp(-self._teacher_scale * logits / np.sqrt(1 + self.spec.n_dense)))
        labels = (rng.random(batch_size) < prob).astype(np.float32)
        return MiniBatch(dense=dense, sparse=sparse, labels=labels)
