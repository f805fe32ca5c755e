"""Single-process reference trainer.

Runs DLRM training without any cluster simulation.  An optional *lookup
transform* injects the compression round-trip into the forward pass, which
is numerically identical to what a distributed receiver sees after the
compressed all-to-all — so every accuracy experiment (Figs. 5, 8, 9, 10)
can run at single-process speed, while the hybrid-parallel trainer is
reserved for timing experiments.  (An integration test pins the
equivalence of the two trainers.)
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import SyntheticClickDataset
from repro.model.dlrm import DLRM
from repro.nn.loss import bce_grad, bce_with_logits
from repro.nn.optim import SGD
from repro.train.metrics import TrainingHistory, binary_accuracy, roc_auc
from repro.utils.validation import check_count, check_positive

__all__ = ["LookupTransform", "ReferenceTrainer", "evaluate_model"]

#: hook applied to each table's lookup rows: (table_id, rows, iteration) -> rows
LookupTransform = Callable[[int, np.ndarray, int], np.ndarray]


#: first batch index of held-out evaluation, far past any training run
EVAL_BATCH_OFFSET = 1_000_000
#: held-out batches a periodic evaluation scores
EVAL_BATCHES = 4


def evaluate_model(
    model: DLRM,
    dataset: SyntheticClickDataset,
    batch_size: int = 512,
    n_batches: int = 4,
) -> tuple[float, float]:
    """Held-out (accuracy, AUC): evaluation batches never overlap training
    batches because their indices start at :data:`EVAL_BATCH_OFFSET`."""
    logits_all = []
    labels_all = []
    for i in range(n_batches):
        batch = dataset.batch(batch_size, batch_index=EVAL_BATCH_OFFSET + i)
        logits_all.append(model.forward(batch.dense, batch.sparse))
        labels_all.append(batch.labels)
    logits = np.concatenate(logits_all)
    labels = np.concatenate(labels_all)
    return binary_accuracy(logits, labels), roc_auc(logits, labels)


@dataclass
class ReferenceTrainer:
    """Plain mini-batch training with an optional lossy lookup hook."""

    model: DLRM
    dataset: SyntheticClickDataset
    lr: float = 0.1
    lookup_transform: LookupTransform | None = None

    def __post_init__(self) -> None:
        check_positive("lr", self.lr)
        self._opt = SGD(self.model.parameters(), lr=self.lr)

    def train_step(self, batch_size: int, iteration: int) -> float:
        """One mini-batch step; returns the training loss."""
        batch = self.dataset.batch(batch_size, batch_index=iteration)
        bottom_out = self.model.forward_dense(batch.dense)
        emb_rows = self.model.lookup_all(batch.sparse)
        if self.lookup_transform is not None:
            emb_rows = [
                self.lookup_transform(j, rows, iteration)
                for j, rows in enumerate(emb_rows)
            ]
        logits = self.model.forward_interaction(bottom_out, emb_rows)
        loss = bce_with_logits(logits, batch.labels)
        dlogits = bce_grad(logits, batch.labels)
        d_bottom, d_emb = self.model.backward_interaction(dlogits)
        self.model.backward_dense(d_bottom)
        for j in range(self.model.config.n_tables):
            self.model.accumulate_embedding_grad(j, batch.sparse[:, j], d_emb[j])
        self._opt.step()
        return loss

    def train(
        self,
        n_iterations: int,
        batch_size: int,
        eval_every: int = 0,
        eval_batches: int = EVAL_BATCHES,
    ) -> TrainingHistory:
        """Run ``n_iterations`` steps, optionally evaluating periodically."""
        check_count("n_iterations", n_iterations, 1)
        check_count("batch_size", batch_size, 1)
        history = TrainingHistory()
        for iteration in range(n_iterations):
            loss = self.train_step(batch_size, iteration)
            history.record_loss(loss)
            last = iteration == n_iterations - 1
            if eval_every and (iteration % eval_every == eval_every - 1 or last):
                accuracy, auc = evaluate_model(self.model, self.dataset, n_batches=eval_batches)
                history.record_eval(iteration, accuracy, auc)
        return history
