"""Training metrics: accuracy, AUC, and history containers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.loss import sigmoid

__all__ = ["binary_accuracy", "roc_auc", "TrainingHistory"]


def binary_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct 0/1 predictions at probability threshold 0.5."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if logits.shape != labels.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {labels.shape}")
    if logits.size == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    predictions = sigmoid(logits) >= 0.5
    return float((predictions == (labels >= 0.5)).mean())


def roc_auc(logits: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum (Mann-Whitney) statistic."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if logits.shape != labels.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {labels.shape}")
    positive = labels >= 0.5
    n_pos = int(positive.sum())
    n_neg = logits.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    order = np.argsort(logits, kind="stable")
    ranks = np.empty(logits.size, dtype=np.float64)
    ranks[order] = np.arange(1, logits.size + 1)
    # Midranks for ties keep the estimator unbiased.
    sorted_logits = logits[order]
    i = 0
    while i < logits.size:
        j = i
        while j + 1 < logits.size and sorted_logits[j + 1] == sorted_logits[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    rank_sum = float(ranks[positive].sum())
    u_statistic = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)


@dataclass
class TrainingHistory:
    """Loss/accuracy traces collected during a run."""

    losses: list[float] = field(init=False, default_factory=list)
    eval_iterations: list[int] = field(init=False, default_factory=list)
    accuracies: list[float] = field(init=False, default_factory=list)
    aucs: list[float] = field(init=False, default_factory=list)

    def record_loss(self, value: float) -> None:
        self.losses.append(float(value))

    def record_eval(self, iteration: int, accuracy: float, auc: float | None = None) -> None:
        self.eval_iterations.append(int(iteration))
        self.accuracies.append(float(accuracy))
        if auc is not None:
            self.aucs.append(float(auc))

    @property
    def final_accuracy(self) -> float:
        if not self.accuracies:
            raise ValueError("no evaluations recorded")
        return self.accuracies[-1]
