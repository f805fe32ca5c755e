"""Tests for training metrics and the sharding plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.train.metrics import TrainingHistory, binary_accuracy, roc_auc
from repro.train.sharding import ShardingPlan


class TestBinaryAccuracy:
    def test_perfect_predictions(self):
        logits = np.array([5.0, -5.0, 5.0])
        labels = np.array([1.0, 0.0, 1.0])
        assert binary_accuracy(logits, labels) == 1.0

    def test_inverted_predictions(self):
        assert binary_accuracy(np.array([5.0, -5.0]), np.array([0.0, 1.0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            binary_accuracy(np.zeros(0), np.zeros(0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            binary_accuracy(np.zeros(2), np.zeros(3))


class TestRocAuc:
    def test_perfect_ranking(self):
        logits = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        assert roc_auc(logits, labels) == 1.0

    def test_random_ranking_half(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=4000)
        labels = (rng.random(4000) < 0.5).astype(float)
        assert roc_auc(logits, labels) == pytest.approx(0.5, abs=0.05)

    def test_ties_get_midranks(self):
        logits = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        assert roc_auc(logits, labels) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))

    def test_matches_sklearn_style_reference(self):
        """Compare against a brute-force pairwise computation."""
        rng = np.random.default_rng(1)
        logits = rng.normal(size=100)
        labels = (rng.random(100) < 0.4).astype(float)
        pos = logits[labels == 1]
        neg = logits[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        expected = wins / (len(pos) * len(neg))
        assert roc_auc(logits, labels) == pytest.approx(expected)


class TestTrainingHistory:
    def test_record_and_final(self):
        h = TrainingHistory()
        h.record_loss(0.7)
        h.record_eval(10, 0.8, 0.9)
        assert h.final_accuracy == 0.8
        assert h.aucs == [0.9]

    def test_final_accuracy_requires_eval(self):
        with pytest.raises(ValueError):
            TrainingHistory().final_accuracy

    def test_smoothed_losses(self):
        h = TrainingHistory()
        for v in [1.0, 0.0, 1.0, 0.0]:
            h.record_loss(v)
        smoothed = h.smoothed_losses(window=2)
        np.testing.assert_allclose(smoothed, [0.5, 0.5, 0.5])

    def test_smoothed_empty(self):
        assert TrainingHistory().smoothed_losses().size == 0


class TestShardingPlan:
    def test_round_robin(self):
        plan = ShardingPlan.round_robin(5, 2)
        assert plan.owners == (0, 1, 0, 1, 0)
        assert plan.tables_of(0) == (0, 2, 4)
        assert plan.owner_of(1) == 1

    def test_size_balanced_spreads_load(self):
        cards = [1000, 1000, 10, 10, 10, 10]
        plan = ShardingPlan.size_balanced(cards, 2)
        load0 = sum(cards[t] for t in plan.tables_of(0))
        load1 = sum(cards[t] for t in plan.tables_of(1))
        assert abs(load0 - load1) <= 1000

    def test_size_balanced_all_tables_assigned(self):
        plan = ShardingPlan.size_balanced([5, 3, 8, 1, 9, 2], 3)
        assigned = sorted(t for r in range(3) for t in plan.tables_of(r))
        assert assigned == list(range(6))

    def test_more_ranks_than_tables(self):
        plan = ShardingPlan.size_balanced([100, 50], 8)
        assert plan.n_tables == 2
        assert {plan.owner_of(0), plan.owner_of(1)} <= set(range(8))

    def test_precomputed_lookups_match_a_scan_of_owners(self):
        plan = ShardingPlan(owners=(2, 0, 2, 5, 0, 2), n_ranks=8)
        for rank in range(-1, 9):  # out-of-range ranks own nothing
            scan = tuple(t for t, owner in enumerate(plan.owners) if owner == rank)
            assert plan.tables_of(rank) == scan
        for table_id in range(plan.n_tables):
            owned = plan.tables_of(plan.owner_of(table_id))
            assert owned[plan.slot_of(table_id)] == table_id
        # The cached lookups are not fields: equality and hashing ignore them.
        twin = ShardingPlan(owners=(2, 0, 2, 5, 0, 2), n_ranks=8)
        assert plan == twin and hash(plan) == hash(twin)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardingPlan(owners=(0, 5), n_ranks=2)
        with pytest.raises(ValueError):
            ShardingPlan.round_robin(0, 2)
        with pytest.raises(ValueError):
            ShardingPlan.size_balanced([], 2)
        with pytest.raises(ValueError):
            ShardingPlan.size_balanced([0], 2)
