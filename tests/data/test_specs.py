"""Tests for dataset specifications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.specs import (
    CRITEO_KAGGLE,
    CRITEO_TERABYTE,
    DatasetSpec,
    TableSpec,
    make_uniform_spec,
    scaled_spec,
)


class TestCanonicalSpecs:
    def test_criteo_layout(self):
        for spec in (CRITEO_KAGGLE, CRITEO_TERABYTE):
            assert spec.n_tables == 26
            assert spec.n_dense == 13

    def test_kaggle_published_cardinalities(self):
        cards = CRITEO_KAGGLE.cardinalities()
        assert cards[0] == 1460
        assert cards.max() == 10131227
        assert cards.min() == 3

    def test_terabyte_larger_than_kaggle(self):
        assert CRITEO_TERABYTE.cardinalities().max() > CRITEO_KAGGLE.cardinalities().max()

    def test_size_spread_spans_orders_of_magnitude(self):
        """Fig. 6's property: sizes from single digits to millions."""
        cards = CRITEO_KAGGLE.cardinalities()
        assert cards.max() / cards.min() > 1e5

    def test_regime_mix_present(self):
        distributions = {t.value_distribution for t in CRITEO_KAGGLE.tables}
        assert {"laplace", "normal", "uniform"} <= distributions
        assert any(t.n_clusters > 0 for t in CRITEO_KAGGLE.tables)
        assert any(t.n_clusters == 0 for t in CRITEO_KAGGLE.tables)


class TestTableSpecValidation:
    def test_rejects_bad_cardinality(self):
        with pytest.raises(ValueError):
            TableSpec(table_id=0, cardinality=0)

    def test_rejects_negative_zipf(self):
        with pytest.raises(ValueError):
            TableSpec(table_id=0, cardinality=10, zipf_exponent=-1)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            TableSpec(table_id=0, cardinality=10, value_distribution="cauchy")

    def test_dataset_requires_consecutive_ids(self):
        with pytest.raises(ValueError, match="consecutive"):
            DatasetSpec(name="x", tables=(TableSpec(table_id=1, cardinality=5),))


class TestScaledSpec:
    def test_caps_cardinalities(self):
        scaled = scaled_spec(CRITEO_KAGGLE, max_cardinality=5000)
        assert scaled.cardinalities().max() <= 5000

    def test_small_tables_untouched(self):
        scaled = scaled_spec(CRITEO_KAGGLE, max_cardinality=5000)
        for orig, new in zip(CRITEO_KAGGLE.tables, scaled.tables):
            if orig.cardinality <= 5000:
                assert new.cardinality == orig.cardinality

    def test_preserves_relative_order_of_large_tables(self):
        """Strictly larger tables never become strictly smaller (ties from
        rounding are allowed)."""
        scaled = scaled_spec(CRITEO_KAGGLE, max_cardinality=5000)
        orig = CRITEO_KAGGLE.cardinalities()
        new = scaled.cardinalities()
        big = np.flatnonzero(orig > 5000)
        for i in big:
            for j in big:
                if orig[i] < orig[j]:
                    assert new[i] <= new[j]

    def test_noop_when_under_cap(self):
        spec = make_uniform_spec("s", 3, 100)
        assert scaled_spec(spec, max_cardinality=1000) is spec

    def test_keeps_regime_fields(self):
        scaled = scaled_spec(CRITEO_KAGGLE, max_cardinality=5000)
        for orig, new in zip(CRITEO_KAGGLE.tables, scaled.tables):
            assert new.zipf_exponent == orig.zipf_exponent
            assert new.value_distribution == orig.value_distribution

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError):
            scaled_spec(CRITEO_KAGGLE, max_cardinality=1)


class TestUniformSpec:
    def test_shape(self):
        spec = make_uniform_spec("t", n_tables=4, cardinality=50)
        assert spec.n_tables == 4
        assert spec.n_dense == 13
        assert all(t.cardinality == 50 for t in spec.tables)
