"""Tests for shared utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import (
    RngPool,
    check_in,
    check_positive,
    check_shape,
    format_table,
    spawn_rng,
)
from repro.utils.tables import FLOAT_FMT


class TestRng:
    def test_same_seed_same_stream(self):
        a = spawn_rng(42, "x").random(5)
        b = spawn_rng(42, "x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = spawn_rng(42, "x").random(5)
        b = spawn_rng(42, "y").random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert spawn_rng(rng, "anything") is rng

    def test_pool_caches_by_name(self):
        pool = RngPool(7)
        assert pool.get("data") is pool.get("data")
        assert pool.get("data") is not pool.get("model")

    def test_pool_fork_independent(self):
        pool = RngPool(7)
        a = pool.fork("batch", 0).random(4)
        b = pool.fork("batch", 1).random(4)
        assert not np.array_equal(a, b)

    def test_pool_deterministic_across_instances(self):
        a = RngPool(9).get("s").random(3)
        b = RngPool(9).get("s").random(3)
        np.testing.assert_array_equal(a, b)

    def test_string_and_int_keys(self):
        a = spawn_rng(1, "t", 3).random(2)
        b = spawn_rng(1, "t", 3).random(2)
        np.testing.assert_array_equal(a, b)


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = out.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width
        assert "a" in lines[0] and "bb" in lines[0]

    def test_format_table_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_format_table_bools(self):
        out = format_table(["flag"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_format_table_floats_use_the_one_format(self):
        values = [1234567.0, 0.000123456, 2.5]
        out = format_table(["v", "n"], [[v, 7] for v in values])
        for v in values:
            assert format(v, FLOAT_FMT) in out
        assert "1.235e+06" in out and " 7" in out

    def test_format_table_ragged_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError):
            check_positive("x", 0)
        check_positive("x", 0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", -1, strict=False)

    def test_check_positive_rejects_nan(self):
        for strict in (True, False):
            with pytest.raises(ValueError, match="x must be >=? ?0, got nan"):
                check_positive("x", float("nan"), strict=strict)

    def test_check_in(self):
        check_in("mode", "a", ("a", "b"))
        with pytest.raises(ValueError, match="mode"):
            check_in("mode", "c", ("a", "b"))

    def test_check_shape(self):
        check_shape("arr", np.zeros((2, 3)), 2)
        with pytest.raises(ValueError):
            check_shape("arr", np.zeros(3), 2)
