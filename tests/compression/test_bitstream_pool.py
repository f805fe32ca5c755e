"""Property tests for the zero-copy bitstream pool.

The pool's contract is a pair of laws its users build on: two live
leases never alias (every checkout owns a distinct
arena), and a released arena is deterministically reused by the next
same-bucket checkout — steady-state rounds hit the free list, never the
allocator.  Hypothesis drives both over randomized checkout/release
schedules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compression.pool import (
    _MIN_ARENA,
    BitstreamPool,
    arena_capacity,
)


class TestArenaCapacity:
    def test_minimum_bucket(self):
        assert arena_capacity(0) == _MIN_ARENA
        assert arena_capacity(1) == _MIN_ARENA
        assert arena_capacity(_MIN_ARENA) == _MIN_ARENA

    @given(st.integers(min_value=1, max_value=1 << 24))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_and_fits(self, nbytes):
        cap = arena_capacity(nbytes)
        assert cap >= nbytes
        assert cap & (cap - 1) == 0  # power of two
        assert cap < 2 * max(nbytes, _MIN_ARENA)  # never over-doubles


class TestLease:
    def test_view_is_exact_size_and_writable(self):
        pool = BitstreamPool()
        lease = pool.checkout(37)
        assert len(lease) == 37
        assert lease.view.nbytes == 37
        lease.view[:] = b"\xab" * 37
        assert bytes(lease.view) == b"\xab" * 37
        lease.release()

    def test_write_and_array_share_the_window(self):
        pool = BitstreamPool()
        lease = pool.checkout(16)
        lease.write(b"\x01\x02\x03\x04" * 4)
        arr = lease.array(np.uint8)
        assert arr.tolist()[:4] == [1, 2, 3, 4]
        arr[0] = 99
        assert lease.view[0] == 99
        del arr
        lease.release()

    def test_write_overflow_rejected(self):
        pool = BitstreamPool()
        with pool.checkout(4) as lease:
            with pytest.raises(ValueError, match="lease too small"):
                lease.write(b"\x00" * 5)

    def test_release_is_idempotent(self):
        pool = BitstreamPool()
        lease = pool.checkout(8)
        lease.release()
        lease.release()
        assert pool.stats.live == 0
        assert pool.free_arenas() == 1

    def test_use_after_release_raises(self):
        pool = BitstreamPool()
        lease = pool.checkout(8)
        lease.release()
        with pytest.raises(ValueError):
            lease.view[0] = 1

    def test_context_manager_releases(self):
        pool = BitstreamPool()
        with pool.checkout(8) as lease:
            assert not lease.released
        assert lease.released
        assert pool.stats.live == 0

    def test_dirty_release_drops_the_arena(self):
        """An arena with a live buffer export is never recycled — the
        surviving array stays valid and no future checkout can write
        under it."""
        pool = BitstreamPool()
        lease = pool.checkout(8)
        arr = lease.array(np.uint8)  # holds a buffer export
        arr[:] = 42
        lease.release()
        assert pool.stats.dirty_releases == 1
        assert pool.stats.live == 0
        assert pool.free_arenas() == 0  # dropped, not pooled
        with pool.checkout(8) as other:
            other.view[:] = b"\x00" * 8
            assert arr.tolist() == [42] * 8  # untouched

    def test_checkout_bytes_prefills(self):
        pool = BitstreamPool()
        lease = pool.checkout_bytes(b"hello world")
        assert bytes(lease.view) == b"hello world"
        lease.release()

    def test_checkout_array_shape_and_dtype(self):
        pool = BitstreamPool()
        lease, arr = pool.checkout_array((3, 4), np.float32)
        assert arr.shape == (3, 4) and arr.dtype == np.float32
        arr[:] = 7.0
        assert np.frombuffer(lease.view, dtype=np.float32).sum() == pytest.approx(84.0)
        del arr
        lease.release()


class TestPoolLaws:
    @given(st.lists(st.integers(min_value=1, max_value=4096), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_live_leases_never_alias(self, sizes):
        """Writing a distinct pattern through every live lease corrupts
        none of the others — each checkout owns a private arena."""
        pool = BitstreamPool()
        leases = [pool.checkout(n) for n in sizes]
        for i, lease in enumerate(leases):
            lease.view[:] = bytes([i % 251]) * lease.nbytes
        for i, lease in enumerate(leases):
            assert bytes(lease.view) == bytes([i % 251]) * lease.nbytes
        for lease in leases:
            lease.release()
        assert pool.stats.live == 0

    @given(st.integers(min_value=1, max_value=1 << 16))
    @settings(max_examples=100, deadline=None)
    def test_released_arena_is_reused(self, nbytes):
        """checkout → release → checkout of the same bucket hits the free
        list: no new arena, one more reuse."""
        pool = BitstreamPool()
        pool.checkout(nbytes).release()
        created = pool.stats.arenas_created
        lease = pool.checkout(nbytes)
        assert pool.stats.arenas_created == created
        assert pool.stats.reuses == 1
        lease.release()

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=2048)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_schedule_invariants(self, ops):
        """Any interleaving of checkouts and releases keeps the accounting
        consistent and never aliases a live lease."""
        pool = BitstreamPool(max_arenas_per_bucket=4)
        live: list = []
        for release_one, nbytes in ops:
            if release_one and live:
                idx = nbytes % len(live)
                lease, pattern = live.pop(idx)
                assert bytes(lease.view) == pattern  # untouched while live
                lease.release()
            else:
                lease = pool.checkout(nbytes)
                pattern = bytes([nbytes % 256]) * nbytes
                lease.view[:] = pattern
                live.append((lease, pattern))
        assert pool.stats.live == len(live)
        assert pool.stats.checkouts == pool.stats.arenas_created + pool.stats.reuses
        for lease, pattern in live:
            assert bytes(lease.view) == pattern
            lease.release()
        assert pool.stats.live == 0

    def test_retention_is_bounded(self):
        pool = BitstreamPool(max_arenas_per_bucket=2)
        leases = [pool.checkout(100) for _ in range(5)]
        for lease in leases:
            lease.release()
        assert pool.free_arenas() == 2  # the rest went to the GC

    def test_clear_drops_free_arenas(self):
        pool = BitstreamPool()
        pool.checkout(100).release()
        assert pool.free_arenas() == 1
        pool.clear()
        assert pool.free_arenas() == 0
        # a live lease survives clear()
        lease = pool.checkout(50)
        pool.clear()
        lease.view[:] = b"\x01" * 50
        lease.release()

    def test_negative_checkout_rejected(self):
        with pytest.raises(ValueError):
            BitstreamPool().checkout(-1)

    def test_zero_byte_checkout(self):
        pool = BitstreamPool()
        with pool.checkout(0) as lease:
            assert lease.view.nbytes == 0


def _accounted_bytes(pool: BitstreamPool, live: list) -> int:
    """What ``stats.arena_bytes`` must equal: pooled free arenas plus the
    arenas of every live lease."""
    free = sum(len(arena) for bucket in pool._free.values() for arena in bucket)
    return free + sum(arena_capacity(lease.nbytes) for lease in live)


class TestArenaByteAccounting:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["checkout", "release", "release_dirty", "clear"]),
                st.integers(min_value=1, max_value=2048),
            ),
            min_size=1,
            max_size=40,
        )
    )
    # clear() with a live lease, then its dirty / clean release
    @example([("checkout", 1000), ("clear", 1), ("release_dirty", 0)])
    @example([("checkout", 1000), ("clear", 1), ("release", 0)])
    @settings(max_examples=100, deadline=None)
    def test_clear_keeps_arena_bytes_exact(self, ops):
        """Any mix of checkouts, clean and dirty releases and ``clear()``
        keeps ``arena_bytes`` equal to free plus live arena capacity."""
        pool = BitstreamPool(max_arenas_per_bucket=4)
        live: list = []
        exports: list = []
        for action, nbytes in ops:
            if action == "checkout" or (action.startswith("release") and not live):
                live.append(pool.checkout(nbytes))
            elif action == "clear":
                pool.clear()
            else:
                lease = live.pop(nbytes % len(live))
                if action == "release_dirty":
                    exports.append(lease.array())
                lease.release()
            assert pool.stats.arena_bytes >= 0
            assert pool.stats.arena_bytes == _accounted_bytes(pool, live)
        for lease in live:
            lease.release()
        assert pool.stats.arena_bytes == _accounted_bytes(pool, [])
