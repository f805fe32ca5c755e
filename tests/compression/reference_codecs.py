"""Frozen reference implementations, kept test-only as differential oracles.

* :func:`pack_fixed` — fixed-width packing as one :func:`pack_codes` call
  with every length ``width``: the oracle of the fixed-width readers and
  of ``pack_fixed_segments``.
* :func:`reference_vector_lz_encode` — the per-slice vector-LZ encoder
  (dictionary scan + one ``pack_fixed`` per section) that the batched
  ``vector_lz_encode_stack`` replaced; ``test_vector_lz_batch.py`` pins the
  batched payloads to it byte for byte.

Do not "fix" or speed these up: they are the behaviour being compared to.
"""

from __future__ import annotations

import numpy as np

from repro.compression.bitstream import pack_codes
from repro.compression.vector_lz import (
    DEFAULT_WINDOW,
    VectorLZEncoded,
    _width_for,
    find_vector_matches,
)


def pack_fixed(values: np.ndarray, width: int) -> tuple[np.ndarray, int]:
    """Pack unsigned integers at a fixed bit width ``>= 1`` (MSB-first)."""
    values = np.asarray(values, dtype=np.uint64).ravel()
    return pack_codes(values, np.full(values.shape, width, dtype=np.int64))


def reference_vector_lz_encode(codes: np.ndarray, window: int = DEFAULT_WINDOW) -> VectorLZEncoded:
    """The per-slice encoder (dictionary scan + one ``pack_fixed`` per
    section)."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"expected 2-D code array, got shape {codes.shape}")
    if codes.size and codes.min() < 0:
        raise ValueError("vector_lz_encode expects non-negative codes")
    n, d = codes.shape
    is_match, offsets = find_vector_matches(codes, window)
    offset_width = _width_for(window)
    packed_offsets, _ = pack_fixed(offsets[is_match], offset_width)
    literal_rows = codes[~is_match]
    literal_width = _width_for(int(literal_rows.max()) if literal_rows.size else 0)
    packed_literals, _ = pack_fixed(literal_rows.ravel(), literal_width)
    return VectorLZEncoded(
        flags=np.packbits(is_match),
        offsets=packed_offsets,
        literals=packed_literals,
        n_rows=n,
        n_matches=int(is_match.sum()),
        dim=d,
        offset_width=offset_width,
        literal_width=literal_width,
    )
