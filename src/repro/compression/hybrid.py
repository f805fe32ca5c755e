"""The paper's hybrid error-bounded compressor.

Quantization feeds one of two lossless encoders — vector-based LZ or
optimized Huffman — chosen per embedding table.  Two selection modes:

* ``encoder="auto"`` (default): try both and keep the smaller payload.
  This is what Table V's "hybrid" column reports (the per-table max ratio).
* ``encoder="lz"`` / ``encoder="huffman"``: pinned choice, as produced by the
  offline analysis (Algorithm 2 selects per table using the Eq.-2 speedup
  model, which also weighs throughput; see
  :mod:`repro.adaptive.selection`).

The payload embeds which encoder won, so decompression is self-contained.

``auto`` mode's try-both cost can be amortized on training hot loops: with
``pin_refresh`` set and calls routed through :meth:`compress_keyed`, the
winning leg for each table is *pinned* and replayed for ``pin_refresh``
batches before the next try-both trial — per-table winners are extremely
stable across iterations (Table V), so the trial cost is paid once per
refresh window instead of every batch.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compression.base import Compressor, parse_payload
from repro.compression.cache import EncoderPinCache, TableCodebookCache
from repro.compression.entropy import EntropyCompressor
from repro.compression.vector_lz import DEFAULT_WINDOW, VectorLZCompressor
from repro.obs.runtime import OBS

__all__ = ["HybridCompressor"]

_ENCODERS = ("auto", "lz", "huffman")


class HybridCompressor(Compressor):
    """Quantize + {vector-LZ | Huffman}, per-table selectable ("Ours")."""

    name = "hybrid"
    lossy = True
    error_bounded = True

    def __init__(
        self,
        encoder: str = "auto",
        window: int = DEFAULT_WINDOW,
        max_code_length: int | None = None,
        chunk_symbols: int | None = None,
        pin_refresh: int | None = None,
        codebook_cache: TableCodebookCache | None = None,
    ):
        if encoder not in _ENCODERS:
            raise ValueError(f"encoder must be one of {_ENCODERS}, got {encoder!r}")
        self.encoder = encoder
        self._lz = VectorLZCompressor(window=window)
        entropy_kwargs: dict[str, Any] = {"codebook_cache": codebook_cache}
        if max_code_length is not None:
            entropy_kwargs["max_code_length"] = max_code_length
        if chunk_symbols is not None:
            entropy_kwargs["chunk_symbols"] = chunk_symbols
        self._entropy = EntropyCompressor(**entropy_kwargs)
        self.pins = EncoderPinCache(pin_refresh) if pin_refresh is not None else None

    @property
    def window(self) -> int:
        return self._lz.window

    def compress_keyed(
        self, table_key: Any, array: np.ndarray, error_bound: float | None = None
    ) -> bytes:
        """Compress with pinned-encoder replay and codebook-cache reuse.

        Without ``pin_refresh`` (or in a pinned ``encoder=`` mode) this
        forwards the key so the entropy leg can reuse codebooks; in
        ``auto`` mode with pinning it replays the table's last winner until
        the pin ages out, then re-runs the try-both trial.
        """
        if self.encoder == "lz":
            return self._lz.compress(array, error_bound)
        if self.encoder == "huffman":
            return self._entropy.compress_keyed(table_key, array, error_bound)
        if self.pins is None or table_key is None:
            return self._compress_auto(table_key, array, error_bound)
        pinned = self.pins.pinned(table_key)
        if pinned is not None:
            if OBS.enabled:
                OBS.registry.counter(
                    "hybrid_pin_replay_total", "pinned-encoder replays (trial skipped)"
                ).inc(1, encoder=pinned)
            if pinned == "lz":
                return self._lz.compress(array, error_bound)
            return self._entropy.compress_keyed(table_key, array, error_bound)
        return self._trial_keyed(table_key, array, error_bound)

    def _trial_keyed(
        self, table_key: Any, array: np.ndarray, error_bound: float | None
    ) -> bytes:
        """Try-both trial round: compress with both legs, pin the winner."""
        prior = self.pins.pins.get(table_key)
        lz = self._lz.compress(array, error_bound)
        huff = self._entropy.compress_keyed(table_key, array, error_bound)
        winner = "lz" if len(lz) <= len(huff) else "huffman"
        self.pins.record_winner(table_key, winner)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter(
                "hybrid_pin_trial_total", "try-both encoder trials"
            ).inc(1, encoder=winner)
            if prior is not None and prior.winner != winner:
                reg.counter(
                    "hybrid_pin_switch_total",
                    "trials whose winner differed from the expiring pin (codec churn)",
                ).inc(1)
        return lz if winner == "lz" else huff

    def compress_into(self, array: np.ndarray, error_bound: float | None = None, *, pool):
        """Pooled variant of :meth:`compress`.

        Pinned ``encoder=`` modes assemble the winning leg's payload
        directly into the lease; ``auto`` mode must materialize both
        candidates anyway, so the winner is copied into the lease.
        """
        if self.encoder == "lz":
            return self._lz.compress_into(array, error_bound, pool=pool)
        if self.encoder == "huffman":
            return self._entropy.compress_into(array, error_bound, pool=pool)
        return pool.checkout_bytes(self.compress(array, error_bound))

    def compress_keyed_into(
        self, table_key: Any, array: np.ndarray, error_bound: float | None = None, *, pool
    ):
        """Pooled variant of :meth:`compress_keyed` (same pin semantics).

        Pinned replays — the steady state under ``pin_refresh`` — land in
        the lease with zero intermediate payload allocation; the rare
        try-both trial rounds copy the winner in.
        """
        if self.encoder == "lz":
            return self._lz.compress_into(array, error_bound, pool=pool)
        if self.encoder == "huffman":
            return self._entropy.compress_keyed_into(table_key, array, error_bound, pool=pool)
        if self.pins is None or table_key is None:
            return pool.checkout_bytes(self._compress_auto(table_key, array, error_bound))
        pinned = self.pins.pinned(table_key)
        if pinned is not None:
            if OBS.enabled:
                OBS.registry.counter(
                    "hybrid_pin_replay_total", "pinned-encoder replays (trial skipped)"
                ).inc(1, encoder=pinned)
            if pinned == "lz":
                return self._lz.compress_into(array, error_bound, pool=pool)
            return self._entropy.compress_keyed_into(table_key, array, error_bound, pool=pool)
        return pool.checkout_bytes(self._trial_keyed(table_key, array, error_bound))

    def _compress_auto(
        self, table_key: Any, array: np.ndarray, error_bound: float | None
    ) -> bytes:
        candidates = [
            self._lz.compress(array, error_bound),
            self._entropy.compress_keyed(table_key, array, error_bound),
        ]
        return min(candidates, key=len)

    def compress(self, array: np.ndarray, error_bound: float | None = None) -> bytes:
        array = np.ascontiguousarray(array)
        if array.ndim != 2:
            raise ValueError(f"hybrid: expected 2-D (batch, dim) array, got shape {array.shape}")
        if error_bound is None or not error_bound > 0:
            raise ValueError(f"hybrid: requires a positive error_bound, got {error_bound!r}")
        candidates = []
        if self.encoder in ("auto", "lz"):
            candidates.append(self._lz.compress(array, error_bound))
        if self.encoder in ("auto", "huffman"):
            candidates.append(self._entropy.compress(array, error_bound))
        best = min(candidates, key=len)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("hybrid_raw_bytes_total", "hybrid compress input bytes").inc(
                array.nbytes
            )
            reg.counter(
                "hybrid_compressed_bytes_total", "hybrid compress output bytes"
            ).inc(len(best))
        return best

    def decompress(self, payload: bytes | memoryview) -> np.ndarray:
        header, body = parse_payload(payload)
        inner = header["codec"]
        if inner == self._lz.name:
            result = self._lz._decode_frame(header, body)
        elif inner == self._entropy.name:
            result = self._entropy._decode_frame(header, body)
        else:
            raise ValueError(f"hybrid: unknown inner codec {inner!r}")
        if OBS.enabled:
            OBS.registry.counter(
                "hybrid_decompressed_bytes_total", "hybrid decompress output bytes"
            ).inc(result.nbytes)
        return result

    # The public compress/decompress are overridden wholesale (the payload is
    # delegated to the winning sub-codec), so the body hooks are unused.
    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[dict[str, Any], bytes]:
        raise NotImplementedError("HybridCompressor delegates framing to its sub-codecs")

    def _decompress_body(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        raise NotImplementedError("HybridCompressor delegates framing to its sub-codecs")
