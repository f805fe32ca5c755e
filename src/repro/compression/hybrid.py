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
``pin_refresh`` set and calls that pass ``key=table_id``, the
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

    def compress(self, array: np.ndarray, error_bound: float | None = None, *, key=None, pool=None):
        """Compress with the selected (or, in ``auto`` mode, smaller) leg.

        ``key`` reaches the entropy leg's codebook cache and, in ``auto``
        mode with ``pin_refresh``, replays the table's last winner until the
        pin ages out, then re-runs the try-both trial.  With ``pool`` the
        single leg of a pinned mode or a replay — the steady state under
        ``pin_refresh`` — lands in the lease with no intermediate payload;
        a trial materializes both candidates anyway, so its winner is
        copied in.
        """
        array = self._validate(array, error_bound)
        pins = self.pins if key is not None else None  # un-keyed calls leave pins alone
        leg = self._route(pins, key)
        if leg == "lz":
            out = self._lz.compress(array, error_bound, pool=pool)
        elif leg == "huffman":
            out = self._entropy.compress(array, error_bound, key=key, pool=pool)
        else:
            out = self._trial(array, error_bound, pins, key)
            if pool is not None:
                out = pool.checkout_bytes(out)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("hybrid_raw_bytes_total", "hybrid compress input bytes").inc(
                array.nbytes
            )
            reg.counter(
                "hybrid_compressed_bytes_total", "hybrid compress output bytes"
            ).inc(len(out))
        return out

    def _route(self, pins: EncoderPinCache | None, key) -> str:
        """``encoder`` mode x pin state -> the leg to run: lz | huffman | trial."""
        if self.encoder != "auto":
            return self.encoder
        pinned = pins.pinned(key) if pins is not None else None
        if pinned is None:
            return "trial"
        if OBS.enabled:
            OBS.registry.counter(
                "hybrid_pin_replay_total", "pinned-encoder replays (trial skipped)"
            ).inc(1, encoder=pinned)
        return pinned

    def _trial(
        self, array: np.ndarray, error_bound: float | None, pins: EncoderPinCache | None, key
    ) -> bytes:
        """Try both legs, keep the smaller payload, pin the winner for ``key``."""
        lz = self._lz.compress(array, error_bound)
        huff = self._entropy.compress(array, error_bound, key=key)
        winner = "lz" if len(lz) <= len(huff) else "huffman"
        if pins is not None:
            prior = pins.pins.get(key)
            pins.record_winner(key, winner)
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
    def _compress_body(self, array: np.ndarray, error_bound: float | None, key=None) -> tuple[dict[str, Any], bytes]:
        raise NotImplementedError("HybridCompressor delegates framing to its sub-codecs")

    def _decompress_body(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        raise NotImplementedError("HybridCompressor delegates framing to its sub-codecs")
