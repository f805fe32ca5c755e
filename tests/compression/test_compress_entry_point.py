"""The one per-array encode entry point: ``compress(a, eb, *, key=, pool=)``.

The ``GOLDEN_*`` digests were recorded at the commit *before* the
``compress_into`` / ``compress_keyed`` / ``compress_keyed_into`` variants
were folded into ``compress`` (the old spellings driven through the same
seeded scenarios), so they pin payload bytes *and* pin/codebook-cache state
transitions call for call across the fold.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compression.base import Compressor
from repro.compression.cache import TableCodebookCache
from repro.compression.entropy import EntropyCompressor
from repro.compression.hybrid import HybridCompressor
from repro.compression.pool import BitstreamPool
from repro.compression.registry import available_compressors, decompress_any, get_compressor

SEED = 20240914
ERROR_BOUND = 1e-2
ROUNDS = 12
TABLE_KEYS = ("dup", "gauss", "drift")


def _encode(codec, array, error_bound, key=None, pool=None):
    """The call under test (the recorder substituted the old spellings)."""
    return codec.compress(array, error_bound, key=key, pool=pool)


def _payload(codec, array, error_bound, key=None, pool=None) -> bytes:
    out = _encode(codec, array, error_bound, key=key, pool=pool)
    if pool is None:
        assert isinstance(out, bytes)
        return out
    with out as lease:
        return bytes(lease.view)


# ----------------------------------------------------------------- scenarios


def _gauss(rng, scale: float) -> np.ndarray:
    """Huffman-friendly batch whose quantized range (hence ``code_min`` and
    the used alphabet) is the same every round, so codebooks stay reusable."""
    batch = np.clip(rng.normal(scale=scale, size=(256, 8)), -2.5 * scale, 2.5 * scale)
    batch[0, :2] = (-2.5 * scale, 2.5 * scale)
    return batch.astype(np.float32)


def _stateless_batches() -> list[np.ndarray]:
    rng = np.random.default_rng(SEED)
    distinct = rng.normal(scale=0.1, size=(4, 16)).astype(np.float32)
    return [
        _gauss(rng, 0.05),
        distinct[rng.integers(0, 4, size=32)],
        rng.normal(size=(5, 3)),  # float64, ragged against every block size
        np.zeros((1, 1), dtype=np.float32),
    ]


def _table_batch(key: str, round_index: int) -> np.ndarray:
    """Round ``round_index`` of one table: ``dup`` favours vector-LZ,
    ``gauss`` favours Huffman, ``drift`` flips between the two and widens
    its value range (pin switches, codebook coverage/shift misses)."""
    rng = np.random.default_rng([SEED, round_index, TABLE_KEYS.index(key)])
    lz_friendly = key == "dup" or (key == "drift" and (round_index // 5) % 2 == 0)
    scale = 0.05 * (1 + round_index // 4) if key == "drift" else 0.05
    if lz_friendly:
        distinct = rng.normal(scale=scale, size=(3, 8)).astype(np.float32)
        return distinct[rng.integers(0, 3, size=64)]
    return _gauss(rng, scale)


def _cache_state(codec) -> str:
    """Everything the keyed route may mutate, as text for the digest."""
    entropy = getattr(codec, "_entropy", codec)
    book = entropy.codebook_cache
    state = [book.hits, book.misses, book.stale_refreshes, book.coverage_misses, book.shift_misses]
    pins = getattr(codec, "pins", None)
    if pins is not None:
        state += [pins.pinned_hits, pins.trials]
        state += sorted((k, p.winner, p.age) for k, p in pins.pins.items())
    return repr(state)


def _stateless_digest(name: str, pooled: bool) -> str:
    codec = get_compressor(name)
    bound = ERROR_BOUND if codec.error_bounded else None
    pool = BitstreamPool() if pooled else None
    digest = hashlib.sha256()
    for batch in _stateless_batches():
        payload = _payload(codec, batch, bound, pool=pool)
        digest.update(len(payload).to_bytes(8, "little") + payload)
    return digest.hexdigest()


def _stateful_codec(kind: str) -> Compressor:
    cache = TableCodebookCache(refresh_every=3)
    if kind == "entropy":
        return EntropyCompressor(codebook_cache=cache)
    return HybridCompressor(encoder=kind, pin_refresh=4, codebook_cache=cache)


def _stateful_digest(kind: str, keyed: bool, pooled: bool) -> tuple[str, Compressor]:
    codec = _stateful_codec(kind)
    pool = BitstreamPool() if pooled else None
    digest = hashlib.sha256()
    for round_index in range(ROUNDS):
        for key in TABLE_KEYS:
            batch = _table_batch(key, round_index)
            payload = _payload(codec, batch, ERROR_BOUND, key=key if keyed else None, pool=pool)
            digest.update(len(payload).to_bytes(8, "little") + payload)
            digest.update(_cache_state(codec).encode())
    return digest.hexdigest(), codec


STATEFUL_CASES = [
    (kind, keyed, pooled)
    for kind in ("auto", "lz", "huffman", "entropy")
    for keyed, pooled in ((True, False), (True, True), (False, False), (False, True))
]

# --------------------------------------------------------------------- golden

#: sha256 over the four ``_stateless_batches`` payloads; the recorder
#: produced the same digest for ``compress`` and ``compress_into``
GOLDEN_STATELESS: dict[str, str] = {
    "count_sum": "cc3fe2a91fdafd848c6ddeb39f35661beb61c67eb9b184612be1abdacf8b89bc",
    "cusz_like": "8ac63160131acc88d81f62830edc70cdfc393e6d6805588bb1f72a12cd38c426",
    "deflate_like": "eca283ab7337ca526ab189dec51025aae59d66115f9dd0f2057c5b045d60ee2b",
    "entropy": "c2de665c63d0efd03a4995991d39479cd31378045e19be357c3ef48dd9af7c6b",
    "fp16": "1a09858da6f8efdf5203ad67cdc0c99f920428f670e2db9c82483436a038278a",
    "fp8": "32932d8a546d039d2a71bf0b16c05e331293b3d3f8864f2f358fb5b29e86291c",
    "fzgpu_like": "100f2cc7cf6bb731bf4d1a1c01a600c4902cee14c3c48457e29ff213d8f18bcd",
    "hybrid": "c502fa8b4a6936cbea4748cc92a77e2a3f45ffd70a7ade0f81d93275a4683f12",
    "lz4_like": "f53a436dd783f45f0b8cb753146ecab0909d307e694d8ce0efa2c1054b1f3a7a",
    "quant_sum": "1722299d0b829f846b9974909f85b98f0ceaddfdd548188590151753420e0f6e",
    "vector_lz": "03054039b2d5c00ca341e17fe6c4685c16ff8d6d8c1f62fb563487a073c73091",
    "zfp_like": "e521e2df52115aecb9d511c875afbb6f4193ba3995780f1e97a111c188be85d8",
}

#: sha256 over 12 rounds x 3 interleaved tables of payload + cache state,
#: keyed by ``(kind, keyed, pooled)``
GOLDEN_STATEFUL: dict[tuple[str, bool, bool], str] = {
    ("auto", True, False): "3bc7d999c8c6c9cdab3248aa6859dbb5220919b213c4f8f3a5206de5f6e7824b",
    ("auto", True, True): "3bc7d999c8c6c9cdab3248aa6859dbb5220919b213c4f8f3a5206de5f6e7824b",
    ("auto", False, False): "f01db7bf5ce9dd91fcc1f2dfc5e9dd54136a2086e3e6269f81c1f97576f45712",
    ("auto", False, True): "f01db7bf5ce9dd91fcc1f2dfc5e9dd54136a2086e3e6269f81c1f97576f45712",
    ("lz", True, False): "5455d3721187a4a5ec76138d6c7eb045927511f8ea47dc595f790fc269a3510d",
    ("lz", True, True): "5455d3721187a4a5ec76138d6c7eb045927511f8ea47dc595f790fc269a3510d",
    ("lz", False, False): "5455d3721187a4a5ec76138d6c7eb045927511f8ea47dc595f790fc269a3510d",
    ("lz", False, True): "5455d3721187a4a5ec76138d6c7eb045927511f8ea47dc595f790fc269a3510d",
    ("huffman", True, False): "b102255e910bfaf41617e2afb3d9196675d95f6c4f31d94822afc3c4f3445908",
    ("huffman", True, True): "b102255e910bfaf41617e2afb3d9196675d95f6c4f31d94822afc3c4f3445908",
    ("huffman", False, False): "d173c2eb962288ccd028ca7182bcf4154e7261472f4f87f50290d998b5328374",
    ("huffman", False, True): "d173c2eb962288ccd028ca7182bcf4154e7261472f4f87f50290d998b5328374",
    ("entropy", True, False): "d41b0f95306b55f2539d400a6730116b85af8b53f1a4eff20b202a69268326be",
    ("entropy", True, True): "d41b0f95306b55f2539d400a6730116b85af8b53f1a4eff20b202a69268326be",
    ("entropy", False, False): "2fa85b12af756db143ca070b1ccbdab9cda345c47618155a21c363c6a8fa4a24",
    ("entropy", False, True): "2fa85b12af756db143ca070b1ccbdab9cda345c47618155a21c363c6a8fa4a24",
}


class TestGoldenBytes:
    def test_every_registered_codec_is_pinned(self):
        assert set(GOLDEN_STATELESS) == set(available_compressors())

    @pytest.mark.parametrize("pooled", [False, True], ids=["plain", "pooled"])
    @pytest.mark.parametrize("name", available_compressors())
    def test_stateless_payloads_reproduce(self, name, pooled):
        assert _stateless_digest(name, pooled) == GOLDEN_STATELESS[name]

    @pytest.mark.parametrize("kind,keyed,pooled", STATEFUL_CASES)
    def test_stateful_payloads_and_cache_state_reproduce(self, kind, keyed, pooled):
        digest, _ = _stateful_digest(kind, keyed, pooled)
        assert digest == GOLDEN_STATEFUL[(kind, keyed, pooled)]

    def test_scenario_exercises_every_transition(self):
        """The oracle is only worth its digests if trials, replays, pin
        expiry, winner switches and every codebook-cache outcome occur."""
        _, hybrid = _stateful_digest("auto", True, False)
        assert hybrid.pins.trials >= 3 * 3  # first trial + >=2 expiries per table
        assert hybrid.pins.pinned_hits > hybrid.pins.trials
        winners = {hybrid.pins.pins[key].winner for key in ("dup", "gauss")}
        assert winners == {"lz", "huffman"}
        _, entropy = _stateful_digest("entropy", True, False)
        book = entropy.codebook_cache
        assert book.hits > 0 and book.misses == 3 and book.stale_refreshes > 0
        assert book.coverage_misses + book.shift_misses > 0
        _, unkeyed = _stateful_digest("auto", False, False)
        assert unkeyed.pins.trials == 0 and unkeyed._entropy.codebook_cache.misses == 0


class TestOneEntryPoint:
    @pytest.mark.parametrize("name", available_compressors())
    def test_pool_and_key_do_not_change_stateless_bytes(self, name):
        codec = get_compressor(name)
        bound = ERROR_BOUND if codec.error_bounded else None
        pool = BitstreamPool()
        for batch in _stateless_batches():
            plain = codec.compress(batch, bound)
            assert isinstance(plain, bytes)
            assert codec.compress(batch, bound, key="table") == plain
            with codec.compress(batch, bound, pool=pool) as lease:
                assert bytes(lease.view) == plain
            with codec.compress(batch, bound, key=7, pool=pool) as lease:
                assert bytes(lease.view) == plain
                assert np.array_equal(decompress_any(lease.view), decompress_any(plain))
        assert pool.stats.live == 0

    def test_pooled_steady_state_reuses_arenas(self):
        codec = _stateful_codec("auto")
        pool = BitstreamPool()
        batch = _table_batch("gauss", 0)
        codec.compress(batch, ERROR_BOUND, key="t", pool=pool).release()
        created = pool.stats.arenas_created
        for _ in range(10):
            codec.compress(batch, ERROR_BOUND, key="t", pool=pool).release()
        assert pool.stats.arenas_created == created

    def test_key_and_pool_are_keyword_only(self):
        codec = get_compressor("vector_lz")
        with pytest.raises(TypeError):
            codec.compress(_table_batch("dup", 0), ERROR_BOUND, "table")

    def test_hybrid_validates_on_every_route(self):
        batch = _table_batch("dup", 0)
        for kind in ("auto", "lz", "huffman"):
            codec = _stateful_codec(kind)
            for kwargs in ({}, {"key": "t"}, {"pool": BitstreamPool()}):
                with pytest.raises(ValueError, match="positive error_bound"):
                    codec.compress(batch, None, **kwargs)
                with pytest.raises(ValueError, match="2-D"):
                    codec.compress(batch[0], ERROR_BOUND, **kwargs)


class TestNoVariantSpellings:
    """Guard: the folded variants must not grow back."""

    def test_source_has_no_variant_definitions(self):
        banned = re.compile(r"def compress_(into|keyed|keyed_into)\b|_active_key")
        offenders = [
            f"{path}:{number}"
            for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)
        ]
        assert offenders == []

    def test_codecs_expose_only_compress_and_compress_stack(self):
        classes = {
            cls
            for name in available_compressors()
            for cls in type(get_compressor(name)).__mro__
            if issubclass(cls, Compressor)
        }
        for cls in classes:
            public = {
                attr for attr in vars(cls) if attr.startswith("compress") and callable(vars(cls)[attr])
            }
            assert public <= {"compress", "compress_stack"}, (cls, public)
        definers = {cls.__name__ for cls in classes if "compress" in vars(cls)}
        assert definers == {"Compressor", "HybridCompressor"}
