"""The one per-array encode entry point: ``compress(a, eb, *, key=)``.

The ``GOLDEN_STATELESS`` digests were recorded at the commit *before* the
``compress_into`` / ``compress_keyed`` / ``compress_keyed_into`` variants
were folded into ``compress`` (the old spellings driven through the same
seeded scenarios), so they pin payload bytes across the fold.  The
``GOLDEN_STATEFUL`` digests pin payload bytes *and* pin-state transitions
call for call; they were re-recorded at ``06298b5`` from that commit's own
output with its per-table Huffman codebook cache forced to miss, the
behaviour once the cache was deleted.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compression.base import Compressor
from repro.compression.entropy import EntropyCompressor
from repro.compression.hybrid import HybridCompressor
from repro.compression.registry import available_compressors, decompress_any, get_compressor
from repro.compression.serialization import frame_with_checksum, verify_checksum_frame

SEED = 20240914
ERROR_BOUND = 1e-2
ROUNDS = 12
TABLE_KEYS = ("dup", "gauss", "drift")


def _payload(codec, array, error_bound, key=None) -> bytes:
    """The call under test (the recorder substituted the old spellings)."""
    out = codec.compress(array, error_bound, key=key)
    assert isinstance(out, bytes)
    return out


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
    state: list = []
    pins = getattr(codec, "pins", None)
    if pins is not None:
        state += [pins.pinned_hits, pins.trials]
        state += sorted((k, p.winner, p.age) for k, p in pins.pins.items())
    return repr(state)


def _stateless_digest(name: str) -> str:
    codec = get_compressor(name)
    bound = ERROR_BOUND if codec.error_bounded else None
    digest = hashlib.sha256()
    for batch in _stateless_batches():
        payload = _payload(codec, batch, bound)
        digest.update(len(payload).to_bytes(8, "little") + payload)
    return digest.hexdigest()


def _stateful_codec(kind: str) -> Compressor:
    if kind == "entropy":
        return EntropyCompressor()
    return HybridCompressor(encoder=kind, pin_refresh=4)


def _stateful_digest(kind: str, keyed: bool) -> tuple[str, Compressor]:
    codec = _stateful_codec(kind)
    digest = hashlib.sha256()
    for round_index in range(ROUNDS):
        for key in TABLE_KEYS:
            batch = _table_batch(key, round_index)
            payload = _payload(codec, batch, ERROR_BOUND, key=key if keyed else None)
            digest.update(len(payload).to_bytes(8, "little") + payload)
            digest.update(_cache_state(codec).encode())
    return digest.hexdigest(), codec


STATEFUL_CASES = [(kind, keyed) for kind in ("auto", "lz", "huffman", "entropy") for keyed in (True, False)]

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

#: sha256 over 12 rounds x 3 interleaved tables of payload + pin state,
#: keyed by ``(kind, keyed)``
GOLDEN_STATEFUL: dict[tuple[str, bool], str] = {
    ("auto", True): "8c4519912f1017cf81771b8bb894f51fcc6266162afa77d4229b7a5d3b205fb6",
    ("auto", False): "8d97459d158c3e6d9b5ef4211a9edbe11ffc38f5aa0d6b32b4d0b9ca7cadc815",
    ("lz", True): "2b1732cf37c0e5720660e993883d29075a1f6bb21858b369d1e1ef93b00d58fa",
    ("lz", False): "2b1732cf37c0e5720660e993883d29075a1f6bb21858b369d1e1ef93b00d58fa",
    ("huffman", True): "f99bc249a60c1bdf4bbd13809eb0d2d612f59961fd29ebd3a523a8809f27accf",
    ("huffman", False): "f99bc249a60c1bdf4bbd13809eb0d2d612f59961fd29ebd3a523a8809f27accf",
    ("entropy", True): "3506254aff3c4be2cb4b288856a3646816f9aca33bf032aa1fa18ebc4e84102e",
    ("entropy", False): "3506254aff3c4be2cb4b288856a3646816f9aca33bf032aa1fa18ebc4e84102e",
}


class TestGoldenBytes:
    def test_every_registered_codec_is_pinned(self):
        assert set(GOLDEN_STATELESS) == set(available_compressors())

    @pytest.mark.parametrize("name", available_compressors())
    def test_stateless_payloads_reproduce(self, name):
        assert _stateless_digest(name) == GOLDEN_STATELESS[name]

    @pytest.mark.parametrize("kind,keyed", STATEFUL_CASES)
    def test_stateful_payloads_and_cache_state_reproduce(self, kind, keyed):
        digest, _ = _stateful_digest(kind, keyed)
        assert digest == GOLDEN_STATEFUL[(kind, keyed)]

    def test_scenario_exercises_every_transition(self):
        """The oracle is only worth its digests if trials, replays, pin
        expiry and winner switches occur; the pin cache is the one keyed
        state, so every route without it gives keyed bytes == unkeyed."""
        _, hybrid = _stateful_digest("auto", True)
        assert hybrid.pins.trials >= 3 * 3  # first trial + >=2 expiries per table
        assert hybrid.pins.pinned_hits > hybrid.pins.trials
        winners = {hybrid.pins.pins[key].winner for key in ("dup", "gauss")}
        assert winners == {"lz", "huffman"}
        _, unkeyed = _stateful_digest("auto", False)
        assert unkeyed.pins.trials == 0
        for kind in ("lz", "huffman", "entropy"):
            assert GOLDEN_STATEFUL[(kind, True)] == GOLDEN_STATEFUL[(kind, False)]


class TestOneEntryPoint:
    @pytest.mark.parametrize("name", available_compressors())
    def test_key_does_not_change_stateless_bytes(self, name):
        codec = get_compressor(name)
        bound = ERROR_BOUND if codec.error_bounded else None
        for batch in _stateless_batches():
            plain = codec.compress(batch, bound)
            assert isinstance(plain, bytes)
            assert codec.compress(batch, bound, key="table") == plain
            assert codec.compress(batch, bound, key=7) == plain

    @pytest.mark.parametrize("name", available_compressors())
    def test_payloads_survive_the_checksum_envelope(self, name):
        """The ``bytes`` that ``compress`` returns are what goes on the wire:
        framed, verified and decoded, they give the unframed decode."""
        codec = get_compressor(name)
        bound = ERROR_BOUND if codec.error_bounded else None
        for batch in _stateless_batches():
            payload = codec.compress(batch, bound)
            framed = frame_with_checksum(payload)
            assert type(payload) is bytes and type(framed) is bytes
            assert bytes(verify_checksum_frame(framed)) == payload
            plain = decompress_any(payload)
            assert plain.shape == batch.shape
            through_wire = decompress_any(framed)
            assert through_wire.dtype == plain.dtype
            np.testing.assert_array_equal(through_wire, plain)

    @pytest.mark.parametrize("kind,keyed", STATEFUL_CASES)
    def test_stateful_payloads_decode_without_the_encoder(self, kind, keyed):
        """Pinned-encoder replay never leaves a payload that needs the
        encoder's state: every one decodes on its own."""
        codec = _stateful_codec(kind)
        for round_index in range(ROUNDS):
            for key in TABLE_KEYS:
                batch = _table_batch(key, round_index)
                payload = codec.compress(batch, ERROR_BOUND, key=key if keyed else None)
                assert type(payload) is bytes
                decoded = decompress_any(payload)
                assert decoded.shape == batch.shape
                assert np.max(np.abs(decoded - batch)) <= ERROR_BOUND * (1 + 1e-6)

    def test_key_is_keyword_only(self):
        codec = get_compressor("vector_lz")
        with pytest.raises(TypeError):
            codec.compress(_table_batch("dup", 0), ERROR_BOUND, "table")

    def test_hybrid_validates_on_every_route(self):
        batch = _table_batch("dup", 0)
        for kind in ("auto", "lz", "huffman"):
            codec = _stateful_codec(kind)
            for kwargs in ({}, {"key": "t"}):
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


class TestNoPool:
    """Guard: codec payloads are ``bytes`` from compress to wire to shard
    storage.  The leased-arena tier is gone, and no API takes ``pool=``."""

    REMOVED = re.compile(
        r"\b(BitstreamPool|Lease|checkout_bytes|decompress_into|_allreduce_pool)\b|compression\.pool\b"
    )

    def test_source_mentions_no_removed_name(self):
        root = Path(repro.__file__).parent
        assert not (root / "compression" / "pool.py").exists()
        hits = [
            f"{path.relative_to(root)}:{number}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if self.REMOVED.search(line)
        ]
        assert hits == []

    @pytest.mark.parametrize("name", ["vector_lz", "entropy", "hybrid"])
    def test_compress_rejects_pool(self, name):
        with pytest.raises(TypeError, match="pool"):
            get_compressor(name).compress(_table_batch("dup", 0), ERROR_BOUND, key=0, pool=None)

    def test_frame_with_checksum_rejects_pool(self):
        from repro.compression.serialization import frame_with_checksum

        with pytest.raises(TypeError, match="pool"):
            frame_with_checksum(b"payload", pool=None)

    def test_compressed_all_reduce_rejects_pool(self):
        from repro.dist import ClusterSimulator

        arrays = [np.ones((2, 3), dtype=np.float32)] * 2
        with pytest.raises(TypeError, match="pool"):
            ClusterSimulator(2).comm.compressed_all_reduce(arrays, "count_sum", pool=None)

    def test_shard_server_rejects_pool(self):
        from repro.serve.shard_server import EmbeddingShardServer

        with pytest.raises(TypeError, match="pool"):
            EmbeddingShardServer({0: _table_batch("dup", 0)}, ERROR_BOUND, "vector_lz", pool=None)


class TestNoCodebookCache:
    """Guard: the entropy leg builds its book from the batch it encodes.
    The per-table codebook cache is gone, and no API takes its knobs."""

    REMOVED = re.compile(
        r"\b(TableCodebookCache|CachedCodebook|huffman_encode_with_book"
        r"|codebook_cache|codebook_refresh|SERVING_CODEBOOK_REFRESH)\b"
    )

    def test_source_mentions_no_removed_name(self):
        root = Path(repro.__file__).parent
        hits = [
            f"{path.relative_to(root)}:{number}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if self.REMOVED.search(line)
        ]
        assert hits == []

    @pytest.mark.parametrize("factory", [EntropyCompressor, HybridCompressor])
    def test_codecs_reject_codebook_cache(self, factory):
        with pytest.raises(TypeError, match="codebook_cache"):
            factory(codebook_cache=None)

    def test_pipeline_rejects_codebook_refresh(self):
        from repro.adaptive import AdaptiveController, OfflineAnalyzer
        from repro.train import CompressionPipeline

        plan = OfflineAnalyzer().analyze({0: _table_batch("gauss", 0)})
        with pytest.raises(TypeError, match="codebook_refresh"):
            CompressionPipeline(AdaptiveController(plan), codebook_refresh=8)
