"""The one per-array encode entry point: ``compress(array, error_bound)``.

The ``GOLDEN_STATELESS`` digests were recorded at the commit *before* the
``compress_into`` / ``compress_keyed`` / ``compress_keyed_into`` variants
were folded into ``compress`` (the old spellings driven through the same
seeded scenarios), so they pin payload bytes across the fold.  The
``GOLDEN_INTERLEAVED`` digests pin the payload bytes of three tables
interleaved over twelve rounds; they were re-recorded at ``06298b5`` from
that commit's own output with its per-table Huffman codebook cache forced
to miss, the behaviour once the cache was deleted.  The recorder hashed
each payload followed by the codec's state as text: :data:`RECORDED_STATE`
replays it.  Both tables were re-recorded once more when frames moved from
a varint header dictionary to a fixed prelude and per-codec tail: every
payload's header bytes changed, and every decoded array stayed
bit-identical.  They were re-recorded once more when the CRC32 joined the
prelude, from the parent commit's payloads with the four CRC bytes
inserted at byte 26 (the digests of the new encoder's payloads are the
same): every other byte is unchanged.

Every codec is stateless: a payload depends on the array and the error
bound alone, so encoding other arrays in between never changes it.
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
from repro.compression.serialization import CorruptPayloadError, frame_with_checksum

SEED = 20240914
ERROR_BOUND = 1e-2
ROUNDS = 12
TABLE_KEYS = ("dup", "gauss", "drift")


def _payload(codec, array, error_bound) -> bytes:
    """The call under test (the recorder substituted the old spellings)."""
    out = codec.compress(array, error_bound)
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
    its value range."""
    rng = np.random.default_rng([SEED, round_index, TABLE_KEYS.index(key)])
    lz_friendly = key == "dup" or (key == "drift" and (round_index // 5) % 2 == 0)
    scale = 0.05 * (1 + round_index // 4) if key == "drift" else 0.05
    if lz_friendly:
        distinct = rng.normal(scale=scale, size=(3, 8)).astype(np.float32)
        return distinct[rng.integers(0, 3, size=64)]
    return _gauss(rng, scale)


def _stateless_digest(name: str) -> str:
    codec = get_compressor(name)
    bound = ERROR_BOUND if codec.error_bounded else None
    digest = hashlib.sha256()
    for batch in _stateless_batches():
        payload = _payload(codec, batch, bound)
        digest.update(len(payload).to_bytes(8, "little") + payload)
    return digest.hexdigest()


def _interleaved_codec(kind: str) -> Compressor:
    return EntropyCompressor() if kind == "entropy" else HybridCompressor()


def _interleaved_digest(kind: str) -> str:
    codec = _interleaved_codec(kind)
    digest = hashlib.sha256()
    for round_index in range(ROUNDS):
        for key in TABLE_KEYS:
            payload = _payload(codec, _table_batch(key, round_index), ERROR_BOUND)
            digest.update(len(payload).to_bytes(8, "little") + payload)
            digest.update(RECORDED_STATE[kind])
    return digest.hexdigest()


INTERLEAVED_KINDS = ("hybrid", "entropy")

#: the state text the recorder hashed after every payload: the hybrid
#: codec's encoder-pin counters, zero on these runs (no call passed a
#: table key), and nothing for the entropy codec
RECORDED_STATE = {"hybrid": b"[0, 0]", "entropy": b"[]"}

# --------------------------------------------------------------------- golden

#: sha256 over the four ``_stateless_batches`` payloads; the recorder
#: produced the same digest for ``compress`` and ``compress_into``
GOLDEN_STATELESS: dict[str, str] = {
    "cusz_like": "caff7de308d6622bda345df2798948927eec1b4259b720b8d2fa84dd1816f942",
    "deflate_like": "d3262fd47a2aaddf1def5b536a17f4cf2e8e57373b4dabc9c10ce2378ed7f8f4",
    "entropy": "68826cf382d693135ebfb1b593b17edb9a2c41bc4d035d5566d35e035824e29b",
    "fp16": "f0c4f5b6a8a39016bb15437dab201a015f5a2e3a06485aaced709ffda676770a",
    "fp8": "69f340a5fdba063522b9d417ceac711d53942a71127aa03f31b0a52c07849580",
    "fzgpu_like": "af63ede3043a504ac60430058f71839ab299eecebd89d6dd8164795d196ee006",
    "hybrid": "fa934e54465b340a5b369e09801d1f5f6ed278fcd1131c7e49a2e38fcc32a2c1",
    "lz4_like": "d5505b825dadee27b4559edcb987d680a59aa699a379ed7fdcc94ce24818f2ea",
    "quant_sum": "c28f27e7b33f44c6f5f3ddedea1a264b4b5d734c4c81d81b81ae1e8c851be144",
    "vector_lz": "e8c527b95c1b8899acd9eeef73681a692759b3b211528bd78583e9f4d8c60d61",
}

#: sha256 over 12 rounds x 3 interleaved tables of payload + recorded state
GOLDEN_INTERLEAVED: dict[str, str] = {
    "hybrid": "438f79fbe2dfe4fd2dd534fe467558b78a6c217b305b8fa6f3f3f286cc3b1e02",
    "entropy": "7ab16a73cf64c8d1cf907fe45b68950a18ef7b036386a02c96172b2010a57657",
}


class TestGoldenBytes:
    def test_every_registered_codec_is_pinned(self):
        assert set(GOLDEN_STATELESS) == set(available_compressors())

    @pytest.mark.parametrize("name", available_compressors())
    def test_stateless_payloads_reproduce(self, name):
        assert _stateless_digest(name) == GOLDEN_STATELESS[name]

    @pytest.mark.parametrize("kind", INTERLEAVED_KINDS)
    def test_interleaved_table_payloads_reproduce(self, kind):
        assert _interleaved_digest(kind) == GOLDEN_INTERLEAVED[kind]


class TestStateless:
    """Every registered codec is a pure function of ``(array, error_bound)``."""

    @pytest.mark.parametrize("name", available_compressors())
    def test_a_b_a_repeats_a_and_matches_a_fresh_instance(self, name):
        """One instance encodes A, then B, then A: both A payloads are
        equal, and equal to a fresh instance's."""
        codec = get_compressor(name)
        bound = ERROR_BOUND if codec.error_bounded else None
        batches = _stateless_batches()
        for a, b in zip(batches, batches[1:] + batches[:1]):
            first = codec.compress(a, bound)
            codec.compress(b, bound)
            again = codec.compress(a, bound)
            assert first == again == get_compressor(name).compress(a, bound)

    @pytest.mark.parametrize("name", available_compressors())
    def test_compress_takes_no_key(self, name):
        codec = get_compressor(name)
        bound = ERROR_BOUND if codec.error_bounded else None
        with pytest.raises(TypeError, match="key"):
            codec.compress(_table_batch("dup", 0), bound, key=0)

    def test_hybrid_takes_no_pin_refresh(self):
        with pytest.raises(TypeError, match="pin_refresh"):
            HybridCompressor(pin_refresh=4)

    def test_source_mentions_no_removed_name(self):
        root = Path(repro.__file__).parent
        removed = re.compile(
            r"\b(EncoderPin|EncoderPinCache|pin_refresh|serving_codec|serving_codec_pool"
            r"|SERVING_PIN_REFRESH|PIN_REFRESH)\b|hybrid_pin"
        )
        hits = [
            f"{path.relative_to(root)}:{number}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if removed.search(line)
        ]
        assert hits == []


class TestOneEntryPoint:
    @pytest.mark.parametrize("name", available_compressors())
    def test_compressed_bytes_are_the_checked_wire_frame(self, name):
        """The ``bytes`` that ``compress`` returns are what goes on the
        wire: they decode as they are, from any buffer, and one flipped
        bit past the magic byte fails their CRC32."""
        codec = get_compressor(name)
        bound = ERROR_BOUND if codec.error_bounded else None
        for batch in _stateless_batches():
            payload = codec.compress(batch, bound)
            assert type(payload) is bytes
            plain = decompress_any(payload)
            assert plain.shape == batch.shape
            through_view = decompress_any(memoryview(bytearray(payload)))
            assert through_view.dtype == plain.dtype
            np.testing.assert_array_equal(through_view, plain)
            flipped = bytearray(payload)
            flipped[len(payload) // 2] ^= 0x10
            with pytest.raises(CorruptPayloadError, match="checksum mismatch"):
                decompress_any(bytes(flipped))

    @pytest.mark.parametrize("kind", INTERLEAVED_KINDS)
    def test_interleaved_payloads_decode_without_the_encoder(self, kind):
        """Every payload decodes on its own, within the bound."""
        codec = _interleaved_codec(kind)
        for round_index in range(ROUNDS):
            for key in TABLE_KEYS:
                batch = _table_batch(key, round_index)
                payload = codec.compress(batch, ERROR_BOUND)
                assert type(payload) is bytes
                decoded = decompress_any(payload)
                assert decoded.shape == batch.shape
                assert np.max(np.abs(decoded - batch)) <= ERROR_BOUND * (1 + 1e-6)

    def test_error_bound_is_the_last_positional(self):
        codec = get_compressor("vector_lz")
        with pytest.raises(TypeError):
            codec.compress(_table_batch("dup", 0), ERROR_BOUND, "table")

    def test_hybrid_validates_its_input(self):
        batch = _table_batch("dup", 0)
        codec = HybridCompressor()
        with pytest.raises(ValueError, match="positive error_bound"):
            codec.compress(batch, None)
        with pytest.raises(ValueError, match="2-D"):
            codec.compress(batch[0], ERROR_BOUND)


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
            get_compressor(name).compress(_table_batch("dup", 0), ERROR_BOUND, pool=None)

    def test_frame_with_checksum_rejects_pool(self):
        with pytest.raises(TypeError, match="pool"):
            frame_with_checksum([bytearray(30)], pool=None)

    def test_compressed_all_reduce_rejects_pool(self):
        from repro.dist import ClusterSimulator

        arrays = [np.ones((2, 3), dtype=np.float32)] * 2
        with pytest.raises(TypeError, match="pool"):
            ClusterSimulator(2).comm.compressed_all_reduce(arrays, ERROR_BOUND, pool=None)

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
        # EntropyCompressor takes no arguments at all: Python's message for
        # it does not repeat the keyword
        with pytest.raises(TypeError, match="codebook_cache|takes no arguments"):
            factory(codebook_cache=None)

    def test_pipeline_rejects_codebook_refresh(self):
        from repro.adaptive import AdaptiveController, OfflineAnalyzer
        from repro.train import CompressionPipeline

        plan = OfflineAnalyzer().analyze({0: _table_batch("gauss", 0)})
        with pytest.raises(TypeError, match="codebook_refresh"):
            CompressionPipeline(AdaptiveController(plan), codebook_refresh=8)
