"""The robustness census: every registered codec against one fixed fuzz.

The recipe is the one the ROADMAP's robustness contract states:

* every registered codec;
* one 64x32 float32 block (54 normal(0, 0.1) rows, then the first 10
  again) at eb 1e-2;
* 150 single-bit flips and 50 truncations per codec, seed 0;
* each decode under a 2 s alarm, the whole census under ``RLIMIT_AS``
  of 2 GiB.

Every corruption is classed by what ``decompress_any`` does with it:
``typed`` (``CorruptPayloadError``), ``bare`` (any other ``ValueError``),
``untyped`` (any other exception, ``MemoryError`` included), ``hang`` (the
alarm fired), ``wrong`` (a decode off the declared shape, or beyond eb for
an error-bounded codec, or different from the clean decode for the rest)
and ``harmless``.  The census runs in a subprocess, so the address-space
limit and the alarm cannot reach the test process.  Run this file
directly (``PYTHONPATH=src python tests/compression/test_fuzz_census.py``)
to print the census as JSON.

Beside the random census, deterministic cases pin the frame-level
corruptions a seeded draw may never hit: every single-bit flip of the magic
byte, the empty payload and an unregistered codec name each raise
``CorruptPayloadError``, through ``decompress_any`` and through the codec's
own ``decompress``.  A well-formed frame of another registered codec stays a
plain ``ValueError``: that is the caller's misuse, not corruption.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.compression import available_compressors, decompress_any, get_compressor
from repro.compression.base import parse_payload
from repro.compression.serialization import CorruptPayloadError

FLIPS = 150
TRUNCATIONS = 50
ERROR_BOUND = 1e-2
DECODE_SECONDS = 2
ADDRESS_SPACE = 2 << 30

#: bare ``ValueError``s in the census: none since element counts and the
#: Huffman peek width are checked before ``reshape`` / allocation; the count
#: may only fall
BARE_CEILING = 0

#: silently wrong decodes in the census: none since every frame carries a
#: CRC32 of all its bytes (1 434 of 2 000 before); the count may only fall
WRONG_CEILING = 0


class _Hang(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Hang


def _block() -> np.ndarray:
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 0.1, size=(54, 32)).astype(np.float32)
    return np.concatenate([rows, rows[:10]])


def _corruptions(payload: bytes):
    rng = np.random.default_rng(0)
    for _ in range(FLIPS):
        bit = int(rng.integers(len(payload) * 8))
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)
    for _ in range(TRUNCATIONS):
        yield payload[: int(rng.integers(len(payload)))]


def census() -> dict:
    """Run the recipe in this process; ``{"outcomes": {codec: {class: n}},
    "bare": {message: n}, "untyped": [...], "hangs": [...]}``."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _on_alarm)
    block = _block()
    outcomes: dict[str, Counter] = {}
    bare: Counter = Counter()
    untyped: list[str] = []
    hangs: list[str] = []
    for name in available_compressors():
        codec = get_compressor(name)
        payload = codec.compress(block, ERROR_BOUND if codec.error_bounded else None)
        clean = decompress_any(payload)
        tally = outcomes[name] = Counter()
        for i, mangled in enumerate(_corruptions(payload)):
            signal.alarm(DECODE_SECONDS)
            try:
                decoded = decompress_any(mangled)
            except _Hang:
                tally["hang"] += 1
                hangs.append(f"{name} #{i}")
                continue
            except CorruptPayloadError:
                tally["typed"] += 1
                continue
            except ValueError as exc:
                tally["bare"] += 1
                bare[re.sub(r"\d+", "N", str(exc))[:80]] += 1
                continue
            except Exception as exc:
                tally["untyped"] += 1
                untyped.append(f"{name} #{i}: {type(exc).__name__}: {exc}"[:160])
                continue
            finally:
                signal.alarm(0)
            if decoded.shape != block.shape:
                wrong = True
            elif codec.error_bounded:
                wrong = not np.abs(decoded.astype(np.float64) - block).max() <= ERROR_BOUND
            else:
                wrong = not np.array_equal(decoded, clean, equal_nan=True)
            tally["wrong" if wrong else "harmless"] += 1
    return {
        "outcomes": {name: dict(t) for name, t in outcomes.items()},
        "bare": dict(bare.most_common()),
        "untyped": untyped,
        "hangs": hangs,
    }


def test_census():
    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=600
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    totals = sum((Counter(t) for t in result["outcomes"].values()), Counter())
    print(json.dumps({"totals": dict(totals), **result}, indent=1))
    assert sum(totals.values()) == len(result["outcomes"]) * (FLIPS + TRUNCATIONS)
    assert result["untyped"] == []
    assert result["hangs"] == []
    assert totals["bare"] <= BARE_CEILING, result["bare"]
    assert totals["wrong"] <= WRONG_CEILING, result["outcomes"]


def _payload(name: str) -> bytes:
    codec = get_compressor(name)
    return codec.compress(_block(), ERROR_BOUND if codec.error_bounded else None)


def _frame_corruptions(payload: bytes):
    """All eight single-bit flips of the magic byte, then the 0-byte
    truncation."""
    for bit in range(8):
        yield bytes([payload[0] ^ (1 << bit)]) + payload[1:]
    yield payload[:0]


@pytest.mark.parametrize("name", available_compressors())
def test_a_flipped_magic_byte_or_an_empty_payload_is_corrupt(name):
    codec = get_compressor(name)
    for mangled in _frame_corruptions(_payload(name)):
        with pytest.raises(CorruptPayloadError):
            decompress_any(mangled)
        with pytest.raises(CorruptPayloadError):
            codec.decompress(mangled)


@pytest.mark.parametrize("name", available_compressors())
def test_an_unregistered_codec_name_is_corrupt(name):
    """One flipped bit in the frame's codec name (``vector_lz`` becomes
    ``vector_l{``, say), under a valid CRC32, names no registered codec."""
    from tests.compression.frames import seal  # not importable where the census runs alone

    payload = _payload(name)
    at = len(parse_payload(payload)[0].codec)  # the name's last byte (it starts at byte 1)
    mangled = seal(payload[:at] + bytes([payload[at] ^ 1]) + payload[at + 1 :])
    assert parse_payload(mangled)[0].codec not in available_compressors()
    with pytest.raises(CorruptPayloadError, match="not registered"):
        decompress_any(mangled)
    with pytest.raises(CorruptPayloadError, match="not registered"):
        get_compressor(name).decompress(mangled)


@pytest.mark.parametrize("name", ["vector_lz", "hybrid", "fp16"])
def test_another_registered_codecs_frame_is_a_plain_value_error(name):
    other = _payload("lz4_like")
    with pytest.raises(ValueError, match="lz4_like") as raised:
        get_compressor(name).decompress(other)
    assert not isinstance(raised.value, CorruptPayloadError)


if __name__ == "__main__":
    print(json.dumps(census()))
