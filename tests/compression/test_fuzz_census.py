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

FLIPS = 150
TRUNCATIONS = 50
ERROR_BOUND = 1e-2
DECODE_SECONDS = 2
ADDRESS_SPACE = 2 << 30

#: bare ``ValueError``s in the census after the body-length checks; the
#: count may only fall
BARE_CEILING = 222


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

    from repro.compression import available_compressors, decompress_any, get_compressor
    from repro.compression.serialization import CorruptPayloadError

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


if __name__ == "__main__":
    print(json.dumps(census()))
