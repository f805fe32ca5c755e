"""Offline compressor selection (Algorithm 2).

For each embedding table, sampled lookups are compressed with every
candidate encoder; the winner maximizes the Eq.-2 communication speedup —
not the raw compression ratio — so a fast encoder with a slightly lower
ratio can win on a fast network, and vice versa.

Throughputs come from a :class:`DeviceThroughputProfile`: Python wall-clock
is not a GPU, so the profile carries *modelled* device throughputs
calibrated to the numbers the paper reports for each codec family
(Section IV-C).  Profiles are plain data and can be re-calibrated for a
different device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.base import Compressor
from repro.compression.metrics import communication_speedup, compression_ratio
from repro.utils.units import GB
from repro.utils.validation import check_positive

__all__ = [
    "CodecThroughput",
    "DeviceThroughputProfile",
    "PAPER_A100_PROFILE",
    "CandidateResult",
    "SelectionResult",
    "select_compressor",
]


@dataclass(frozen=True)
class CodecThroughput:
    """Modelled device throughputs for one codec, bytes/second."""

    compress: float
    decompress: float

    def __post_init__(self) -> None:
        check_positive("compress", self.compress)
        check_positive("decompress", self.decompress)


@dataclass(frozen=True)
class DeviceThroughputProfile:
    """Per-codec modelled throughputs for a device.

    ``PAPER_A100_PROFILE`` carries the A100 numbers published in the paper
    (vector-LZ 40.5/205.4 GB/s, optimized Huffman 78.4/38.9 GB/s, FZ-GPU
    >136 GB/s both ways, nvCOMP-Deflate 30.1/109.7 GB/s); codecs the paper
    does not time are set to documented estimates of their family's
    published GPU throughput.
    """

    codecs: dict[str, CodecThroughput] = field(default_factory=dict)
    #: used when a codec has no entry
    default: CodecThroughput = field(
        init=False, default=CodecThroughput(compress=20.0 * GB, decompress=20.0 * GB)
    )

    def for_codec(self, name: str) -> CodecThroughput:
        return self.codecs.get(name, self.default)


PAPER_A100_PROFILE = DeviceThroughputProfile(
    codecs={
        # Paper, Section IV-C (measured on A100).
        "vector_lz": CodecThroughput(compress=40.5 * GB, decompress=205.4 * GB),
        "entropy": CodecThroughput(compress=78.4 * GB, decompress=38.9 * GB),
        "fzgpu_like": CodecThroughput(compress=136.0 * GB, decompress=136.0 * GB),
        "deflate_like": CodecThroughput(compress=30.1 * GB, decompress=109.7 * GB),
        # Estimates for families the paper references but does not time:
        # nvCOMP-LZ4 sits between Deflate and FZ-GPU on published nvCOMP
        # numbers; cuSZ's PACT'20 paper reports tens of GB/s end to end.
        "lz4_like": CodecThroughput(compress=60.0 * GB, decompress=120.0 * GB),
        "cusz_like": CodecThroughput(compress=28.0 * GB, decompress=60.0 * GB),
        # Precision casts are bandwidth-bound elementwise kernels.
        "fp16": CodecThroughput(compress=600.0 * GB, decompress=600.0 * GB),
        "fp8": CodecThroughput(compress=600.0 * GB, decompress=600.0 * GB),
        # The hybrid pays the slower leg's cost bound; selection normally
        # scores its two legs separately.
        "hybrid": CodecThroughput(compress=40.5 * GB, decompress=38.9 * GB),
    }
)


@dataclass(frozen=True)
class CandidateResult:
    """One candidate's measured ratio and modelled speedup on a sample."""

    codec: str
    ratio: float
    speedup: float
    compressed_nbytes: int


@dataclass(frozen=True)
class SelectionResult:
    """Algorithm 2's outcome for one table."""

    best: str
    candidates: tuple[CandidateResult, ...]


def select_compressor(
    sample: np.ndarray,
    candidates: dict[str, Compressor],
    error_bound: float,
    bandwidth: float,
    profile: DeviceThroughputProfile = PAPER_A100_PROFILE,
) -> SelectionResult:
    """Algorithm 2: pick the candidate maximizing Eq.-2 speedup on ``sample``.

    Parameters
    ----------
    sample:
        Sampled lookups from one table, shape ``(batch, dim)``.
    candidates:
        Codec name -> compressor instance; each is run on the sample.
    bandwidth:
        All-to-all network bandwidth in bytes/s (the ``B`` of Eq. 2).
    """
    if not candidates:
        raise ValueError("need at least one candidate compressor")
    check_positive("bandwidth", bandwidth)
    sample = np.ascontiguousarray(sample)
    results = []
    for name, codec in candidates.items():
        payload = codec.compress(sample, error_bound if codec.error_bounded else None)
        ratio = compression_ratio(sample.nbytes, len(payload))
        throughput = profile.for_codec(name)
        speedup = communication_speedup(
            ratio, bandwidth, throughput.compress, throughput.decompress
        )
        results.append(
            CandidateResult(
                codec=name, ratio=ratio, speedup=speedup, compressed_nbytes=len(payload)
            )
        )
    results.sort(key=lambda r: (-r.speedup, r.codec))
    return SelectionResult(best=results[0].codec, candidates=tuple(results))
