"""Error-bounded lossy compression for DLRM all-to-all traffic.

The paper's primary contribution: a hybrid compressor (error-bounded
quantization + vector-based LZ or optimized Huffman, selected per table)
plus from-scratch implementations of every baseline it compares against.
"""

from repro.compression.base import Compressor, parse_payload
from repro.compression.cache import LruCache
from repro.compression.baselines import (
    CuszLikeCompressor,
    DeflateLikeCompressor,
    Fp8Compressor,
    Fp16Compressor,
    FzGpuLikeCompressor,
    Lz4LikeCompressor,
    ZfpLikeCompressor,
)
from repro.compression.entropy import EntropyCompressor
from repro.compression.homomorphic import (
    CountSumCompressor,
    HomomorphicCompressor,
    QuantSumCompressor,
    agg_fold,
    agg_sum,
    homomorphic_codecs,
)
from repro.compression.hybrid import HybridCompressor
from repro.compression.metrics import (
    CodecEvaluation,
    communication_speedup,
    compression_ratio,
    evaluate_codec,
    max_abs_error,
)
from repro.compression.quantizer import QuantizedBatch, quantize, quantize_batch
from repro.compression.registry import (
    available_compressors,
    decompress_any,
    get_compressor,
    register_compressor,
)
from repro.compression.serialization import (
    CorruptPayloadError,
    frame_with_checksum,
    has_checksum,
    verify_checksum_frame,
)
from repro.compression.vector_lz import VectorLZCompressor

__all__ = [
    "Compressor",
    "parse_payload",
    "HybridCompressor",
    "VectorLZCompressor",
    "EntropyCompressor",
    "Fp16Compressor",
    "Fp8Compressor",
    "Lz4LikeCompressor",
    "DeflateLikeCompressor",
    "CuszLikeCompressor",
    "FzGpuLikeCompressor",
    "ZfpLikeCompressor",
    "HomomorphicCompressor",
    "QuantSumCompressor",
    "CountSumCompressor",
    "agg_sum",
    "agg_fold",
    "homomorphic_codecs",
    "quantize",
    "quantize_batch",
    "QuantizedBatch",
    "compression_ratio",
    "communication_speedup",
    "max_abs_error",
    "CodecEvaluation",
    "evaluate_codec",
    "get_compressor",
    "register_compressor",
    "available_compressors",
    "decompress_any",
    "LruCache",
    "CorruptPayloadError",
    "frame_with_checksum",
    "has_checksum",
    "verify_checksum_frame",
]
