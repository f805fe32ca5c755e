"""Error-bounded lossy compression for DLRM all-to-all traffic.

The paper's primary contribution: a hybrid compressor (error-bounded
quantization + vector-based LZ or optimized Huffman, selected per table)
plus from-scratch implementations of every baseline it compares against.
"""

from repro.compression.base import Compressor, parse_payload
from repro.compression.cache import EncoderPinCache, LruCache, TableCodebookCache
from repro.compression.calibration import calibrate_profile
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
    composed_bound,
    homomorphic_codecs,
)
from repro.compression.hybrid import HybridCompressor
from repro.compression.metrics import (
    CodecEvaluation,
    communication_speedup,
    compression_ratio,
    evaluate_codec,
    max_abs_error,
    verify_error_bound,
)
from repro.compression.quantizer import QuantizedBatch, dequantize, quantize, quantize_batch
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
    "composed_bound",
    "homomorphic_codecs",
    "quantize",
    "dequantize",
    "quantize_batch",
    "QuantizedBatch",
    "compression_ratio",
    "communication_speedup",
    "max_abs_error",
    "verify_error_bound",
    "CodecEvaluation",
    "evaluate_codec",
    "get_compressor",
    "register_compressor",
    "available_compressors",
    "decompress_any",
    "calibrate_profile",
    "LruCache",
    "TableCodebookCache",
    "EncoderPinCache",
    "CorruptPayloadError",
    "frame_with_checksum",
    "has_checksum",
    "verify_checksum_frame",
]
