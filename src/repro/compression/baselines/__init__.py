"""Baseline compressors the paper compares against.

Each is a from-scratch NumPy implementation of the same algorithm *family*
as the closed-source / CUDA original:

=================  ====================================================
``fp16``           half-precision cast (the low-precision baseline)
``fp8``            E4M3 8-bit float cast (SOTA low-precision baseline)
``lz4_like``       byte-oriented greedy LZ77, 4 KB window (nvCOMP-LZ4)
``deflate_like``   LZ77 + Huffman over the token stream (nvCOMP-Deflate)
``cusz_like``      Lorenzo prediction + quantization + Huffman (cuSZ)
``fzgpu_like``     quantization + bitshuffle + sparse bitplanes (FZ-GPU)
=================  ====================================================
"""

from repro.compression.baselines.cusz_like import CuszLikeCompressor
from repro.compression.baselines.fp import Fp8Compressor, Fp16Compressor
from repro.compression.baselines.fzgpu_like import FzGpuLikeCompressor
from repro.compression.baselines.lz_generic import (
    DeflateLikeCompressor,
    Lz4LikeCompressor,
)

__all__ = [
    "Fp16Compressor",
    "Fp8Compressor",
    "Lz4LikeCompressor",
    "DeflateLikeCompressor",
    "CuszLikeCompressor",
    "FzGpuLikeCompressor",
]
