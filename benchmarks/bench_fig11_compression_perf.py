"""Fig. 11 — compression ratio, throughput, and communication speedup.

The paper's headline compressor comparison: average compression ratio over
training-sampled lookups on both datasets, modelled device throughputs,
and the Eq.-2 end-to-end communication speedup at a 4 GB/s all-to-all
(ours: 11.2x / 19.9x CR and 6.22x / 8.6x speedup on Kaggle / Terabyte).

Shape targets: the hybrid compressor has the highest ratio and the highest
Eq.-2 speedup on both datasets; FZ-GPU-like has the highest throughput but
a much lower ratio; the generic byte-LZ baselines trail far behind;
Terabyte ratios exceed Kaggle ratios (bigger batches -> more matches).
"""

from __future__ import annotations

import numpy as np

from repro.adaptive import PAPER_A100_PROFILE
from repro.compression import get_compressor
from repro.utils import GB, format_table

from conftest import write_result

ERROR_BOUND = 0.02  # the paper's fixed global bound for this comparison
BANDWIDTH = 4 * GB
CODECS = (
    "hybrid",
    "vector_lz",
    "entropy",
    "cusz_like",
    "fzgpu_like",
    "lz4_like",
    "deflate_like",
    "fp16",
    "fp8",
)


def _evaluate(world) -> dict[str, dict[str, float]]:
    from repro.compression.base import parse_payload

    results: dict[str, dict[str, float]] = {}
    for name in CODECS:
        codec = get_compressor(name)
        original = 0
        compressed = 0
        # The hybrid runs each table on its winning leg, so its compute cost
        # is that leg's throughput for that table's bytes; accumulate the
        # compressed-transfer time per table instead of using one profile.
        transfer_seconds = 0.0
        for batch in world.samples.values():
            payload = codec.compress(batch, ERROR_BOUND if codec.error_bounded else None)
            original += batch.nbytes
            compressed += len(payload)
            leg = parse_payload(payload)[0].codec if name == "hybrid" else name
            throughput = PAPER_A100_PROFILE.for_codec(leg)
            transfer_seconds += (
                len(payload) / BANDWIDTH
                + batch.nbytes / throughput.compress
                + batch.nbytes / throughput.decompress
            )
        ratio = original / compressed
        throughput = PAPER_A100_PROFILE.for_codec(name)
        results[name] = {
            "ratio": ratio,
            "tc": throughput.compress,
            "td": throughput.decompress,
            # Eq. 2 on the aggregate: baseline wire time over compressed
            # pipeline time (identical to communication_speedup for a
            # single-leg codec).
            "speedup": (original / BANDWIDTH) / transfer_seconds,
        }
    return results


def test_fig11_compression_performance(both_worlds, benchmark):
    all_results = {world.name: _evaluate(world) for world in both_worlds}

    sections = []
    for world_name, results in all_results.items():
        rows = [
            (
                name,
                f"{r['ratio']:.2f}x",
                f"{r['tc'] / GB:.1f}",
                f"{r['td'] / GB:.1f}",
                f"{r['speedup']:.2f}x",
            )
            for name, r in sorted(results.items(), key=lambda kv: -kv[1]["speedup"])
        ]
        sections.append(
            format_table(
                ["codec", "avg CR", "Tc (GiB/s, modelled)", "Td (GiB/s, modelled)", "Eq.2 speedup @4GB/s"],
                rows,
                title=f"Fig. 11 - compression performance ({world_name} world, EB {ERROR_BOUND})",
            )
        )
    write_result("fig11_compression_perf", "\n\n".join(sections))

    for world_name, results in all_results.items():
        best_ratio = max(results.values(), key=lambda r: r["ratio"])["ratio"]
        # The hybrid has the best ratio and (near-)best Eq.-2 speedup; the
        # "auto" hybrid optimizes payload size per table, so a pure
        # vector-LZ run can edge it by a hair when the entropy leg's slower
        # decode outweighs its ratio gain.
        assert results["hybrid"]["ratio"] == best_ratio, world_name
        best_speedup = max(r["speedup"] for r in results.values())
        assert results["hybrid"]["speedup"] >= 0.95 * best_speedup, world_name
        # Paper: ours lands at 11.2x (Kaggle) / 19.9x (Terabyte): same regime.
        assert 5.0 < results["hybrid"]["ratio"] < 80.0, world_name
        # Error-bounded lossy beats the lossless byte-LZ baselines by a lot.
        assert results["hybrid"]["ratio"] > 3 * results["lz4_like"]["ratio"], world_name
        assert results["hybrid"]["ratio"] > 3 * results["deflate_like"]["ratio"], world_name
        # FZ-GPU-like: fastest device throughput, clearly lower ratio.
        assert results["fzgpu_like"]["tc"] >= max(
            r["tc"] for n, r in results.items() if n not in ("fp16", "fp8")
        )
        assert results["fzgpu_like"]["ratio"] < results["hybrid"]["ratio"] / 1.5
        # Communication speedup of ours exceeds the low-precision casts'.
        assert results["hybrid"]["speedup"] > results["fp16"]["speedup"]
        assert results["hybrid"]["speedup"] > results["fp8"]["speedup"]

    # Terabyte (batch 2048) compresses better than Kaggle (batch 128):
    # the paper's 19.9x vs 11.2x ordering.
    assert (
        all_results["terabyte"]["hybrid"]["ratio"]
        > all_results["kaggle"]["hybrid"]["ratio"]
    )

    hybrid = get_compressor("hybrid")
    batch = both_worlds[0].samples[0]
    benchmark.pedantic(lambda: hybrid.compress(batch, ERROR_BOUND), rounds=10, iterations=1)
