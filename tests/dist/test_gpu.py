"""Tests for the GPU cost model."""

from __future__ import annotations

import pytest

from repro.dist import A100_LIKE, GpuModel
from repro.dist.gpu import GATHER_EFFICIENCY, GEMM_EFFICIENCY, MEMCPY_BANDWIDTH, MEMORY_BANDWIDTH
from repro.utils.units import MB


class TestUtilization:
    def test_monotone_and_bounded(self):
        gpu = A100_LIKE
        sizes = [0, 1024, 64 * 1024, MB, 16 * MB, 256 * MB]
        series = [gpu.utilization(s) for s in sizes]
        assert series == sorted(series)
        assert all(gpu.min_utilization <= u < 1.0 for u in series)

    def test_floor_applies_to_tiny_kernels(self):
        gpu = GpuModel()
        assert gpu.min_utilization == 0.25
        assert gpu.utilization(0) == 0.25
        assert gpu.utilization(16) == 0.25

    def test_half_utilization_at_saturation_bytes(self):
        gpu = GpuModel(saturation_bytes=4 * MB)
        assert gpu.utilization(4 * MB) == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            A100_LIKE.utilization(-1)


class TestKernelPricing:
    def test_launch_overhead_floor(self):
        gpu = A100_LIKE
        assert gpu.throughput_kernel_time(0, 40e9) == pytest.approx(
            gpu.kernel_launch_overhead
        )

    def test_fused_kernel_beats_split_kernels(self):
        """One kernel over 2n bytes is cheaper than two kernels over n —
        the primitive behind the paper's buffer optimization."""
        gpu = A100_LIKE
        n = 4 * MB
        fused = gpu.throughput_kernel_time(2 * n, 40e9)
        split = 2 * gpu.throughput_kernel_time(n, 40e9)
        assert fused < split

    def test_time_monotone_in_bytes(self):
        gpu = A100_LIKE
        times = [gpu.throughput_kernel_time(s, 40e9) for s in (0, MB, 8 * MB, 64 * MB)]
        assert times == sorted(times)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            A100_LIKE.throughput_kernel_time(-1, 40e9)
        with pytest.raises(ValueError):
            A100_LIKE.throughput_kernel_time(MB, 0.0)

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
    def test_non_finite_bytes_rejected_not_priced(self, nbytes):
        with pytest.raises(ValueError, match="nbytes must be finite and >= 0"):
            A100_LIKE.throughput_kernel_time(nbytes, 1e9)
        with pytest.raises(ValueError, match="nbytes must be finite and >= 0"):
            A100_LIKE.memcpy_time(nbytes)
        with pytest.raises(ValueError, match="nbytes must be finite and >= 0"):
            A100_LIKE.utilization(nbytes)

    def test_memcpy_linear_no_launch(self):
        gpu = A100_LIKE
        assert gpu.memcpy_time(0) == 0.0
        assert gpu.memcpy_time(2 * MB) == pytest.approx(2 * gpu.memcpy_time(MB))


class TestTrainingStepPricing:
    def test_mlp_scales_with_batch(self):
        gpu = A100_LIKE
        sizes = (512, 1024, 512)
        assert gpu.mlp_time(4096, sizes) > gpu.mlp_time(64, sizes)

    def test_mlp_launch_bound_for_tiny_layers(self):
        gpu = A100_LIKE
        t = gpu.mlp_time(1, (2, 2))
        assert t == pytest.approx(gpu.kernel_launch_overhead, rel=1e-3)

    def test_memcpy_is_bytes_over_the_copy_bandwidth(self):
        for nbytes in (1.0, 3 * MB, 1e9):
            assert A100_LIKE.memcpy_time(nbytes) == nbytes / MEMCPY_BANDWIDTH

    def test_lookup_runs_at_the_derated_gather_bandwidth(self):
        gpu = GpuModel()
        nbytes = 4.0 * 512 * 32 * 3
        expected = gpu.kernel_launch_overhead + nbytes / (MEMORY_BANDWIDTH * GATHER_EFFICIENCY)
        assert gpu.lookup_time(512, 32, 3) == expected

    def test_gemms_run_at_the_fixed_efficiency(self):
        gpu = GpuModel()
        launch, flops = gpu.kernel_launch_overhead, gpu.flops
        layer = launch + 2.0 * 256 * 64 * 16 / (flops * GEMM_EFFICIENCY)
        assert gpu.mlp_time(256, (64, 16)) == layer
        assert gpu.interaction_time(256, 9, 16) == launch + 256.0 * 9 * 9 * 16 / (flops * GEMM_EFFICIENCY)

    def test_mlp_needs_two_widths(self):
        with pytest.raises(ValueError):
            A100_LIKE.mlp_time(32, (16,))

    def test_lookup_scales_with_tables_and_batch(self):
        gpu = A100_LIKE
        assert gpu.lookup_time(4096, 64, 26) > gpu.lookup_time(4096, 64, 1)
        assert gpu.lookup_time(4096, 64, 26) > gpu.lookup_time(256, 64, 26)

    def test_interaction_scales_with_features(self):
        gpu = A100_LIKE
        assert gpu.interaction_time(1024, 27, 64) > gpu.interaction_time(1024, 7, 64)


class TestConfiguration:
    def test_preset_is_frozen(self):
        with pytest.raises(Exception):
            A100_LIKE.flops = 1.0  # type: ignore[misc]

    def test_custom_overrides(self):
        gpu = GpuModel(name="small-kernels", saturation_bytes=4.0 * MB)
        assert gpu.name == "small-kernels"
        assert gpu.saturation_bytes == 4.0 * MB
        assert gpu.kernel_launch_overhead == A100_LIKE.kernel_launch_overhead

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GpuModel(saturation_bytes=0.0)
        with pytest.raises(TypeError):
            GpuModel(flops=1e13)  # the same on every device
