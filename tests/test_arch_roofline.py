"""Tests for the roofline analysis (Section IV-C memory provisioning)."""

import pytest

from repro.arch import (
    GemmShape,
    MirageConfig,
    gemm_intensity,
    gemm_traffic_bytes,
    mirage_bandwidth,
    roofline_point,
    workload,
    workload_roofline,
)
from repro.arch.roofline import BYTES_PER_VALUE
from repro.arch.workloads import TrainingGemm


@pytest.fixture
def config():
    return MirageConfig()


class TestTraffic:
    def test_single_tile_gemm_traffic(self, config):
        """A GEMM fitting one tile moves each operand once and each
        output through one read-modify-write."""
        gemm = GemmShape(m=32, k=16, n=8)
        got = gemm_traffic_bytes(gemm, config.v, config.g)
        want = (32 * 16 + 16 * 8 + 2 * 32 * 8) * BYTES_PER_VALUE
        assert got == want

    def test_row_tiling_restreams_inputs(self, config):
        small = gemm_traffic_bytes(GemmShape(32, 16, 8), config.v, config.g)
        tall = gemm_traffic_bytes(GemmShape(64, 16, 8), config.v, config.g)
        # Twice the rows: stationary doubles and streaming re-reads once
        # more, so traffic grows by more than 2x of the stationary part.
        assert tall > 1.5 * small

    def test_depth_tiling_multiplies_partials(self, config):
        shallow = gemm_traffic_bytes(GemmShape(32, 16, 8), config.v, config.g)
        deep = gemm_traffic_bytes(GemmShape(32, 64, 8), config.v, config.g)
        assert deep > shallow

    def test_intensity_positive(self, config):
        assert gemm_intensity(GemmShape(128, 256, 512), config.v, config.g) > 0


class TestBandwidth:
    def test_mirage_bandwidth_formula(self, config):
        want = (config.num_arrays * config.interleave_factor * 3
                * config.digital_clock_hz * config.v * BYTES_PER_VALUE)
        assert mirage_bandwidth(config) == want

    def test_line_width_override(self, config):
        assert mirage_bandwidth(config, line_words=1) == pytest.approx(
            mirage_bandwidth(config) / config.v
        )


class TestRooflinePoints:
    def test_attainable_never_exceeds_peak(self, config):
        for layer in workload("ResNet18"):
            for point in workload_roofline([layer], config):
                assert point.attainable <= point.peak_macs_per_s
                assert point.attainable > 0

    def test_design_point_is_balanced(self, config):
        """Section IV-C: the 10-way interleaving keeps the conv workloads
        essentially compute-bound — no GEMM loses more than a few percent
        to the digital side (VGG16's first weight-gradient GEMM grazes
        the ridge at ~0.97)."""
        for name in ("AlexNet", "ResNet18", "VGG16"):
            points = workload_roofline(workload(name), config)
            assert all(p.attainable > 0.95 * p.peak_macs_per_s for p in points)

    def test_starved_memory_binds_everything(self):
        starved = MirageConfig(interleave_factor=1)
        points = workload_roofline(workload("AlexNet"), starved)
        assert all(p.memory_bound for p in points)

    def test_point_metadata(self, config):
        tg = TrainingGemm(layer="conv1", role="fwd",
                          gemm=GemmShape(64, 363, 1024))
        point = roofline_point(tg, config)
        assert point.layer == "conv1" and point.role == "fwd"

    def test_partial_accumulation_caps_intensity(self, config):
        """FP32 read-accumulate-write of partials caps intensity near
        g / 8 MACs per byte — the mechanism behind Fig. 9's SRAM share."""
        gemm = GemmShape(m=2048, k=4096, n=2048)
        intensity = gemm_intensity(gemm, config.v, config.g)
        assert intensity < config.g / 8 * 1.1
