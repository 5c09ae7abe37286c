"""Unit tests for the per-layer dataflow latency model."""

import pytest

from repro.accelerator.dataflow import layer_latency
from repro.accelerator.dpe import DPEArrayConfig
from repro.accelerator.dram import DRAMModel
from repro.supernet.layers import ConvLayerSpec, LayerKind


@pytest.fixture
def dpe():
    return DPEArrayConfig(kp=24, cp=30)


@pytest.fixture
def dram():
    return DRAMModel(bandwidth_gbps=19.2, clock_mhz=100.0)


def conv(in_ch=512, out_ch=512, k=3, hw=14, kind=LayerKind.CONV, groups=1):
    return ConvLayerSpec(
        name="l", kind=kind, in_channels=in_ch, out_channels=out_ch,
        kernel_size=k, input_hw=hw, groups=groups,
    )


class TestLayerLatency:
    def test_total_is_sum_of_components(self, dpe, dram):
        ll = layer_latency(conv(), dpe, dram)
        assert ll.total_cycles == pytest.approx(
            ll.compute_cycles
            + ll.exposed_iact_cycles
            + ll.exposed_weight_cycles
            + ll.exposed_oact_cycles
            + ll.onchip_weight_cycles
        )

    def test_pool_layer_is_free(self, dpe, dram):
        ll = layer_latency(conv(kind=LayerKind.POOL), dpe, dram)
        assert ll.total_cycles == 0.0

    def test_caching_reduces_latency(self, dpe, dram):
        layer = conv()
        base = layer_latency(layer, dpe, dram)
        cached = layer_latency(layer, dpe, dram, cached_weight_bytes=layer.weight_bytes)
        assert cached.total_cycles < base.total_cycles

    def test_caching_reduces_offchip_bytes(self, dpe, dram):
        layer = conv()
        base = layer_latency(layer, dpe, dram)
        cached = layer_latency(layer, dpe, dram, cached_weight_bytes=layer.weight_bytes)
        assert cached.offchip_bytes == pytest.approx(base.offchip_bytes - layer.weight_bytes)

    def test_cached_bytes_clamped(self, dpe, dram):
        layer = conv()
        over = layer_latency(layer, dpe, dram, cached_weight_bytes=10 * layer.weight_bytes)
        assert over.cached_weight_bytes == layer.weight_bytes

    def test_latency_monotone_in_cached_bytes(self, dpe, dram):
        layer = conv()
        latencies = [
            layer_latency(layer, dpe, dram, cached_weight_bytes=frac * layer.weight_bytes).total_cycles
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(latencies, latencies[1:]))

    def test_first_layer_pays_iact_fetch(self, dpe, dram):
        layer = conv()
        interior = layer_latency(layer, dpe, dram, sb_capacity_bytes=10**9)
        first = layer_latency(layer, dpe, dram, sb_capacity_bytes=10**9, is_first_layer=True)
        assert first.offchip_bytes > interior.offchip_bytes

    def test_last_layer_pays_oact_writeback(self, dpe, dram):
        layer = conv()
        interior = layer_latency(layer, dpe, dram, ob_capacity_bytes=10**9)
        last = layer_latency(layer, dpe, dram, ob_capacity_bytes=10**9, is_last_layer=True)
        assert last.offchip_bytes > interior.offchip_bytes

    def test_activation_spill_when_sb_too_small(self, dpe, dram):
        layer = conv(hw=56, in_ch=256)
        fits = layer_latency(layer, dpe, dram, sb_capacity_bytes=10**9)
        spills = layer_latency(layer, dpe, dram, sb_capacity_bytes=1024)
        assert spills.offchip_bytes > fits.offchip_bytes

    def test_lower_bandwidth_increases_exposure(self, dpe):
        layer = conv()
        fast = layer_latency(layer, dpe, DRAMModel(bandwidth_gbps=38.4, clock_mhz=100))
        slow = layer_latency(layer, dpe, DRAMModel(bandwidth_gbps=4.8, clock_mhz=100))
        assert slow.exposed_weight_cycles > fast.exposed_weight_cycles

    def test_full_overlap_hides_most_weight_traffic(self, dpe, dram):
        layer = conv()
        none = layer_latency(layer, dpe, dram, weight_overlap_fraction=0.0)
        full = layer_latency(layer, dpe, dram, weight_overlap_fraction=1.0)
        assert full.exposed_weight_cycles <= none.exposed_weight_cycles

    def test_invalid_overlap_fraction_rejected(self, dpe, dram):
        with pytest.raises(ValueError):
            layer_latency(conv(), dpe, dram, weight_overlap_fraction=1.5)

    def test_memory_bound_flag(self, dpe):
        # A tiny-compute, huge-weight layer on a slow interface is memory bound.
        layer = conv(in_ch=2048, out_ch=1000, k=1, hw=1, kind=LayerKind.LINEAR)
        slow = DRAMModel(bandwidth_gbps=1.0, clock_mhz=100)
        # Exposed memory time (everything but compute) outweighs compute.
        latency = layer_latency(layer, dpe, slow)
        assert latency.total_cycles - latency.compute_cycles > latency.compute_cycles
