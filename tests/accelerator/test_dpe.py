"""Unit tests for the DPE-array compute model."""

import pytest

from repro.accelerator.dpe import DPEArrayConfig
from repro.supernet.layers import ConvLayerSpec, LayerKind


@pytest.fixture
def dpe():
    return DPEArrayConfig(kp=16, cp=9, dpe_size=9)


def conv(kind=LayerKind.CONV, in_ch=64, out_ch=128, k=3, hw=28, groups=1, stride=1):
    return ConvLayerSpec(
        name="l",
        kind=kind,
        in_channels=in_ch,
        out_channels=out_ch,
        kernel_size=k,
        input_hw=hw,
        stride=stride,
        groups=groups,
    )


class TestComputeCycles:
    def test_peak_macs(self, dpe):
        assert dpe.macs_per_cycle == 16 * 9 * 9

    def test_pool_layer_is_free(self, dpe):
        assert dpe.compute_cycles(conv(kind=LayerKind.POOL)) == 0

    def test_cycles_positive_for_conv(self, dpe):
        assert dpe.compute_cycles(conv()) > 0

    def test_cycles_at_least_ideal(self, dpe):
        layer = conv()
        ideal = layer.macs / dpe.macs_per_cycle
        assert dpe.compute_cycles(layer) >= ideal * 0.999

    def test_utilization_bounded(self, dpe):
        for layer in (conv(), conv(k=1), conv(kind=LayerKind.DEPTHWISE_CONV, in_ch=64, out_ch=64, groups=64)):
            assert 0.0 < dpe.utilization(layer) <= 1.0

    def test_more_kernels_more_cycles(self, dpe):
        assert dpe.compute_cycles(conv(out_ch=256)) > dpe.compute_cycles(conv(out_ch=64))

    def test_larger_kernel_more_cycles(self, dpe):
        assert dpe.compute_cycles(conv(k=7)) > dpe.compute_cycles(conv(k=3))

    def test_depthwise_utilization_lower_than_standard(self, dpe):
        dw = conv(kind=LayerKind.DEPTHWISE_CONV, in_ch=128, out_ch=128, groups=128)
        std = conv(in_ch=128, out_ch=128)
        assert dpe.utilization(dw) < dpe.utilization(std)

    def test_pointwise_channel_flattening(self, dpe):
        # 1x1 convs flatten channels across the 9 multipliers: a layer with
        # exactly cp*9 input channels should complete in ~out/kp passes/pixel.
        layer = conv(k=1, in_ch=dpe.cp * 9, out_ch=dpe.kp)
        assert dpe.compute_cycles(layer) == layer.output_hw**2

    def test_few_input_channels_use_spatial_parallelism(self, dpe):
        # The stem (3 input channels) should not waste the whole CP dimension.
        stem = conv(in_ch=3, out_ch=64, k=7, hw=224, stride=2)
        assert dpe.utilization(stem) > 0.2

    def test_effective_macs_consistent(self, dpe):
        # Achieved MACs per cycle: the layer's work over its cycles, capped at peak.
        layer = conv()
        assert dpe.utilization(layer) * dpe.macs_per_cycle == pytest.approx(
            min(dpe.macs_per_cycle, layer.macs / dpe.compute_cycles(layer))
        )

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            DPEArrayConfig(kp=0, cp=1)


class TestBandwidthDemands:
    def test_weight_demand_scales_with_array(self):
        small = DPEArrayConfig(kp=8, cp=8).demanded_weight_bytes_per_cycle()
        large = DPEArrayConfig(kp=16, cp=16).demanded_weight_bytes_per_cycle()
        assert large == 4 * small

    def test_iact_demand_scales_with_kernel(self, dpe):
        assert dpe.demanded_iact_bytes_per_cycle(kernel_size=5) > dpe.demanded_iact_bytes_per_cycle(kernel_size=3)

    def test_oact_production(self, dpe):
        assert dpe.produced_oact_bytes_per_cycle() == dpe.kp
