"""Unit tests for ConvLayerSpec and LayerSlice."""

import math

import pytest

from repro.supernet.layers import ConvLayerSpec, LayerKind, LayerSlice


def make_conv(**overrides):
    defaults = dict(
        name="conv",
        kind=LayerKind.CONV,
        in_channels=64,
        out_channels=128,
        kernel_size=3,
        input_hw=56,
        stride=1,
    )
    defaults.update(overrides)
    return ConvLayerSpec(**defaults)


class TestConvLayerSpec:
    def test_weight_count_standard_conv(self):
        layer = make_conv()
        assert layer.weight_count == 128 * 64 * 9

    def test_weight_bytes_int8(self):
        layer = make_conv()
        assert layer.weight_bytes == layer.weight_count  # 8 bits -> 1 byte each

    def test_weight_bytes_scale_with_bitwidth(self):
        w8 = make_conv(weight_bits=8).weight_bytes
        w16 = make_conv(weight_bits=16).weight_bytes
        assert w16 == 2 * w8

    def test_depthwise_weight_count(self):
        layer = make_conv(
            kind=LayerKind.DEPTHWISE_CONV, in_channels=64, out_channels=64, groups=64
        )
        assert layer.weight_count == 64 * 9

    def test_linear_weight_count(self):
        layer = make_conv(kind=LayerKind.LINEAR, in_channels=2048, out_channels=1000, kernel_size=1, input_hw=1)
        assert layer.weight_count == 2048 * 1000

    def test_macs_standard_conv(self):
        layer = make_conv()
        assert layer.macs == 56 * 56 * 128 * 64 * 9

    def test_flops_is_twice_macs(self):
        layer = make_conv()
        assert layer.flops == 2 * layer.macs

    def test_output_hw_with_stride(self):
        layer = make_conv(stride=2)
        assert layer.output_hw == 28

    def test_output_hw_rounds_up(self):
        layer = make_conv(input_hw=7, stride=2)
        assert layer.output_hw == 4

    def test_pool_has_no_macs(self):
        layer = make_conv(kind=LayerKind.POOL)
        assert layer.macs == 0
        assert layer.arithmetic_intensity() == 0.0

    def test_activation_bytes(self):
        layer = make_conv()
        assert layer.input_act_bytes == 64 * 56 * 56
        assert layer.output_act_bytes == 128 * 56 * 56

    def test_arithmetic_intensity_positive(self):
        layer = make_conv()
        ai = layer.arithmetic_intensity()
        assert ai == pytest.approx(layer.flops / layer.total_data_bytes)

    def test_arithmetic_intensity_increases_with_caching(self):
        layer = make_conv()
        assert layer.arithmetic_intensity(cached_weight_bytes=layer.weight_bytes // 2) > layer.arithmetic_intensity()

    def test_arithmetic_intensity_cache_clamped(self):
        layer = make_conv()
        full = layer.arithmetic_intensity(cached_weight_bytes=10 * layer.weight_bytes)
        assert full == layer.arithmetic_intensity(cached_weight_bytes=layer.weight_bytes)

    def test_with_channels_depthwise_keeps_groups(self):
        layer = make_conv(
            kind=LayerKind.DEPTHWISE_CONV, in_channels=64, out_channels=64, groups=64
        )
        resized = layer.with_channels(32, 32)
        assert resized.groups == 32

    def test_invalid_channels_raise(self):
        with pytest.raises(ValueError):
            make_conv(in_channels=0)

    def test_invalid_groups_raise(self):
        with pytest.raises(ValueError):
            make_conv(in_channels=64, groups=7)

    def test_describe_mentions_name(self):
        assert "conv" in make_conv().describe()


class TestLayerSlice:
    def test_full_slice_matches_layer_bytes(self):
        layer = make_conv()
        sl = LayerSlice(layer=layer, kernels=layer.out_channels, channels=layer.in_channels)
        assert sl.weight_bytes == layer.weight_bytes

    def test_empty_slice(self):
        layer = make_conv()
        sl = LayerSlice(layer=layer, kernels=0, channels=10)
        assert sl.is_empty
        assert sl.weight_bytes == 0

    def test_partial_slice_bytes_scale(self):
        layer = make_conv()
        half = LayerSlice(layer=layer, kernels=64, channels=32)
        assert half.weight_bytes == 64 * 32 * 9

    def test_out_of_range_kernels_raise(self):
        layer = make_conv()
        with pytest.raises(ValueError):
            LayerSlice(layer=layer, kernels=layer.out_channels + 1, channels=1)

    def test_intersect_takes_minimum(self):
        layer = make_conv()
        a = LayerSlice(layer=layer, kernels=100, channels=30)
        b = LayerSlice(layer=layer, kernels=60, channels=64)
        inter = a.intersect(b)
        assert inter.kernels == 60
        assert inter.channels == 30

    def test_intersect_different_layers_raises(self):
        a = LayerSlice(layer=make_conv(name="a"), kernels=1, channels=1)
        b = LayerSlice(layer=make_conv(name="b"), kernels=1, channels=1)
        with pytest.raises(ValueError):
            a.intersect(b)

    def test_contains(self):
        # A slice contains another exactly when their intersection is the other.
        layer = make_conv()
        big = LayerSlice(layer=layer, kernels=128, channels=64)
        small = LayerSlice(layer=layer, kernels=64, channels=32)
        assert big.intersect(small) == small
        assert small.intersect(big) != big

    def test_depthwise_slice_bytes(self):
        layer = make_conv(
            kind=LayerKind.DEPTHWISE_CONV, in_channels=64, out_channels=64, groups=64
        )
        sl = LayerSlice(layer=layer, kernels=32, channels=64)
        assert sl.weight_bytes == 32 * 9
