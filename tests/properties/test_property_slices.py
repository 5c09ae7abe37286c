"""Property-based tests on layer slices and SubGraph intersection invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.supernet.layers import ConvLayerSpec, LayerKind, LayerSlice

LAYER = ConvLayerSpec(
    name="prop.conv",
    kind=LayerKind.CONV,
    in_channels=128,
    out_channels=256,
    kernel_size=3,
    input_hw=28,
)

kernels = st.integers(min_value=0, max_value=LAYER.out_channels)
channels = st.integers(min_value=0, max_value=LAYER.in_channels)


def slice_of(k, c):
    return LayerSlice(layer=LAYER, kernels=k, channels=c)


class TestSliceProperties:
    @given(kernels, channels)
    def test_bytes_bounded_by_layer(self, k, c):
        assert 0 <= slice_of(k, c).weight_bytes <= LAYER.weight_bytes

    @given(kernels, channels, kernels, channels)
    def test_intersection_commutative(self, k1, c1, k2, c2):
        a, b = slice_of(k1, c1), slice_of(k2, c2)
        ab, ba = a.intersect(b), b.intersect(a)
        assert ab.kernels == ba.kernels and ab.channels == ba.channels

    @given(kernels, channels, kernels, channels)
    def test_intersection_bounded_by_operands(self, k1, c1, k2, c2):
        a, b = slice_of(k1, c1), slice_of(k2, c2)
        inter = a.intersect(b)
        assert inter.weight_bytes <= min(a.weight_bytes, b.weight_bytes)
        assert a.intersect(inter) == inter and b.intersect(inter) == inter

    @given(kernels, channels)
    def test_intersection_idempotent(self, k, c):
        a = slice_of(k, c)
        same = a.intersect(a)
        assert same.kernels == a.kernels and same.channels == a.channels

    @given(kernels, channels, kernels, channels, kernels, channels)
    def test_intersection_associative(self, k1, c1, k2, c2, k3, c3):
        a, b, c = slice_of(k1, c1), slice_of(k2, c2), slice_of(k3, c3)
        left = a.intersect(b).intersect(c)
        right = a.intersect(b.intersect(c))
        assert left.kernels == right.kernels and left.channels == right.channels

    @given(kernels, channels, kernels, channels)
    def test_bytes_monotone_in_slice(self, k1, c1, k2, c2):
        small = slice_of(min(k1, k2), min(c1, c2))
        big = slice_of(max(k1, k2), max(c1, c2))
        assert small.weight_bytes <= big.weight_bytes


class TestLayerArithmetic:
    @given(
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=1, max_value=512),
        st.sampled_from([1, 3, 5, 7]),
        st.sampled_from([7, 14, 28, 56]),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=60)
    def test_macs_and_bytes_consistent(self, in_ch, out_ch, k, hw, stride):
        layer = ConvLayerSpec(
            name="gen", kind=LayerKind.CONV, in_channels=in_ch, out_channels=out_ch,
            kernel_size=k, input_hw=hw, stride=stride,
        )
        assert layer.flops == 2 * layer.macs
        assert layer.weight_bytes == math.ceil(layer.weight_count * layer.weight_bits / 8)
        assert layer.output_hw == max(1, math.ceil(hw / stride))
        # Arithmetic intensity with full caching never decreases.
        assert layer.arithmetic_intensity(cached_weight_bytes=layer.weight_bytes) >= layer.arithmetic_intensity()
