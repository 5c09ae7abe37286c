"""Unit tests for elastic block materialization."""

import pytest

from repro.supernet.blocks import BottleneckBlock, MBConvBlock, validate_block_chain
from repro.supernet.layers import LayerKind


def block_weight_bytes(block, *, expand_ratio, width_mult=1.0):
    """Total weight bytes of a block at the given elastic configuration."""
    return sum(
        layer.weight_bytes
        for layer in block.materialize(expand_ratio=expand_ratio, width_mult=width_mult)
    )


@pytest.fixture
def bottleneck():
    return BottleneckBlock(
        name="stage1.block1",
        in_channels=64,
        out_channels=256,
        input_hw=56,
        stride=1,
        max_expand_ratio=0.35,
        has_projection=True,
    )


@pytest.fixture
def mbconv():
    return MBConvBlock(
        name="stage2.block1",
        in_channels=24,
        out_channels=40,
        input_hw=56,
        stride=2,
        kernel_size=5,
        max_expand_ratio=6.0,
        use_se=True,
    )


class TestBottleneckBlock:
    def test_materialize_layer_count_with_projection(self, bottleneck):
        layers = bottleneck.materialize(expand_ratio=0.35)
        assert len(layers) == 4  # conv1, conv2, conv3, shortcut

    def test_materialize_layer_count_without_projection(self):
        block = BottleneckBlock(
            name="b", in_channels=256, out_channels=256, input_hw=56, max_expand_ratio=0.35
        )
        assert len(block.materialize(expand_ratio=0.35)) == 3

    def test_smaller_expand_means_fewer_weights(self, bottleneck):
        small = block_weight_bytes(bottleneck, expand_ratio=0.2)
        large = block_weight_bytes(bottleneck, expand_ratio=0.35)
        assert small < large

    def test_width_mult_scales_weights(self, bottleneck):
        narrow = block_weight_bytes(bottleneck, expand_ratio=0.35, width_mult=0.65)
        full = block_weight_bytes(bottleneck, expand_ratio=0.35, width_mult=1.0)
        assert narrow < full

    def test_invalid_expand_raises(self, bottleneck):
        with pytest.raises(ValueError):
            bottleneck.materialize(expand_ratio=0.5)

    def test_layer_names_stable_across_expand(self, bottleneck):
        names_small = [l.name for l in bottleneck.materialize(expand_ratio=0.2)]
        names_large = [l.name for l in bottleneck.materialize(expand_ratio=0.35)]
        assert names_small == names_large

    def test_spatial_conv_has_stride(self, bottleneck):
        layers = {l.name: l for l in bottleneck.materialize(expand_ratio=0.35)}
        assert layers["stage1.block1.conv2"].kind == LayerKind.CONV

    def test_channels_rounded_to_multiple_of_8(self, bottleneck):
        layers = bottleneck.materialize(expand_ratio=0.2, width_mult=0.65)
        for layer in layers:
            assert layer.out_channels % 8 == 0 or layer.out_channels == 1000


class TestMBConvBlock:
    def test_contains_depthwise(self, mbconv):
        kinds = [l.kind for l in mbconv.materialize(expand_ratio=6.0)]
        assert LayerKind.DEPTHWISE_CONV in kinds

    def test_se_layers_present(self, mbconv):
        names = [l.name for l in mbconv.materialize(expand_ratio=6.0)]
        assert any("se_reduce" in n for n in names)
        assert any("se_expand" in n for n in names)

    def test_no_se_when_disabled(self):
        block = MBConvBlock(
            name="b", in_channels=24, out_channels=40, input_hw=56, max_expand_ratio=6.0
        )
        names = [l.name for l in block.materialize(expand_ratio=6.0)]
        assert not any("se_" in n for n in names)

    def test_expand_ratio_scales_mid_channels(self, mbconv):
        small = block_weight_bytes(mbconv, expand_ratio=3.0)
        large = block_weight_bytes(mbconv, expand_ratio=6.0)
        assert small < large

    def test_depthwise_groups_equal_channels(self, mbconv):
        layers = mbconv.materialize(expand_ratio=6.0)
        dw = next(l for l in layers if l.kind == LayerKind.DEPTHWISE_CONV)
        assert dw.groups == dw.in_channels == dw.out_channels

    def test_stride_applied_to_depthwise(self, mbconv):
        layers = mbconv.materialize(expand_ratio=6.0)
        dw = next(l for l in layers if l.kind == LayerKind.DEPTHWISE_CONV)
        assert dw.stride == 2

    def test_project_output_channels(self, mbconv):
        layers = mbconv.materialize(expand_ratio=4.0)
        project = next(l for l in layers if l.name.endswith("project"))
        assert project.out_channels == 40


class TestValidateBlockChain:
    def test_valid_chain_passes(self):
        blocks = [
            BottleneckBlock(name="b1", in_channels=64, out_channels=256, input_hw=56, max_expand_ratio=0.35),
            BottleneckBlock(name="b2", in_channels=256, out_channels=256, input_hw=56, max_expand_ratio=0.35),
        ]
        validate_block_chain(blocks)  # should not raise

    def test_channel_mismatch_raises(self):
        blocks = [
            BottleneckBlock(name="b1", in_channels=64, out_channels=256, input_hw=56, max_expand_ratio=0.35),
            BottleneckBlock(name="b2", in_channels=128, out_channels=256, input_hw=56, max_expand_ratio=0.35),
        ]
        with pytest.raises(ValueError, match="mismatch"):
            validate_block_chain(blocks)

    def test_resolution_mismatch_raises(self):
        blocks = [
            BottleneckBlock(name="b1", in_channels=64, out_channels=256, input_hw=56, stride=2, max_expand_ratio=0.35),
            BottleneckBlock(name="b2", in_channels=256, out_channels=256, input_hw=56, max_expand_ratio=0.35),
        ]
        with pytest.raises(ValueError, match="mismatch"):
            validate_block_chain(blocks)
