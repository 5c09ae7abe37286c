"""Unit tests for StageSpec (elastic depth selection)."""

import pytest

from repro.supernet.blocks import BottleneckBlock
from repro.supernet.stages import HeadSpec, StageSpec, StemSpec
from repro.supernet.layers import ConvLayerSpec, LayerKind


def make_stage(num_blocks=4, min_depth=2):
    blocks = []
    for j in range(num_blocks):
        first = j == 0
        blocks.append(
            BottleneckBlock(
                name=f"stage1.block{j + 1}",
                in_channels=64 if first else 256,
                out_channels=256,
                input_hw=56,
                stride=1,
                max_expand_ratio=0.35,
                has_projection=first,
            )
        )
    return StageSpec(name="stage1", blocks=tuple(blocks), min_depth=min_depth)


class TestStageSpec:
    def test_depth_choices(self):
        stage = make_stage()
        assert stage.depth_choices == (2, 3, 4)

    def test_select_returns_prefix(self):
        stage = make_stage()
        selected = stage.select(3)
        assert [b.name for b in selected] == [
            "stage1.block1",
            "stage1.block2",
            "stage1.block3",
        ]

    def test_select_invalid_depth_raises(self):
        stage = make_stage()
        with pytest.raises(ValueError):
            stage.select(1)
        with pytest.raises(ValueError):
            stage.select(5)

    def test_materialize_layer_count_scales_with_depth(self):
        stage = make_stage()
        shallow = stage.materialize(depth=2, expand_ratio=0.35)
        deep = stage.materialize(depth=4, expand_ratio=0.35)
        assert len(deep) > len(shallow)

    def test_max_layers_covers_all_blocks(self):
        stage = make_stage()
        layers = stage.max_layers()
        block_names = {l.name.rsplit(".", 1)[0] for l in layers}
        assert block_names == {f"stage1.block{j}" for j in range(1, 5)}

    def test_in_out_channels(self):
        stage = make_stage()
        assert stage.in_channels == 64
        assert stage.out_channels == 256

    def test_min_depth_validation(self):
        with pytest.raises(ValueError):
            make_stage(min_depth=0)
        with pytest.raises(ValueError):
            make_stage(min_depth=5)

    def test_empty_stage_raises(self):
        with pytest.raises(ValueError):
            StageSpec(name="empty", blocks=())

    def test_stage_name(self):
        assert make_stage().name == "stage1"


class TestStemAndHead:
    def test_stem_weight_bytes(self):
        stem = StemSpec(
            layers=(
                ConvLayerSpec(
                    name="stem.conv",
                    kind=LayerKind.CONV,
                    in_channels=3,
                    out_channels=64,
                    kernel_size=7,
                    input_hw=224,
                    stride=2,
                ),
            )
        )
        assert stem.weight_bytes == 64 * 3 * 49

    def test_empty_head_has_zero_bytes(self):
        assert HeadSpec().weight_bytes == 0
