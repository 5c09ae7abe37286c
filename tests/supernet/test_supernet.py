"""Unit tests for the SuperNet container."""

import pytest

from repro.supernet.supernet import ElasticConfig
from repro.supernet.subnet import SubNetConfig, max_subnet, min_subnet


class TestElasticConfig:
    def test_rejects_empty_choices(self):
        with pytest.raises(ValueError):
            ElasticConfig(depth_choices=(), expand_choices=(1.0,))

    def test_rejects_unsorted_choices(self):
        with pytest.raises(ValueError):
            ElasticConfig(depth_choices=(4, 2), expand_choices=(1.0,))

    def test_max_properties(self):
        cfg = ElasticConfig(depth_choices=(2, 3, 4), expand_choices=(0.2, 0.35), width_choices=(0.65, 1.0))
        assert cfg.max_depth == 4
        assert cfg.max_expand == 0.35
        assert cfg.max_width == 1.0

    def test_design_space_size(self):
        cfg = ElasticConfig(depth_choices=(2, 3), expand_choices=(0.2, 0.35))
        assert cfg.design_space_size(num_stages=4) == (2 * 2) ** 4


class TestSuperNet:
    def test_layer_names_unique(self, resnet50):
        names = resnet50.layer_names
        assert len(names) == len(set(names))

    def test_layer_lookup(self, resnet50):
        name = resnet50.layer_names[0]
        assert resnet50.layer(name).name == name

    def test_unknown_layer_raises(self, resnet50):
        with pytest.raises(KeyError):
            resnet50.layer("does.not.exist")

    def test_layer_index_ordering(self, resnet50):
        names = resnet50.layer_names
        indices = [resnet50.layer_index(n) for n in names]
        assert indices == sorted(indices)

    def test_max_weight_bytes_positive(self, resnet50, mobilenetv3):
        assert resnet50.max_weight_bytes > mobilenetv3.max_weight_bytes > 0

    def test_design_space_is_astronomical(self, resnet50):
        # The paper quotes >> 10^19 SubGraphs; the SubNet design space alone
        # should be large (thousands of configurations).
        assert resnet50.design_space_size() > 1_000

    def test_max_subnet_slices_cover_every_layer(self, resnet50):
        slices = max_subnet(resnet50).layer_slices
        assert set(slices) == set(resnet50.layer_names)
        assert all(
            (sl.kernels, sl.channels) == (sl.layer.out_channels, sl.layer.in_channels)
            for sl in slices.values()
        )

    def test_slices_for_validates_depth_count(self, resnet50):
        with pytest.raises(ValueError):
            resnet50.slices_for(depths=(2, 2), expand_ratio=0.35)

    def test_validate_config_rejects_bad_expand(self, resnet50):
        depths = tuple(s.depth_choices[0] for s in resnet50.stages)
        with pytest.raises(ValueError):
            resnet50.validate_config(depths, expand_ratio=0.9, width_mult=1.0)

    def test_validate_config_rejects_bad_width(self, resnet50):
        depths = tuple(s.depth_choices[0] for s in resnet50.stages)
        with pytest.raises(ValueError):
            resnet50.validate_config(depths, expand_ratio=0.35, width_mult=0.5)

    def test_served_configs_are_valid(self, resnet50, resnet50_subnets):
        for subnet in (min_subnet(resnet50), max_subnet(resnet50), *resnet50_subnets):
            config = subnet.config
            resnet50.validate_config(config.depths, config.expand_ratio, config.width_mult)

    def test_describe_contains_stage_info(self, resnet50):
        text = resnet50.describe()
        assert "stage1" in text
        assert "ofa_resnet50" in text

    def test_depth_reduces_layer_count(self, resnet50):
        shallow = resnet50.slices_for(depths=(2, 2, 2, 2), expand_ratio=0.35)
        deep = resnet50.slices_for(depths=(4, 4, 4, 4), expand_ratio=0.35)
        assert len(shallow) < len(deep)
