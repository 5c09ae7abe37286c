"""Unit tests for SubNet materialization, encoding and overlap."""

import numpy as np
import pytest

from repro.supernet.subnet import SubNet, SubNetConfig, max_subnet, min_subnet


class TestSubNetConstruction:
    def test_invalid_config_rejected(self, resnet50):
        config = SubNetConfig(depths=(2, 2, 2, 2), expand_ratio=0.9)
        with pytest.raises(ValueError):
            SubNet(resnet50, config)

    def test_min_subnet_smaller_than_max(self, resnet50):
        assert min_subnet(resnet50).weight_bytes < max_subnet(resnet50).weight_bytes

    def test_max_subnet_matches_supernet_bytes(self, resnet50):
        assert max_subnet(resnet50).weight_bytes == resnet50.max_weight_bytes

    def test_extreme_configs_stay_in_stage_depths(self, resnet50):
        for subnet in (min_subnet(resnet50), max_subnet(resnet50)):
            config = subnet.config
            assert all(
                stage.depth_choices[0] <= d <= stage.max_depth
                for d, stage in zip(config.depths, resnet50.stages)
            )

    def test_equality_and_hash(self, resnet50):
        a = min_subnet(resnet50)
        b = min_subnet(resnet50)
        assert a == b
        assert hash(a) == hash(b)

    def test_label_generation(self):
        config = SubNetConfig(depths=(2, 3), expand_ratio=0.25, width_mult=0.8)
        assert config.label() == "d23-e0.25-w0.8"
        named = SubNetConfig(depths=(2, 3), expand_ratio=0.25, name="A")
        assert named.label() == "A"


class TestSubNetQuantities:
    def test_weight_bytes_positive_and_monotone(self, resnet50_subnets):
        sizes = [sn.weight_bytes for sn in resnet50_subnets]
        assert all(s > 0 for s in sizes)
        assert sizes == sorted(sizes)

    def test_flops_monotone_across_family(self, resnet50_subnets):
        flops = [sn.flops for sn in resnet50_subnets]
        assert flops == sorted(flops)

    def test_active_layers_match_slices(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        assert len(subnet.active_layers()) == subnet.num_layers

    def test_active_layer_channels_respect_slices(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        for sl, layer in zip(subnet.ordered_slices, subnet.active_layers()):
            assert layer.out_channels == sl.kernels
            assert layer.in_channels == sl.channels

    def test_paper_size_ranges(self, resnet50_subnets, mobilenetv3_subnets):
        # Weight footprints should be in the same ballpark as the paper's
        # reported ranges (ResNet50 7.58-27.47 MB, MobV3 2.97-4.74 MB int8).
        r_min = resnet50_subnets[0].weight_bytes / 1e6
        r_max = resnet50_subnets[-1].weight_bytes / 1e6
        assert 3.0 < r_min < 12.0
        assert 20.0 < r_max < 35.0
        m_min = mobilenetv3_subnets[0].weight_bytes / 1e6
        m_max = mobilenetv3_subnets[-1].weight_bytes / 1e6
        assert 1.0 < m_min < 4.0
        assert 3.5 < m_max < 8.0


class TestSubNetEncoding:
    def test_encoding_dimension(self, resnet50, resnet50_subnets):
        vec = resnet50_subnets[0].encode()
        assert vec.shape == (2 * resnet50.num_layers,)

    def test_encoding_nonnegative(self, resnet50_subnets):
        assert np.all(resnet50_subnets[0].encode() >= 0)

    def test_larger_subnet_has_elementwise_geq_encoding(self, resnet50_subnets):
        small = resnet50_subnets[0].encode()
        large = resnet50_subnets[-1].encode()
        assert np.all(large >= small)

    def test_dropped_layers_encode_to_zero(self, resnet50, resnet50_subnets):
        small = resnet50_subnets[0]
        vec = small.encode()
        active = set(small.layer_names)
        for name in resnet50.layer_names:
            idx = resnet50.layer_index(name)
            if name not in active:
                assert vec[2 * idx] == 0 and vec[2 * idx + 1] == 0


class TestSharedBytes:
    def test_shared_bytes_symmetric(self, resnet50_subnets):
        a, b = resnet50_subnets[0], resnet50_subnets[-1]
        assert a.shared_bytes_with(b) == b.shared_bytes_with(a)

    def test_shared_bytes_bounded_by_smaller(self, resnet50_subnets):
        a, b = resnet50_subnets[0], resnet50_subnets[-1]
        assert a.shared_bytes_with(b) <= min(a.weight_bytes, b.weight_bytes)

    def test_self_sharing_is_full(self, resnet50_subnets):
        a = resnet50_subnets[2]
        assert a.shared_bytes_with(a) == a.weight_bytes

    def test_cross_supernet_sharing_raises(self, resnet50_subnets, mobilenetv3_subnets):
        with pytest.raises(ValueError):
            resnet50_subnets[0].shared_bytes_with(mobilenetv3_subnets[0])
