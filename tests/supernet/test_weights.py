"""Unit tests for weight footprints and shared-weight accounting.

OFA sorts important kernels and channels first, so a SubNet's layer slice
is a prefix of its maximal layer's weights, and a Pareto family shares
about its smallest SubNet (paper: shared 7.55 MB vs min SubNet 7.58 MB
for ResNet50).
"""

import pytest

from repro.supernet.subnet import min_subnet


def family_shared_bytes(subnets) -> int:
    """Weight bytes every SubNet of ``subnets`` shares: the per-layer
    intersection over the whole family."""
    common = dict(subnets[0].layer_slices)
    for subnet in subnets[1:]:
        slices = subnet.layer_slices
        shared = {}
        for name, sl in common.items():
            other = slices.get(name)
            if other is not None and not (inter := sl.intersect(other)).is_empty:
                shared[name] = inter
        common = shared
    return sum(sl.weight_bytes for sl in common.values())


class TestWeightFootprints:
    def test_total_bytes_matches_supernet(self, resnet50):
        assert sum(layer.weight_bytes for layer in resnet50.max_layers) == (
            resnet50.max_weight_bytes
        )

    def test_layers_are_ordered_and_unique(self, resnet50):
        names = resnet50.layer_names
        assert len(set(names)) == len(names)
        assert [resnet50.layer_index(name) for name in names] == list(range(len(names)))

    def test_subnet_bytes_matches_subnet(self, resnet50):
        subnet = min_subnet(resnet50)
        assert sum(sl.weight_bytes for sl in subnet.ordered_slices) == subnet.weight_bytes

    @pytest.mark.parametrize("family", ["resnet50", "mobilenetv3"])
    def test_slices_are_prefixes_of_their_layers(self, family, request):
        supernet = request.getfixturevalue(family)
        for sl in min_subnet(supernet).ordered_slices:
            assert sl.layer is supernet.layer(sl.layer.name)
            assert 0 < sl.weight_bytes <= sl.layer.weight_bytes

    def test_unknown_layer_raises(self, resnet50):
        with pytest.raises(KeyError):
            resnet50.layer("nope")


class TestFamilySharing:
    def test_shared_bytes_close_to_min_subnet(self, resnet50_subnets):
        # OFA weight prefixes mean the family intersection is essentially the
        # smallest SubNet.
        smallest = min(sn.weight_bytes for sn in resnet50_subnets)
        assert family_shared_bytes(resnet50_subnets) == pytest.approx(smallest, rel=0.05)

    def test_pairwise_sharing_is_symmetric(self, resnet50_subnets):
        for a in resnet50_subnets:
            for b in resnet50_subnets:
                assert a.shared_bytes_with(b) == b.shared_bytes_with(a)

    def test_self_sharing_is_subnet_size(self, resnet50_subnets):
        for sn in resnet50_subnets:
            assert sn.shared_bytes_with(sn) == sn.weight_bytes

    def test_sharing_fraction_near_one(self, mobilenetv3_subnets):
        smallest = min(sn.weight_bytes for sn in mobilenetv3_subnets)
        assert 0.8 <= family_shared_bytes(mobilenetv3_subnets) / smallest <= 1.0

    def test_pairwise_sharing_bounds_the_family(self, resnet50_subnets):
        shared = family_shared_bytes(resnet50_subnets)
        for a in resnet50_subnets:
            for b in resnet50_subnets:
                assert shared <= a.shared_bytes_with(b)

    def test_weight_sharing_saves_memory(self, resnet50, resnet50_subnets):
        # Storing the family without sharing costs far more than the SuperNet.
        assert sum(sn.weight_bytes for sn in resnet50_subnets) > resnet50.max_weight_bytes
