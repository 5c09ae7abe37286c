"""Unit tests for the weight store and shared-weight accounting."""

import pytest

from repro.supernet.subnet import max_subnet, min_subnet
from repro.supernet.weights import SharedWeightIndex, WeightStore


class TestWeightStore:
    def test_total_bytes_matches_supernet(self, resnet50):
        store = WeightStore(resnet50)
        assert store.total_bytes == resnet50.max_weight_bytes

    def test_extents_are_disjoint_and_ordered(self, resnet50):
        store = WeightStore(resnet50)
        extents = [store.extent(name) for name in resnet50.layer_names]
        for prev, nxt in zip(extents, extents[1:]):
            assert prev.end <= nxt.offset

    def test_subnet_bytes_matches_subnet(self, resnet50):
        store = WeightStore(resnet50)
        subnet = min_subnet(resnet50)
        assert sum(ext.nbytes for ext in store.subnet_extents(subnet)) == subnet.weight_bytes

    def test_slice_extent_is_prefix(self, resnet50):
        store = WeightStore(resnet50)
        subnet = min_subnet(resnet50)
        for sl in subnet.ordered_slices:
            ext = store.slice_extent(sl)
            base = store.extent(sl.layer.name)
            assert ext.offset == base.offset
            assert ext.nbytes <= base.nbytes

    def test_unknown_layer_raises(self, resnet50):
        store = WeightStore(resnet50)
        with pytest.raises(KeyError):
            store.extent("nope")

    def test_slice_extent_bytes_match_slice(self, mobilenetv3):
        store = WeightStore(mobilenetv3)
        for sl in min_subnet(mobilenetv3).ordered_slices:
            assert store.slice_extent(sl).nbytes == sl.weight_bytes


class TestSharedWeightIndex:
    def test_shared_bytes_close_to_min_subnet(self, resnet50_subnets):
        # OFA weight prefixes mean the family intersection is essentially the
        # smallest SubNet (paper: shared 7.55 MB vs min SubNet 7.58 MB).
        idx = SharedWeightIndex(resnet50_subnets)
        smallest = min(sn.weight_bytes for sn in resnet50_subnets)
        assert idx.shared_bytes() == pytest.approx(smallest, rel=0.05)

    def test_pairwise_sharing_is_symmetric(self, resnet50_subnets):
        for a in resnet50_subnets:
            for b in resnet50_subnets:
                assert a.shared_bytes_with(b) == b.shared_bytes_with(a)

    def test_self_sharing_is_subnet_size(self, resnet50_subnets):
        for sn in resnet50_subnets:
            assert sn.shared_bytes_with(sn) == sn.weight_bytes

    def test_sharing_fraction_near_one(self, mobilenetv3_subnets):
        idx = SharedWeightIndex(mobilenetv3_subnets)
        assert 0.8 <= idx.sharing_fraction() <= 1.0

    def test_summary_keys(self, resnet50_subnets):
        summary = SharedWeightIndex(resnet50_subnets).summary()
        assert {"num_subnets", "min_subnet_mb", "max_subnet_mb", "shared_mb"} <= set(summary)

    def test_mixed_supernets_rejected(self, resnet50_subnets, mobilenetv3_subnets):
        with pytest.raises(ValueError):
            SharedWeightIndex([resnet50_subnets[0], mobilenetv3_subnets[0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SharedWeightIndex([])

    def test_weight_sharing_saves_memory(self, resnet50, resnet50_subnets):
        # Storing the family without sharing costs far more than the SuperNet.
        assert sum(sn.weight_bytes for sn in resnet50_subnets) > resnet50.max_weight_bytes
