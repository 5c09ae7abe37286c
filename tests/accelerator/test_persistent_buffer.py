"""Unit tests for the Persistent Buffer and CachedSubGraph."""

import pytest

from repro.accelerator.persistent_buffer import CachedSubGraph, PersistentBuffer


class TestCachedSubGraph:
    def test_from_subnet_covers_subnet(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        sg = CachedSubGraph.from_subnet(subnet)
        assert sg.weight_bytes == subnet.weight_bytes
        assert sg.overlap_bytes(subnet) == subnet.weight_bytes

    def test_empty_subgraph(self, resnet50_subnets):
        sg = CachedSubGraph.empty()
        assert sg.weight_bytes == 0
        assert sg.overlap_bytes(resnet50_subnets[0]) == 0

    def test_overlap_bounded(self, resnet50_subnets):
        small, large = resnet50_subnets[0], resnet50_subnets[-1]
        sg = CachedSubGraph.from_subnet(small)
        assert sg.overlap_bytes(large) <= min(sg.weight_bytes, large.weight_bytes)

    def test_overlap_per_layer_sums_to_total(self, resnet50_subnets):
        small, large = resnet50_subnets[0], resnet50_subnets[-1]
        sg = CachedSubGraph.from_subnet(small)
        per_layer = sg.overlap_bytes_per_layer(large)
        assert sum(per_layer.values()) == sg.overlap_bytes(large)

    def test_encode_dimension(self, resnet50, resnet50_subnets):
        sg = CachedSubGraph.from_subnet(resnet50_subnets[0])
        assert sg.encode(resnet50).shape == (2 * resnet50.num_layers,)

    def test_layer_bytes_lookup(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        sg = CachedSubGraph.from_subnet(subnet)
        name = subnet.layer_names[0]
        assert sg.slices[name].weight_bytes == subnet.layer_slices[name].weight_bytes > 0
        assert "missing" not in sg.slices


class TestPersistentBuffer:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PersistentBuffer(-1)

    def test_load_within_capacity(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        pb = PersistentBuffer(subnet.weight_bytes + 1024)
        fetched = pb.load(CachedSubGraph.from_subnet(subnet))
        assert fetched == subnet.weight_bytes
        assert pb.occupancy_bytes == subnet.weight_bytes

    def test_fit_respects_capacity(self, resnet50_subnets):
        subnet = resnet50_subnets[-1]
        pb = PersistentBuffer(1024 * 1024)
        fitted = pb.fit_subgraph(CachedSubGraph.from_subnet(subnet))
        assert fitted.weight_bytes <= pb.capacity_bytes

    def test_fit_prefers_largest_layers(self, resnet50_subnets):
        subnet = resnet50_subnets[-1]
        pb = PersistentBuffer(2 * 1024 * 1024)
        fitted = pb.fit_subgraph(CachedSubGraph.from_subnet(subnet))
        kept_sizes = sorted((sl.weight_bytes for sl in fitted.slices.values()), reverse=True)
        all_sizes = sorted((sl.weight_bytes for sl in subnet.layer_slices.values()), reverse=True)
        # The single largest layer that fits must have been admitted.
        admissible = [s for s in all_sizes if s <= pb.capacity_bytes]
        if admissible:
            assert kept_sizes[0] == admissible[0]

    def test_reload_only_fetches_new_bytes(self, resnet50_subnets):
        small, large = resnet50_subnets[0], resnet50_subnets[1]
        pb = PersistentBuffer(10**9)
        first = pb.load(CachedSubGraph.from_subnet(small))
        second = pb.load(CachedSubGraph.from_subnet(large))
        assert first == small.weight_bytes
        # Only the delta between large and small needs to cross the interface.
        assert second == pytest.approx(large.weight_bytes - small.shared_bytes_with(large))

    def test_identical_reload_is_free(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        pb = PersistentBuffer(10**9)
        pb.load(CachedSubGraph.from_subnet(subnet))
        assert pb.load(CachedSubGraph.from_subnet(subnet)) == 0

    def test_hit_bytes_and_stats(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        pb = PersistentBuffer(10**9)
        pb.load(CachedSubGraph.from_subnet(subnet))
        assert pb.hit_bytes(subnet) == subnet.weight_bytes
        pb.record_serve(subnet)
        assert pb.stats.hit_bytes_total == pb.stats.served_weight_bytes_total
        assert pb.stats.served_weight_bytes_total == subnet.weight_bytes

    def test_zero_capacity_never_hits(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        pb = PersistentBuffer(0)
        pb.load(CachedSubGraph.from_subnet(subnet))
        assert pb.hit_bytes(subnet) == 0
        assert pb.occupancy_bytes == 0

    def test_vector_hit_ratio_bounds(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        pb = PersistentBuffer(10**9)
        assert pb.vector_hit_ratio(subnet) == 0.0
        pb.load(CachedSubGraph.from_subnet(subnet))
        assert pb.vector_hit_ratio(subnet) == pytest.approx(1.0)

    def test_clear(self, resnet50_subnets):
        pb = PersistentBuffer(10**9)
        pb.load(CachedSubGraph.from_subnet(resnet50_subnets[0]))
        pb.clear()
        assert pb.occupancy_bytes == 0
