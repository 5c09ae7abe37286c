"""Unit tests for candidate SubGraph set construction."""

import pytest

from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.core.candidates import (
    build_candidate_set,
    intersect_subnets,
    truncate_to_capacity,
)

PB_BYTES = 1_769_472  # 1728 KB


class TestTruncateToCapacity:
    def test_respects_capacity(self, resnet50, resnet50_subnets):
        sg = CachedSubGraph.from_subnet(resnet50_subnets[-1])
        fitted = truncate_to_capacity(sg, PB_BYTES, supernet=resnet50)
        assert fitted.weight_bytes <= PB_BYTES

    def test_zero_capacity_empty(self, resnet50, resnet50_subnets):
        sg = CachedSubGraph.from_subnet(resnet50_subnets[0])
        assert truncate_to_capacity(sg, 0, supernet=resnet50).num_layers == 0

    def test_large_capacity_keeps_everything(self, resnet50, resnet50_subnets):
        sg = CachedSubGraph.from_subnet(resnet50_subnets[0])
        fitted = truncate_to_capacity(sg, 10**9, supernet=resnet50)
        assert fitted.weight_bytes == sg.weight_bytes

    def test_prefers_later_layers(self, resnet50, resnet50_subnets):
        import numpy as np

        sg = CachedSubGraph.from_subnet(resnet50_subnets[-1])
        back = truncate_to_capacity(sg, PB_BYTES, supernet=resnet50, prefer_later_layers=True)
        front = truncate_to_capacity(sg, PB_BYTES, supernet=resnet50, prefer_later_layers=False)
        mean_back = np.mean([resnet50.layer_index(n) for n in back.slices])
        mean_front = np.mean([resnet50.layer_index(n) for n in front.slices])
        assert mean_back > mean_front


class TestIntersectSubnets:
    def test_intersection_bytes_match_shared(self, resnet50_subnets):
        a, b = resnet50_subnets[0], resnet50_subnets[-1]
        inter = intersect_subnets(a, b)
        assert inter.weight_bytes == a.shared_bytes_with(b)

    def test_intersection_subset_of_both(self, resnet50_subnets):
        a, b = resnet50_subnets[1], resnet50_subnets[3]
        inter = intersect_subnets(a, b)
        assert inter.overlap_bytes(a) == inter.weight_bytes
        assert inter.overlap_bytes(b) == inter.weight_bytes

    def test_cross_family_rejected(self, resnet50_subnets, mobilenetv3_subnets):
        with pytest.raises(ValueError):
            intersect_subnets(resnet50_subnets[0], mobilenetv3_subnets[0])


class TestBuildCandidateSet:
    def test_basic_construction(self, resnet50_subnets):
        candidates = build_candidate_set(resnet50_subnets, capacity_bytes=PB_BYTES)
        assert len(candidates) >= len(resnet50_subnets)
        assert all(sg.weight_bytes <= PB_BYTES for sg in candidates)

    def test_no_intersections_option(self, resnet50_subnets):
        with_inter = build_candidate_set(resnet50_subnets, capacity_bytes=PB_BYTES)
        without = build_candidate_set(
            resnet50_subnets, capacity_bytes=PB_BYTES, include_intersections=False
        )
        assert len(without) <= len(with_inter)

    def test_max_size_expansion(self, mobilenetv3_subnets):
        candidates = build_candidate_set(
            mobilenetv3_subnets, capacity_bytes=PB_BYTES, max_size=40
        )
        assert len(candidates) == 40

    def test_max_size_trim(self, resnet50_subnets):
        candidates = build_candidate_set(resnet50_subnets, capacity_bytes=PB_BYTES, max_size=3)
        assert len(candidates) == 3

    def test_deterministic_given_seed(self, mobilenetv3_subnets):
        a = build_candidate_set(mobilenetv3_subnets, capacity_bytes=PB_BYTES, max_size=25, seed=3)
        b = build_candidate_set(mobilenetv3_subnets, capacity_bytes=PB_BYTES, max_size=25, seed=3)
        assert [sg.weight_bytes for sg in a] == [sg.weight_bytes for sg in b]

    def test_no_duplicates(self, resnet50_subnets):
        candidates = build_candidate_set(resnet50_subnets, capacity_bytes=PB_BYTES, max_size=30)
        keys = set()
        for sg in candidates:
            key = tuple(sorted((n, sl.kernels, sl.channels) for n, sl in sg.slices.items()))
            assert key not in keys
            keys.add(key)

    def test_invalid_inputs_rejected(self, resnet50_subnets, mobilenetv3_subnets):
        with pytest.raises(ValueError):
            build_candidate_set([], capacity_bytes=PB_BYTES)
        with pytest.raises(ValueError):
            build_candidate_set(resnet50_subnets, capacity_bytes=0)
        with pytest.raises(ValueError):
            build_candidate_set(
                [resnet50_subnets[0], mobilenetv3_subnets[0]], capacity_bytes=PB_BYTES
            )
        # A negative size used to slice candidates[:max_size], silently
        # dropping candidates from the end.
        for max_size in (0, -1, -3):
            with pytest.raises(ValueError, match="max_size"):
                build_candidate_set(
                    mobilenetv3_subnets, capacity_bytes=PB_BYTES, max_size=max_size
                )

    def test_encodings_dimension(self, resnet50, resnet50_subnets):
        candidates = build_candidate_set(resnet50_subnets, capacity_bytes=PB_BYTES)
        for vec in candidates.encodings(resnet50):
            assert vec.shape == (2 * resnet50.num_layers,)
