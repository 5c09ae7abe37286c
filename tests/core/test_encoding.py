"""Unit tests for SubNet/SubGraph encodings and distances."""

import numpy as np
import pytest

from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.core.encoding import (
    encode_subgraph,
    encode_subnet,
    euclidean_distance,
    nearest_index,
    normalized_overlap,
)


class TestDistances:
    def test_euclidean_zero_for_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert euclidean_distance(v, v) == 0.0

    def test_euclidean_symmetric(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert euclidean_distance(a, b) == euclidean_distance(b, a) == pytest.approx(np.sqrt(2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            euclidean_distance(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            nearest_index(np.zeros(3), [np.zeros(4)], metric="cosine")

    def test_cosine_bounds(self):
        # Orthogonal encodings sit at cosine distance 1, identical ones at 0.
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert nearest_index(a, [b, a], metric="cosine") == 1
        assert nearest_index(a, [b, 2.0 * a], metric="cosine") == 1

    def test_cosine_zero_vector(self):
        # A zero encoding is at distance 1: it ties an orthogonal one (the
        # lower index wins) and beats an opposite one (distance 2).
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert nearest_index(a, [np.zeros(2), b], metric="cosine") == 0
        assert nearest_index(a, [b, np.zeros(2)], metric="cosine") == 0
        assert nearest_index(a, [-a, np.zeros(2)], metric="cosine") == 1


class TestNormalizedOverlap:
    def test_full_overlap_is_one(self):
        v = np.array([3.0, 4.0])
        assert normalized_overlap(v, v) == pytest.approx(1.0)

    def test_no_overlap_is_zero(self):
        assert normalized_overlap(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_zero_subnet_vector(self):
        assert normalized_overlap(np.zeros(4), np.ones(4)) == 0.0

    def test_between_zero_and_one(self, resnet50, resnet50_subnets):
        small, large = resnet50_subnets[0], resnet50_subnets[-1]
        overlap = normalized_overlap(encode_subnet(large), encode_subnet(small))
        assert 0.0 < overlap < 1.0


class TestNearestIndex:
    def test_picks_closest(self):
        target = np.array([1.0, 1.0])
        candidates = [np.array([0.0, 0.0]), np.array([1.0, 1.1]), np.array([5.0, 5.0])]
        assert nearest_index(target, candidates) == 1

    def test_tie_breaks_to_lowest_index(self):
        target = np.array([0.0])
        candidates = [np.array([1.0]), np.array([-1.0])]
        assert nearest_index(target, candidates) == 0

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            nearest_index(np.zeros(2), [])

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError):
            nearest_index(np.zeros(2), [np.zeros(2)], metric="manhattan")

    def test_cosine_metric(self):
        target = np.array([1.0, 0.0])
        candidates = [np.array([0.0, 2.0]), np.array([3.0, 0.1])]
        assert nearest_index(target, candidates, metric="cosine") == 1


class TestEncodeHelpers:
    def test_encode_subnet_matches_method(self, resnet50_subnets):
        subnet = resnet50_subnets[0]
        assert np.array_equal(encode_subnet(subnet), subnet.encode())

    def test_encode_subgraph_matches_method(self, resnet50, resnet50_subnets):
        sg = CachedSubGraph.from_subnet(resnet50_subnets[0])
        assert np.array_equal(encode_subgraph(sg, resnet50), sg.encode(resnet50))
