"""Unit tests for the roofline model (Fig. 11)."""

import numpy as np
import pytest

from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.accelerator.roofline import RooflineModel


@pytest.fixture(scope="module")
def roofline():
    return RooflineModel(ANALYTIC_DEFAULT)


class TestRooflineCurve:
    def test_ridge_point_matches_paper_config(self, roofline):
        # 1.296 TFLOPS / 19.2 GB/s = 67.5 FLOPs/byte.
        assert roofline.ridge_point == pytest.approx(67.5, rel=1e-3)

    def test_attainable_capped_at_peak(self, roofline):
        assert roofline.attainable_tflops(10_000) == pytest.approx(roofline.peak_tflops)

    def test_attainable_linear_below_ridge(self, roofline):
        low = roofline.attainable_tflops(10)
        assert low == pytest.approx(10 * 19.2e9 / 1e12)

    def test_zero_intensity(self, roofline):
        assert roofline.attainable_tflops(0) == 0.0

    def test_curve_matches_pointwise(self, roofline):
        xs = [1.0, 10.0, 67.5, 200.0]
        curve = roofline.curve(xs)
        assert np.allclose(curve, [roofline.attainable_tflops(x) for x in xs])

    def test_higher_bandwidth_raises_sloped_region(self, roofline):
        assert roofline.attainable_tflops(10, bandwidth_gbps=38.4) > roofline.attainable_tflops(10)


class TestSubnetPoints:
    def test_intensity_positive(self, roofline, resnet50_subnets):
        for subnet in resnet50_subnets:
            assert roofline.subnet_intensity(subnet) > 0

    def test_sgs_raises_intensity(self, roofline, resnet50_subnets):
        for subnet in resnet50_subnets:
            cached = CachedSubGraph.from_subnet(subnet)
            assert roofline.subnet_intensity(subnet, cached) > roofline.subnet_intensity(subnet)

    def test_sgs_improves_effective_bandwidth(self, roofline, resnet50_subnets):
        subnet = resnet50_subnets[0]
        cached = CachedSubGraph.from_subnet(subnet)
        assert roofline.effective_bandwidth_gbps(subnet, cached) > roofline.bandwidth_gbps
        assert roofline.effective_bandwidth_gbps(subnet, None) == roofline.bandwidth_gbps

    def test_family_points_labels(self, roofline, resnet50_subnets):
        points = [roofline.subnet_point(sn) for sn in resnet50_subnets]
        assert [p.label for p in points] == [sn.name for sn in resnet50_subnets]

    def test_attainable_never_exceeds_peak(self, roofline, mobilenetv3_subnets):
        for point in map(roofline.subnet_point, mobilenetv3_subnets):
            assert point.attainable_tflops <= roofline.peak_tflops + 1e-9
