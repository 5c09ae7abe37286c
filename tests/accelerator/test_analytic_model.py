"""Unit tests for the SushiAccel end-to-end analytic model."""

import pytest

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.accelerator.platforms import ANALYTIC_DEFAULT, ZCU104
from repro.core.latency_table import LatencyTable
from repro.supernet.layers import LayerKind


class TestSubnetBreakdown:
    def test_latency_positive_and_finite(self, analytic_model, resnet50_subnets):
        for subnet in resnet50_subnets:
            latency = analytic_model.subnet_latency_ms(subnet)
            assert 0 < latency < 1000

    def test_components_sum_to_total(self, analytic_model, resnet50_subnets):
        breakdown = analytic_model.subnet_breakdown(resnet50_subnets[0])
        c = breakdown.components
        assert breakdown.latency_ms == pytest.approx(c.total_ms)
        assert c.total_ms == pytest.approx(
            c.compute_ms + c.offchip_iact_ms + c.offchip_weight_ms
            + c.onchip_weight_ms + c.offchip_oact_ms
        )

    def test_per_layer_count_matches_subnet(self, analytic_model, resnet50_subnets):
        subnet = resnet50_subnets[0]
        breakdown = analytic_model.subnet_breakdown(subnet)
        assert len(breakdown.per_layer) == subnet.num_layers

    def test_latency_monotone_in_subnet_size(self, analytic_model, resnet50_subnets):
        latencies = [analytic_model.subnet_latency_ms(sn) for sn in resnet50_subnets]
        assert latencies == sorted(latencies)

    def test_paper_latency_ballpark(self, analytic_model, resnet50_subnets, mobilenetv3_subnets):
        # Fig. 10: ResNet50 SubNets run in single-digit ms, MobV3 in < 3 ms at
        # the analytic configuration.
        for subnet in resnet50_subnets:
            assert 0.5 < analytic_model.subnet_latency_ms(subnet) < 20.0
        for subnet in mobilenetv3_subnets:
            assert 0.1 < analytic_model.subnet_latency_ms(subnet) < 5.0

    def test_caching_own_subgraph_reduces_latency(self, analytic_model, resnet50_subnets):
        for subnet in resnet50_subnets:
            cached = CachedSubGraph.from_subnet(subnet)
            assert analytic_model.subnet_latency_ms(subnet, cached) < analytic_model.subnet_latency_ms(subnet)

    def test_sgs_reduction_in_paper_range(self, analytic_model, resnet50_subnets):
        # Fig. 10 reports 5.7-7.9 % potential reduction for ResNet50; accept a
        # generous band around it (the substrate is a model, not the testbed).
        for subnet in resnet50_subnets:
            base = analytic_model.subnet_latency_ms(subnet)
            cached = analytic_model.subnet_latency_ms(subnet, CachedSubGraph.from_subnet(subnet))
            reduction = 100 * (base - cached) / base
            assert 3.0 < reduction < 25.0

    def test_without_pb_ignores_cache(self, analytic_model_no_pb, resnet50_subnets):
        subnet = resnet50_subnets[0]
        cached = CachedSubGraph.from_subnet(subnet)
        assert analytic_model_no_pb.subnet_latency_ms(subnet, cached) == pytest.approx(
            analytic_model_no_pb.subnet_latency_ms(subnet)
        )

    def test_energy_decreases_with_cache(self, analytic_model, mobilenetv3_subnets):
        subnet = mobilenetv3_subnets[0]
        base = analytic_model.subnet_breakdown(subnet)
        cached = analytic_model.subnet_breakdown(subnet, CachedSubGraph.from_subnet(subnet))
        assert cached.offchip_energy_mj < base.offchip_energy_mj

    def test_layer_filter_3x3(self, analytic_model, resnet50_subnets):
        subnet = resnet50_subnets[0]
        full = analytic_model.subnet_breakdown(subnet)
        filtered = analytic_model.subnet_breakdown(
            subnet, layer_filter=lambda l: l.kind == LayerKind.CONV and l.kernel_size == 3
        )
        assert 0 < len(filtered.per_layer) < len(full.per_layer)
        assert filtered.latency_ms < full.latency_ms

    def test_layer_filter_rejecting_everything_raises(self, analytic_model, resnet50_subnets):
        with pytest.raises(ValueError):
            analytic_model.subnet_breakdown(resnet50_subnets[0], layer_filter=lambda l: False)

    def test_memory_bound_layers_listed(self, analytic_model, resnet50_subnets):
        breakdown = analytic_model.subnet_breakdown(resnet50_subnets[-1])
        # A memory-bound layer: exposed memory time outweighs compute.
        assert any(l.total_cycles - l.compute_cycles > l.compute_cycles for l in breakdown.per_layer)


class TestModelConfiguration:
    def test_pb_capacity_zero_without_pb(self, analytic_model_no_pb):
        assert analytic_model_no_pb.pb_capacity_bytes == 0

    def test_make_persistent_buffer_capacity(self, analytic_model):
        pb = analytic_model.make_persistent_buffer()
        assert pb.capacity_bytes == analytic_model.pb_capacity_bytes > 0

    def test_cache_load_latency(self, analytic_model):
        assert analytic_model.cache_load_latency_ms(0) == 0.0
        assert analytic_model.cache_load_latency_ms(1_000_000) > 0.0

    def test_latency_matrix_shape(self, analytic_model, resnet50_subnets):
        subgraphs = [CachedSubGraph.from_subnet(sn) for sn in resnet50_subnets[:2]]
        subnets = resnet50_subnets[:3]
        table = LatencyTable.build(
            subnets, subgraphs, analytic_model.subnet_latency_ms, lambda sn: 0.5
        )
        assert table.latencies_ms.shape == (3, 2)
        for i, sn in enumerate(subnets):
            for j, sg in enumerate(subgraphs):
                assert table.latency(i, j) == analytic_model.subnet_latency_ms(sn, sg)

    def test_zcu104_slower_than_analytic(self, zcu104_model, analytic_model, resnet50_subnets):
        # The embedded board has 5x less compute than the analytic config.
        subnet = resnet50_subnets[-1]
        assert zcu104_model.subnet_latency_ms(subnet) > analytic_model.subnet_latency_ms(subnet)
