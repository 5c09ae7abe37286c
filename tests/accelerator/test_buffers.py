"""Unit tests for the on-chip buffer hierarchy."""

import pytest

from repro.accelerator.buffers import (
    BUFFER_NAMES,
    BufferHierarchy,
    BufferSpec,
    bandwidth_requirements,
    default_hierarchy,
)
from repro.accelerator.dpe import DPEArrayConfig
from repro.accelerator.platforms import ANALYTIC_DEFAULT, ZCU104


class TestBufferSpec:
    def test_capacity_kb(self):
        assert BufferSpec("PB", 2048, 64.0).capacity_kb == 2.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferSpec("PB", -1, 64.0)


class TestBandwidthRequirements:
    def test_all_table1_buffers_present(self):
        dpe = DPEArrayConfig(kp=ZCU104.kp, cp=ZCU104.cp)
        reqs = bandwidth_requirements(dpe, ZCU104)
        assert {"DB", "SB", "LB", "OB", "PB"} <= set(reqs)

    def test_db_and_pb_at_least_off_chip(self):
        dpe = DPEArrayConfig(kp=ZCU104.kp, cp=ZCU104.cp)
        reqs = bandwidth_requirements(dpe, ZCU104)
        assert reqs["DB"] >= ZCU104.off_chip_bytes_per_cycle
        assert reqs["PB"] >= ZCU104.off_chip_bytes_per_cycle

    def test_ob_matches_kernel_parallelism(self):
        dpe = DPEArrayConfig(kp=ZCU104.kp, cp=ZCU104.cp)
        reqs = bandwidth_requirements(dpe, ZCU104)
        assert reqs["OB"] == ZCU104.kp


class TestDefaultHierarchy:
    def test_contains_all_buffers(self):
        hierarchy = default_hierarchy(ZCU104)
        for name in BUFFER_NAMES:
            assert hierarchy[name].capacity_bytes >= 0

    def test_fits_budget(self):
        for platform in (ZCU104, ANALYTIC_DEFAULT):
            for with_pb in (True, False):
                hierarchy = default_hierarchy(platform, with_pb=with_pb)
                hierarchy.validate_budget(platform)

    def test_pb_zero_when_disabled(self):
        hierarchy = default_hierarchy(ZCU104, with_pb=False)
        assert hierarchy.pb.capacity_bytes == 0

    def test_pb_positive_when_enabled(self):
        hierarchy = default_hierarchy(ZCU104, with_pb=True)
        assert hierarchy.pb.capacity_bytes > 1024 * 1024  # >1 MB on ZCU104

    def test_sb_identical_with_and_without_pb(self):
        with_pb = default_hierarchy(ZCU104, with_pb=True)
        without_pb = default_hierarchy(ZCU104, with_pb=False)
        assert with_pb["SB"].capacity_bytes == without_pb["SB"].capacity_bytes

    def test_total_storage_equal_with_and_without_pb(self):
        # Paper Tab. 3: both configurations use the same overall storage; the
        # w/o-PB variant redirects the PB budget to the dynamic buffers.
        with_pb = default_hierarchy(ZCU104, with_pb=True)
        without_pb = default_hierarchy(ZCU104, with_pb=False)
        def db_bytes(h):
            return h["DB-Ping"].capacity_bytes + h["DB-Pong"].capacity_bytes

        assert db_bytes(without_pb) > db_bytes(with_pb)
        assert abs(with_pb.total_bytes - without_pb.total_bytes) <= with_pb.pb.capacity_bytes

    def test_summary_has_overall(self):
        summary = default_hierarchy(ZCU104).summary()
        assert "Overall" in summary
        assert summary["Overall"] > 0

    def test_missing_buffer_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            BufferHierarchy(buffers={"PB": BufferSpec("PB", 0, 0)})

    def test_budget_violation_detected(self):
        hierarchy = default_hierarchy(ZCU104)
        tiny = ZCU104.scaled(name="tiny")
        import dataclasses

        tiny = dataclasses.replace(tiny, total_buffer_kb=100.0, pb_kb=0.0)
        with pytest.raises(ValueError, match="exceeds"):
            hierarchy.validate_budget(tiny)
