"""Roofline analysis, including the SGS-improved roofline (Fig. 11).

The classic roofline bounds attainable throughput by
``min(peak_flops, arithmetic_intensity x off_chip_bandwidth)``.  SubGraph
Stationary caching removes cached weight bytes from off-chip traffic, which
*raises the arithmetic intensity* of served SubNets; equivalently (the view
the paper plots) it virtually improves the off-chip bandwidth, lifting the
sloped part of the roofline.  This module computes both rooflines and the
per-SubNet operating points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.accelerator.platforms import PlatformConfig
from repro.supernet.subnet import SubNet


@dataclass(frozen=True)
class RooflinePoint:
    """One SubNet's operating point on the roofline plot."""

    label: str
    arithmetic_intensity: float
    attainable_tflops: float
    is_compute_bound: bool


class RooflineModel:
    """Roofline calculator for a platform, with optional SGS bandwidth boost."""

    def __init__(self, platform: PlatformConfig) -> None:
        self.platform = platform

    # ------------------------------------------------------------- curves
    @property
    def peak_tflops(self) -> float:
        return self.platform.peak_tflops

    @property
    def bandwidth_gbps(self) -> float:
        return self.platform.off_chip_bandwidth_gbps

    @property
    def ridge_point(self) -> float:
        """Arithmetic intensity (FLOPs/byte) where the roofline flattens."""
        return self.peak_tflops * 1e12 / (self.bandwidth_gbps * 1e9)

    def attainable_tflops(self, arithmetic_intensity: float, *, bandwidth_gbps: float | None = None) -> float:
        """Attainable TFLOPS at a given arithmetic intensity."""
        bw = self.bandwidth_gbps if bandwidth_gbps is None else bandwidth_gbps
        if arithmetic_intensity <= 0:
            return 0.0
        memory_bound = arithmetic_intensity * bw * 1e9 / 1e12
        return min(self.peak_tflops, memory_bound)

    def curve(
        self, intensities: Sequence[float], *, bandwidth_gbps: float | None = None
    ) -> np.ndarray:
        """Attainable TFLOPS over a grid of arithmetic intensities."""
        return np.array(
            [self.attainable_tflops(ai, bandwidth_gbps=bandwidth_gbps) for ai in intensities]
        )

    # ------------------------------------------------------------- points
    @staticmethod
    def subnet_intensity(subnet: SubNet, cached: CachedSubGraph | None = None) -> float:
        """End-to-end FLOPs/byte of a SubNet, with optional SGS caching.

        Off-chip bytes = (weights - cached) + iActs + oActs across all layers.
        """
        cached_per_layer = (
            cached.overlap_bytes_per_layer(subnet) if cached is not None else {}
        )
        flops = 0.0
        bytes_moved = 0.0
        for sl, layer in zip(subnet.ordered_slices, subnet.active_layers()):
            flops += layer.flops
            cached_bytes = min(cached_per_layer.get(sl.layer.name, 0), layer.weight_bytes)
            bytes_moved += (
                layer.weight_bytes - cached_bytes + layer.input_act_bytes + layer.output_act_bytes
            )
        if bytes_moved <= 0:
            return float("inf")
        return flops / bytes_moved

    def effective_bandwidth_gbps(
        self, subnet: SubNet, cached: CachedSubGraph | None
    ) -> float:
        """SGS roofline view: the bandwidth the workload *appears* to enjoy.

        Saving ``s`` of the off-chip bytes at fixed work is equivalent to a
        ``1 / (1 - s)`` bandwidth improvement.
        """
        if cached is None:
            return self.bandwidth_gbps
        base_ai = self.subnet_intensity(subnet, None)
        sgs_ai = self.subnet_intensity(subnet, cached)
        if base_ai <= 0 or not np.isfinite(sgs_ai):
            return self.bandwidth_gbps
        return self.bandwidth_gbps * (sgs_ai / base_ai)

    def subnet_point(
        self,
        subnet: SubNet,
        cached: CachedSubGraph | None = None,
        *,
        label: str | None = None,
    ) -> RooflinePoint:
        """Operating point of a SubNet (optionally with a cached SubGraph)."""
        ai = self.subnet_intensity(subnet, cached)
        tflops = self.attainable_tflops(ai)
        return RooflinePoint(
            label=label or subnet.name,
            arithmetic_intensity=ai,
            attainable_tflops=tflops,
            is_compute_bound=ai >= self.ridge_point,
        )
