"""Dot-Product-Engine (DPE) array compute model.

SushiAccel's compute fabric is a 2D array of fixed-size (9-multiplier) DPEs:
``KP`` rows process different kernels in parallel, ``CP`` columns process
different input-activation channels in parallel (Fig. 7/8 of the paper).
Larger kernels are decomposed into serial 3x3 tiles; 1x1 kernels flatten the
channel dimension across the 9 multipliers.  This module turns a layer's
shape into compute cycles and achieved utilization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.supernet.layers import ConvLayerSpec, LayerKind


@dataclass(frozen=True)
class DPEArrayConfig:
    """Geometry of the DPE array.

    Attributes
    ----------
    kp:
        Kernel-level parallelism (rows): kernels processed concurrently.
    cp:
        Channel-level parallelism (columns): input channels processed
        concurrently.
    dpe_size:
        Multipliers per DPE; the paper fixes this at 9 (one 3x3 kernel tile).
    """

    kp: int
    cp: int
    dpe_size: int = 9

    def __post_init__(self) -> None:
        if self.kp <= 0 or self.cp <= 0 or self.dpe_size <= 0:
            raise ValueError("DPE array dimensions must be positive")

    @property
    def macs_per_cycle(self) -> int:
        """Peak MACs per cycle when the array is fully utilized."""
        return self.kp * self.cp * self.dpe_size

    # ------------------------------------------------------------- cycles
    def compute_cycles(self, layer: ConvLayerSpec) -> int:
        """Cycles to compute one layer on the DPE array.

        The mapping follows Section 4.2.1 of the paper:

        * ``k >= 3`` convolutions: each DPE reduces one 3x3 kernel tile;
          kernels map across rows (KP) and input channels across columns (CP).
          Larger kernels are decomposed into ``ceil(k^2 / 9)`` serial 3x3
          tiles.
        * ``1x1`` convolutions (and linear layers): the input-channel
          dimension is flattened across the 9 multipliers, so each DPE covers
          9 channels per cycle.
        * layers with fewer input channels than CP (e.g. the stem): the idle
          channel columns are repurposed for output-pixel parallelism, the
          standard fallback mapping of flexible DPE arrays.
        * depthwise convolutions: there is no cross-channel reduction, so the
          channel columns cannot combine partial sums for one kernel; half of
          them can still be repurposed spatially, but utilization stays low —
          which is why depthwise-heavy MobileNetV3 benefits less (Fig. 12b).
        """
        if layer.kind == LayerKind.POOL or layer.macs == 0:
            return 0
        out_pixels = layer.output_hw * layer.output_hw

        if layer.kind == LayerKind.DEPTHWISE_CONV:
            kernel_tiles = max(1, math.ceil(layer.kernel_size**2 / self.dpe_size))
            channel_passes = math.ceil(layer.out_channels / self.kp)
            # Only half of the CP columns can be repurposed for spatial
            # parallelism (the adder tree reduces across columns, so spatially
            # flattened pixels must bypass it).
            spatial_par = max(1, self.cp // 2)
            pixel_passes = math.ceil(out_pixels / spatial_par)
            return channel_passes * kernel_tiles * pixel_passes

        if layer.kind == LayerKind.LINEAR or layer.kernel_size == 1:
            # Channel dimension flattened across the 9 multipliers.
            channels_per_dpe = self.dpe_size
            kernel_passes = math.ceil(layer.out_channels / self.kp)
            channel_cover = self.cp * channels_per_dpe
            channel_passes = math.ceil(layer.in_channels / channel_cover)
            spatial_par = max(1, channel_cover // max(1, layer.in_channels)) if layer.in_channels < channel_cover else 1
            pixel_passes = math.ceil(out_pixels / spatial_par)
            return kernel_passes * channel_passes * pixel_passes

        # Regular (grouped) convolution with k >= 3.
        per_group_in = layer.in_channels // layer.groups
        kernel_tiles = max(1, math.ceil(layer.kernel_size**2 / self.dpe_size))
        kernel_passes = math.ceil(layer.out_channels / self.kp)
        channel_passes = math.ceil(per_group_in / self.cp)
        spatial_par = max(1, self.cp // max(1, per_group_in)) if per_group_in < self.cp else 1
        pixel_passes = math.ceil(out_pixels / spatial_par)
        return kernel_passes * channel_passes * kernel_tiles * pixel_passes

    def utilization(self, layer: ConvLayerSpec) -> float:
        """Achieved fraction of peak MACs for a layer (0 for zero-work layers)."""
        cycles = self.compute_cycles(layer)
        if cycles == 0:
            return 0.0
        return min(1.0, layer.macs / (cycles * self.macs_per_cycle))

    # -------------------------------------------------------- requirements
    def demanded_weight_bytes_per_cycle(self, weight_bits: int = 8) -> float:
        """On-chip weight bandwidth the array can consume per cycle.

        During the store-and-forward weight load each row receives one kernel
        tile per cycle; steady-state demand is one weight per multiplier per
        tile switch.  Used for the buffer bandwidth requirements of Table 1.
        """
        return self.kp * self.cp * self.dpe_size * weight_bits / 8.0

    def demanded_iact_bytes_per_cycle(
        self, kernel_size: int = 3, act_bits: int = 8
    ) -> float:
        """On-chip iAct bandwidth demanded per cycle (CP x R x S elements)."""
        return self.cp * kernel_size * kernel_size * act_bits / 8.0

    def produced_oact_bytes_per_cycle(self, act_bits: int = 8) -> float:
        """oAct bytes produced per cycle (one partial sum per row)."""
        return self.kp * act_bits / 8.0
