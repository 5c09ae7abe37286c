"""Convolution-layer structural specifications.

A :class:`ConvLayerSpec` captures everything SUSHI's analytic models need to
know about a single convolution (or related) layer: tensor shapes, kernel
geometry, groups, stride and quantized data widths.  From those we derive
MACs/FLOPs, weight bytes, activation bytes and arithmetic intensity — the
quantities driving the roofline analysis (Fig. 2 / Fig. 11 of the paper) and
the accelerator latency model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace


class LayerKind(str, enum.Enum):
    """Kinds of layers the structural model distinguishes.

    Only layers that move non-trivial amounts of data are modelled; cheap
    element-wise ops (activations, batch-norm folded into conv at inference
    time) are not represented separately.
    """

    CONV = "conv"
    DEPTHWISE_CONV = "depthwise_conv"
    POINTWISE_CONV = "pointwise_conv"
    LINEAR = "linear"
    POOL = "pool"

    def is_conv(self) -> bool:
        return self in (
            LayerKind.CONV,
            LayerKind.DEPTHWISE_CONV,
            LayerKind.POINTWISE_CONV,
        )


@dataclass(frozen=True)
class ConvLayerSpec:
    """Structural description of one convolution layer.

    Parameters
    ----------
    name:
        Unique layer name within its SuperNet (e.g. ``"stage2.block1.conv2"``).
    kind:
        The :class:`LayerKind`.
    in_channels, out_channels:
        Channel counts of the input / output activation tensors.
    kernel_size:
        Spatial kernel size (square kernels assumed, as in OFA supernets).
    input_hw:
        Spatial height == width of the input activation (square inputs).
    stride:
        Convolution stride.
    groups:
        Number of groups; ``groups == in_channels`` models depthwise conv.
    weight_bits, act_bits:
        Quantized data width in bits (the paper uses int8 weights/activations).
    """

    name: str
    kind: LayerKind
    in_channels: int
    out_channels: int
    kernel_size: int
    input_hw: int
    stride: int = 1
    groups: int = 1
    weight_bits: int = 8
    act_bits: int = 8

    def __post_init__(self) -> None:
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ValueError(f"{self.name}: channel counts must be positive")
        if self.kernel_size <= 0:
            raise ValueError(f"{self.name}: kernel_size must be positive")
        if self.input_hw <= 0:
            raise ValueError(f"{self.name}: input_hw must be positive")
        if self.stride <= 0:
            raise ValueError(f"{self.name}: stride must be positive")
        if self.groups <= 0:
            raise ValueError(f"{self.name}: groups must be positive")
        if self.in_channels % self.groups != 0:
            raise ValueError(
                f"{self.name}: in_channels ({self.in_channels}) not divisible "
                f"by groups ({self.groups})"
            )
        if self.out_channels % self.groups != 0:
            raise ValueError(
                f"{self.name}: out_channels ({self.out_channels}) not divisible "
                f"by groups ({self.groups})"
            )

    # ------------------------------------------------------------------ shapes
    @property
    def output_hw(self) -> int:
        """Output spatial size assuming 'same' padding (as OFA convs use)."""
        return max(1, math.ceil(self.input_hw / self.stride))

    @property
    def weight_count(self) -> int:
        """Number of weight scalars in this layer."""
        if self.kind == LayerKind.LINEAR:
            return self.in_channels * self.out_channels
        per_group_in = self.in_channels // self.groups
        return self.out_channels * per_group_in * self.kernel_size * self.kernel_size

    @property
    def weight_bytes(self) -> int:
        """Quantized weight footprint in bytes."""
        return math.ceil(self.weight_count * self.weight_bits / 8)

    @property
    def input_act_count(self) -> int:
        return self.in_channels * self.input_hw * self.input_hw

    @property
    def output_act_count(self) -> int:
        return self.out_channels * self.output_hw * self.output_hw

    @property
    def input_act_bytes(self) -> int:
        return math.ceil(self.input_act_count * self.act_bits / 8)

    @property
    def output_act_bytes(self) -> int:
        return math.ceil(self.output_act_count * self.act_bits / 8)

    # ------------------------------------------------------------------ work
    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for one forward pass of this layer."""
        if self.kind == LayerKind.POOL:
            return 0
        if self.kind == LayerKind.LINEAR:
            return self.in_channels * self.out_channels
        per_group_in = self.in_channels // self.groups
        return (
            self.output_hw
            * self.output_hw
            * self.out_channels
            * per_group_in
            * self.kernel_size
            * self.kernel_size
        )

    @property
    def flops(self) -> int:
        """FLOPs = 2 x MACs (multiply + add), the convention used in the paper."""
        return 2 * self.macs

    @property
    def total_data_bytes(self) -> int:
        """Bytes moved if nothing is cached: weights + iActs + oActs."""
        return self.weight_bytes + self.input_act_bytes + self.output_act_bytes

    def arithmetic_intensity(self, *, cached_weight_bytes: int = 0) -> float:
        """FLOPs per byte of off-chip traffic.

        Parameters
        ----------
        cached_weight_bytes:
            Weight bytes already resident on chip (e.g. in the Persistent
            Buffer).  SGS raises arithmetic intensity by removing these bytes
            from the denominator; passing 0 gives the plain (Fig. 2) value.
        """
        if self.kind == LayerKind.POOL:
            return 0.0
        cached = min(max(cached_weight_bytes, 0), self.weight_bytes)
        bytes_moved = self.total_data_bytes - cached
        if bytes_moved <= 0:
            return float("inf")
        return self.flops / bytes_moved

    # ------------------------------------------------------------------ misc
    def with_channels(self, in_channels: int, out_channels: int) -> "ConvLayerSpec":
        """Return a copy with different channel counts (used by elastic width).

        Depthwise layers keep ``groups == in_channels`` consistent.
        """
        groups = self.groups
        if self.kind == LayerKind.DEPTHWISE_CONV:
            groups = in_channels
        return replace(
            self,
            in_channels=in_channels,
            out_channels=out_channels,
            groups=groups,
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.name}: {self.kind.value} {self.in_channels}->{self.out_channels} "
            f"k{self.kernel_size} s{self.stride} @{self.input_hw}x{self.input_hw} "
            f"({self.weight_bytes / 1e3:.1f} KB weights, {self.flops / 1e6:.1f} MFLOPs)"
        )


@dataclass(frozen=True)
class LayerSlice:
    """A (possibly partial) view of a layer's weights.

    SubGraphs are built from layer slices: a slice keeps the layer identity
    but may include only the first ``kernels`` output kernels and the first
    ``channels`` input channels, matching how OFA orders important kernels /
    channels first.  ``kernels == out_channels`` and ``channels ==
    in_channels`` means the full layer.
    """

    layer: ConvLayerSpec
    kernels: int
    channels: int
    _bytes: int = field(init=False, default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 <= self.kernels <= self.layer.out_channels):
            raise ValueError(
                f"{self.layer.name}: kernels {self.kernels} out of range "
                f"[0, {self.layer.out_channels}]"
            )
        if not (0 <= self.channels <= self.layer.in_channels):
            raise ValueError(
                f"{self.layer.name}: channels {self.channels} out of range "
                f"[0, {self.layer.in_channels}]"
            )

    @property
    def weight_bytes(self) -> int:
        """Byte footprint of the sliced weights."""
        full = self.layer
        if full.kind == LayerKind.LINEAR:
            count = self.kernels * self.channels
        elif full.kind == LayerKind.DEPTHWISE_CONV:
            # Depthwise weights are per-channel; the slice is bounded by the
            # smaller of the kernel/channel selections.
            count = min(self.kernels, self.channels) * full.kernel_size**2
        else:
            per_group_in = max(1, self.channels // full.groups) if full.groups > 1 else self.channels
            count = self.kernels * per_group_in * full.kernel_size**2
        return math.ceil(count * full.weight_bits / 8)

    @property
    def is_empty(self) -> bool:
        return self.kernels == 0 or self.channels == 0

    def intersect(self, other: "LayerSlice") -> "LayerSlice":
        """Largest common slice of the same layer (kernel/channel-wise min)."""
        if self.layer.name != other.layer.name:
            raise ValueError(
                f"cannot intersect slices of different layers "
                f"({self.layer.name} vs {other.layer.name})"
            )
        return LayerSlice(
            layer=self.layer,
            kernels=min(self.kernels, other.kernels),
            channels=min(self.channels, other.channels),
        )
