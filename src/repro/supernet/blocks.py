"""Elastic block definitions for OFA-style SuperNets.

The OFA SuperNets the paper serves (ResNet50 and MobileNetV3) are organized
as stages of repeated blocks.  A *block* is the unit selected by the elastic
depth dimension; within a block, the elastic expand-ratio and width dimensions
select how many kernels / channels of each convolution are active.

Two block families are modelled:

* :class:`BottleneckBlock` — ResNet bottleneck: 1x1 reduce, 3x3 conv,
  1x1 expand (plus an optional projection shortcut on the first block of a
  stage).
* :class:`MBConvBlock` — MobileNetV3 inverted residual: 1x1 expand,
  k x k depthwise, 1x1 project.

Blocks produce concrete :class:`~repro.supernet.layers.ConvLayerSpec` lists
for a given elastic configuration via :meth:`BlockSpec.materialize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.supernet.layers import ConvLayerSpec, LayerKind


def _round_channels(value: float, divisor: int = 8) -> int:
    """Round a channel count to a hardware-friendly multiple of ``divisor``."""
    return max(divisor, int(math.ceil(value / divisor) * divisor))


@dataclass(frozen=True)
class BlockSpec:
    """Common interface for elastic blocks.

    Parameters
    ----------
    name:
        Unique block name (``"stage{i}.block{j}"``).
    in_channels:
        Channels entering the block (at maximum width).
    out_channels:
        Channels leaving the block (at maximum width).
    input_hw:
        Spatial size of the block's input activation.
    stride:
        Stride applied by the block's spatial convolution.
    kernel_size:
        Kernel size of the spatial convolution.
    max_expand_ratio:
        The largest supported expand ratio (elastic expand chooses a value
        <= this).
    """

    name: str
    in_channels: int
    out_channels: int
    input_hw: int
    stride: int = 1
    kernel_size: int = 3
    max_expand_ratio: float = 1.0

    @property
    def output_hw(self) -> int:
        return max(1, math.ceil(self.input_hw / self.stride))

    def materialize(
        self, *, expand_ratio: float, width_mult: float = 1.0
    ) -> list[ConvLayerSpec]:
        """Produce concrete layer specs for the given elastic settings."""
        raise NotImplementedError

    def max_layers(self) -> list[ConvLayerSpec]:
        """Layers at the maximal elastic configuration (defines the SuperNet)."""
        return self.materialize(expand_ratio=self.max_expand_ratio, width_mult=1.0)


@dataclass(frozen=True)
class BottleneckBlock(BlockSpec):
    """ResNet-style bottleneck with elastic expand ratio.

    The expand ratio controls the width of the internal 3x3 convolution
    (``mid = out_channels * expand_ratio / max_expand_ratio`` scaled by the
    standard 0.25 bottleneck factor), exactly mirroring how OFA-ResNet
    exposes its ``expand`` dimension.
    """

    bottleneck_factor: float = 0.25
    has_projection: bool = False

    def _mid_channels(self, expand_ratio: float, width_mult: float) -> int:
        base_mid = self.out_channels * self.bottleneck_factor
        scale = expand_ratio / self.max_expand_ratio if self.max_expand_ratio else 1.0
        return _round_channels(base_mid * scale * width_mult)

    def materialize(
        self, *, expand_ratio: float, width_mult: float = 1.0
    ) -> list[ConvLayerSpec]:
        if expand_ratio <= 0 or expand_ratio > self.max_expand_ratio:
            raise ValueError(
                f"{self.name}: expand_ratio {expand_ratio} outside "
                f"(0, {self.max_expand_ratio}]"
            )
        mid = self._mid_channels(expand_ratio, width_mult)
        in_ch = _round_channels(self.in_channels * width_mult)
        out_ch = _round_channels(self.out_channels * width_mult)
        layers = [
            ConvLayerSpec(
                name=f"{self.name}.conv1",
                kind=LayerKind.POINTWISE_CONV,
                in_channels=in_ch,
                out_channels=mid,
                kernel_size=1,
                input_hw=self.input_hw,
                stride=1,
            ),
            ConvLayerSpec(
                name=f"{self.name}.conv2",
                kind=LayerKind.CONV,
                in_channels=mid,
                out_channels=mid,
                kernel_size=self.kernel_size,
                input_hw=self.input_hw,
                stride=self.stride,
            ),
            ConvLayerSpec(
                name=f"{self.name}.conv3",
                kind=LayerKind.POINTWISE_CONV,
                in_channels=mid,
                out_channels=out_ch,
                kernel_size=1,
                input_hw=self.output_hw,
                stride=1,
            ),
        ]
        if self.has_projection:
            layers.append(
                ConvLayerSpec(
                    name=f"{self.name}.shortcut",
                    kind=LayerKind.POINTWISE_CONV,
                    in_channels=in_ch,
                    out_channels=out_ch,
                    kernel_size=1,
                    input_hw=self.input_hw,
                    stride=self.stride,
                )
            )
        return layers


@dataclass(frozen=True)
class MBConvBlock(BlockSpec):
    """MobileNetV3 inverted-residual block with elastic expand ratio.

    The expand ratio controls the width of the depthwise convolution's channel
    dimension (``mid = in_channels * expand_ratio``), as in OFA-MobileNetV3.
    """

    use_se: bool = False

    def _mid_channels(self, expand_ratio: float, width_mult: float) -> int:
        return _round_channels(self.in_channels * expand_ratio * width_mult)

    def materialize(
        self, *, expand_ratio: float, width_mult: float = 1.0
    ) -> list[ConvLayerSpec]:
        if expand_ratio <= 0 or expand_ratio > self.max_expand_ratio:
            raise ValueError(
                f"{self.name}: expand_ratio {expand_ratio} outside "
                f"(0, {self.max_expand_ratio}]"
            )
        mid = self._mid_channels(expand_ratio, width_mult)
        in_ch = _round_channels(self.in_channels * width_mult)
        out_ch = _round_channels(self.out_channels * width_mult)
        layers = []
        # The first MBConv of a network sometimes has expand ratio 1 and skips
        # the expansion pointwise conv; keep it whenever mid != in_ch.
        if mid != in_ch:
            layers.append(
                ConvLayerSpec(
                    name=f"{self.name}.expand",
                    kind=LayerKind.POINTWISE_CONV,
                    in_channels=in_ch,
                    out_channels=mid,
                    kernel_size=1,
                    input_hw=self.input_hw,
                    stride=1,
                )
            )
        layers.append(
            ConvLayerSpec(
                name=f"{self.name}.depthwise",
                kind=LayerKind.DEPTHWISE_CONV,
                in_channels=mid,
                out_channels=mid,
                kernel_size=self.kernel_size,
                input_hw=self.input_hw,
                stride=self.stride,
                groups=mid,
            )
        )
        if self.use_se:
            se_mid = _round_channels(mid / 4)
            layers.append(
                ConvLayerSpec(
                    name=f"{self.name}.se_reduce",
                    kind=LayerKind.POINTWISE_CONV,
                    in_channels=mid,
                    out_channels=se_mid,
                    kernel_size=1,
                    input_hw=1,
                    stride=1,
                )
            )
            layers.append(
                ConvLayerSpec(
                    name=f"{self.name}.se_expand",
                    kind=LayerKind.POINTWISE_CONV,
                    in_channels=se_mid,
                    out_channels=mid,
                    kernel_size=1,
                    input_hw=1,
                    stride=1,
                )
            )
        layers.append(
            ConvLayerSpec(
                name=f"{self.name}.project",
                kind=LayerKind.POINTWISE_CONV,
                in_channels=mid,
                out_channels=out_ch,
                kernel_size=1,
                input_hw=self.output_hw,
                stride=1,
            )
        )
        return layers


def validate_block_chain(blocks: Sequence[BlockSpec]) -> None:
    """Check that consecutive blocks have compatible channel/spatial shapes."""
    for prev, nxt in zip(blocks, blocks[1:]):
        if prev.out_channels != nxt.in_channels:
            raise ValueError(
                f"block chain mismatch: {prev.name} outputs {prev.out_channels} "
                f"channels but {nxt.name} expects {nxt.in_channels}"
            )
        if prev.output_hw != nxt.input_hw:
            raise ValueError(
                f"block chain mismatch: {prev.name} outputs {prev.output_hw}px "
                f"but {nxt.name} expects {nxt.input_hw}px"
            )
