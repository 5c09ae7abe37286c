"""Stage definitions: groups of repeated elastic blocks.

A *stage* groups ``max_depth`` blocks that share output channel width and
spatial resolution.  The elastic depth dimension selects the top ``k`` blocks
of each stage (OFA keeps the first blocks and drops the tail), so a stage is
the natural unit over which depth elasticity is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.supernet.blocks import BlockSpec, validate_block_chain
from repro.supernet.layers import ConvLayerSpec


@dataclass(frozen=True)
class StageSpec:
    """A stage of a SuperNet: ``max_depth`` repeated elastic blocks.

    Parameters
    ----------
    name:
        Stage name, e.g. ``"stage3"``.
    blocks:
        Blocks in order.  The first block may downsample (stride > 1) and
        change channel width; the remaining blocks preserve shape.
    min_depth:
        The smallest number of blocks the elastic depth dimension may select.
    """

    name: str
    blocks: tuple[BlockSpec, ...]
    min_depth: int = 2

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError(f"{self.name}: a stage needs at least one block")
        if not (1 <= self.min_depth <= len(self.blocks)):
            raise ValueError(
                f"{self.name}: min_depth {self.min_depth} outside "
                f"[1, {len(self.blocks)}]"
            )
        validate_block_chain(self.blocks)

    @property
    def max_depth(self) -> int:
        return len(self.blocks)

    @property
    def depth_choices(self) -> tuple[int, ...]:
        """Valid elastic depth values for this stage."""
        return tuple(range(self.min_depth, self.max_depth + 1))

    @property
    def in_channels(self) -> int:
        return self.blocks[0].in_channels

    @property
    def out_channels(self) -> int:
        return self.blocks[-1].out_channels

    @property
    def input_hw(self) -> int:
        return self.blocks[0].input_hw

    @property
    def output_hw(self) -> int:
        return self.blocks[-1].output_hw

    def select(self, depth: int) -> tuple[BlockSpec, ...]:
        """Return the top ``depth`` blocks (what elastic depth activates)."""
        if depth not in self.depth_choices:
            raise ValueError(
                f"{self.name}: depth {depth} not in valid choices {self.depth_choices}"
            )
        return self.blocks[:depth]

    def materialize(
        self,
        *,
        depth: int,
        expand_ratio: float,
        width_mult: float = 1.0,
    ) -> list[ConvLayerSpec]:
        """Concrete layer list of the stage at the given elastic settings."""
        layers: list[ConvLayerSpec] = []
        for block in self.select(depth):
            layers.extend(
                block.materialize(expand_ratio=expand_ratio, width_mult=width_mult)
            )
        return layers

    def max_layers(self) -> list[ConvLayerSpec]:
        """Layers of the stage at its maximal configuration."""
        layers: list[ConvLayerSpec] = []
        for block in self.blocks:
            layers.extend(block.max_layers())
        return layers


@dataclass(frozen=True)
class StemSpec:
    """The fixed (non-elastic) stem layers preceding the elastic stages."""

    layers: tuple[ConvLayerSpec, ...] = field(default_factory=tuple)

    @property
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)


@dataclass(frozen=True)
class HeadSpec:
    """The fixed (non-elastic) head layers (final convs / classifier)."""

    layers: tuple[ConvLayerSpec, ...] = field(default_factory=tuple)

    @property
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)
