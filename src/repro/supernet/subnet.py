"""SubNet: a servable slice of a SuperNet.

A SubNet is the unit the scheduler activates to serve a query.  It is defined
by an elastic configuration (per-stage depths, expand ratio, width multiplier)
and materialized as an ordered mapping of layer slices over the owning
SuperNet's maximal layers.  SubNets expose the structural quantities the rest
of the stack consumes: per-layer shapes for the accelerator model, weight
bytes for cache accounting, FLOPs for the accuracy model, and the
``[K1, C1, ..., KN, CN]`` vector encoding used by SushiSched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.supernet.layers import ConvLayerSpec, LayerSlice
from repro.supernet.supernet import SuperNet


@dataclass(frozen=True)
class SubNetConfig:
    """Elastic configuration selecting one SubNet out of a SuperNet.

    Attributes
    ----------
    depths:
        Per-stage depth (number of active blocks), one entry per stage.
    expand_ratio:
        The expand ratio applied to every active block.
    width_mult:
        Global width multiplier.
    name:
        Optional human-readable label (e.g. ``"A"`` ... ``"F"`` as the paper
        labels its Pareto SubNets).
    """

    depths: tuple[int, ...]
    expand_ratio: float
    width_mult: float = 1.0
    name: str = ""

    def label(self) -> str:
        if self.name:
            return self.name
        depth_str = "".join(str(d) for d in self.depths)
        return f"d{depth_str}-e{self.expand_ratio:g}-w{self.width_mult:g}"


class SubNet:
    """A materialized SubNet of a :class:`~repro.supernet.supernet.SuperNet`."""

    def __init__(self, supernet: SuperNet, config: SubNetConfig) -> None:
        supernet.validate_config(config.depths, config.expand_ratio, config.width_mult)
        self.supernet = supernet
        self.config = config
        self._slices = supernet.slices_for(
            depths=config.depths,
            expand_ratio=config.expand_ratio,
            width_mult=config.width_mult,
        )
        # Keep slices in network order for deterministic iteration.
        order = supernet.layer_index
        self._ordered_names = sorted(self._slices, key=order)

    # ------------------------------------------------------------ identity
    @property
    def name(self) -> str:
        return self.config.label()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubNet({self.supernet.name}/{self.name}, "
            f"{self.num_layers} layers, {self.weight_bytes / 1e6:.2f} MB)"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubNet):
            return NotImplemented
        return self.supernet.name == other.supernet.name and self.config == other.config

    def __hash__(self) -> int:
        return hash((self.supernet.name, self.config))

    # ------------------------------------------------------------ structure
    @property
    def layer_slices(self) -> dict[str, LayerSlice]:
        """Mapping layer name -> active slice, in arbitrary order."""
        return dict(self._slices)

    @property
    def ordered_slices(self) -> list[LayerSlice]:
        """Active slices in network order."""
        return [self._slices[name] for name in self._ordered_names]

    @property
    def layer_names(self) -> list[str]:
        return list(self._ordered_names)

    @property
    def num_layers(self) -> int:
        return len(self._slices)

    def active_layers(self) -> list[ConvLayerSpec]:
        """Concrete layer specs at the SubNet's (sliced) channel counts.

        These carry the *activated* in/out channel counts so the accelerator
        model computes the SubNet's true FLOPs and data movement, not the
        maximal SuperNet's.
        """
        layers = []
        for name in self._ordered_names:
            sl = self._slices[name]
            layers.append(sl.layer.with_channels(sl.channels, sl.kernels))
        return layers

    # ------------------------------------------------------------ quantities
    @cached_property
    def weight_bytes(self) -> int:
        """Total weight bytes activated by this SubNet."""
        return sum(sl.weight_bytes for sl in self._slices.values())

    @cached_property
    def macs(self) -> int:
        return sum(layer.macs for layer in self.active_layers())

    @cached_property
    def flops(self) -> int:
        return 2 * self.macs

    @cached_property
    def total_act_bytes(self) -> int:
        return sum(
            layer.input_act_bytes + layer.output_act_bytes
            for layer in self.active_layers()
        )

    # ------------------------------------------------------------- encoding
    def encode(self) -> np.ndarray:
        """Vector encoding ``[K1, C1, ..., KN, CN]`` over the SuperNet layers.

        Layers dropped by elastic depth contribute zeros, so every SubNet (and
        SubGraph) of the same SuperNet encodes to the same dimensionality —
        a requirement for the scheduler's running average and distance
        computations (paper Fig. 6).
        """
        n = self.supernet.num_layers
        vec = np.zeros(2 * n, dtype=np.float64)
        for name, sl in self._slices.items():
            idx = self.supernet.layer_index(name)
            vec[2 * idx] = sl.kernels
            vec[2 * idx + 1] = sl.channels
        return vec

    # ------------------------------------------------------------- overlap
    def shared_bytes_with(self, other: "SubNet") -> int:
        """Weight bytes shared with another SubNet of the same SuperNet."""
        if self.supernet.name != other.supernet.name:
            raise ValueError("cannot intersect SubNets of different SuperNets")
        shared = 0
        for name, sl in self._slices.items():
            other_sl = other._slices.get(name)
            if other_sl is not None:
                shared += sl.intersect(other_sl).weight_bytes
        return shared

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"{self.supernet.name}/{self.name}: {self.num_layers} layers, "
            f"{self.weight_bytes / 1e6:.2f} MB weights, {self.flops / 1e9:.2f} GFLOPs"
        )


def max_subnet(supernet: SuperNet, name: str = "max") -> SubNet:
    """The largest SubNet (all blocks, max expand, max width)."""
    config = SubNetConfig(
        depths=tuple(stage.max_depth for stage in supernet.stages),
        expand_ratio=supernet.elastic.max_expand,
        width_mult=supernet.elastic.max_width,
        name=name,
    )
    return SubNet(supernet, config)


def min_subnet(supernet: SuperNet, name: str = "min") -> SubNet:
    """The smallest SubNet (min depth, min expand, min width)."""
    config = SubNetConfig(
        depths=tuple(stage.depth_choices[0] for stage in supernet.stages),
        expand_ratio=supernet.elastic.expand_choices[0],
        width_mult=supernet.elastic.width_choices[0],
        name=name,
    )
    return SubNet(supernet, config)
