"""The SuperNet container: elastic stages plus shared-weight bookkeeping.

A :class:`SuperNet` owns the maximal architecture (stem + elastic stages +
head).  SubNets are *views* of that structure: each elastic layer of a SubNet
is a slice (first ``K`` kernels x first ``C`` channels) of the corresponding
maximal layer, exactly how OFA supernets share weights (important kernels /
channels are sorted first so every SubNet uses a prefix of the maximal
weights).  This prefix property is what makes SubGraph intersection and the
Persistent Buffer cache well-defined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.supernet.layers import ConvLayerSpec, LayerSlice
from repro.supernet.stages import HeadSpec, StageSpec, StemSpec


@dataclass(frozen=True)
class ElasticConfig:
    """Valid elastic dimension choices for a SuperNet.

    Attributes
    ----------
    depth_choices:
        Allowed per-stage depth values (e.g. ``(2, 3, 4)``).
    expand_choices:
        Allowed expand-ratio values (e.g. ``(0.2, 0.25, 0.35)`` for ResNet50
        or ``(3, 4, 6)`` for MobileNetV3).
    width_choices:
        Allowed global width multipliers (e.g. ``(0.65, 0.8, 1.0)``).
    """

    depth_choices: tuple[int, ...]
    expand_choices: tuple[float, ...]
    width_choices: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not self.depth_choices or not self.expand_choices or not self.width_choices:
            raise ValueError("every elastic dimension needs at least one choice")
        for name, choices in (
            ("depth_choices", self.depth_choices),
            ("expand_choices", self.expand_choices),
            ("width_choices", self.width_choices),
        ):
            if tuple(sorted(choices)) != tuple(choices):
                raise ValueError(f"{name} must be sorted ascending: {choices}")

    @property
    def max_expand(self) -> float:
        return self.expand_choices[-1]

    @property
    def max_width(self) -> float:
        return self.width_choices[-1]

    @property
    def max_depth(self) -> int:
        return self.depth_choices[-1]

    def design_space_size(self, num_stages: int) -> int:
        """Number of distinct SubNet configurations (per-stage depth & expand)."""
        per_stage = len(self.depth_choices) * len(self.expand_choices)
        return (per_stage**num_stages) * len(self.width_choices)


class SuperNet:
    """A weight-shared SuperNet composed of a stem, elastic stages and a head.

    Parameters
    ----------
    name:
        SuperNet family name (``"ofa_resnet50"`` or ``"ofa_mobilenetv3"``).
    stem, head:
        Fixed (always-active) layers.
    stages:
        The elastic stages.
    elastic:
        The valid elastic dimension choices.
    input_hw:
        Input image resolution (square).
    """

    def __init__(
        self,
        name: str,
        *,
        stem: StemSpec,
        stages: Sequence[StageSpec],
        head: HeadSpec,
        elastic: ElasticConfig,
        input_hw: int = 224,
    ) -> None:
        if not stages:
            raise ValueError("a SuperNet needs at least one elastic stage")
        self.name = name
        self.stem = stem
        self.stages = tuple(stages)
        self.head = head
        self.elastic = elastic
        self.input_hw = input_hw
        # Canonical maximal layers, in network order, indexed by name.
        self._max_layers: dict[str, ConvLayerSpec] = {}
        for layer in self._iter_max_layers():
            if layer.name in self._max_layers:
                raise ValueError(f"duplicate layer name in SuperNet: {layer.name}")
            self._max_layers[layer.name] = layer
        self._layer_order = {name: i for i, name in enumerate(self._max_layers)}

    # ---------------------------------------------------------------- layers
    def _iter_max_layers(self) -> Iterator[ConvLayerSpec]:
        yield from self.stem.layers
        for stage in self.stages:
            yield from stage.max_layers()
        yield from self.head.layers

    @property
    def max_layers(self) -> list[ConvLayerSpec]:
        """All layers of the maximal architecture, in network order."""
        return list(self._max_layers.values())

    @property
    def layer_names(self) -> list[str]:
        return list(self._max_layers)

    @property
    def num_layers(self) -> int:
        return len(self._max_layers)

    def layer(self, name: str) -> ConvLayerSpec:
        """Look up a maximal layer by name."""
        try:
            return self._max_layers[name]
        except KeyError as exc:
            raise KeyError(f"{self.name} has no layer named {name!r}") from exc

    def layer_index(self, name: str) -> int:
        """Position of a layer in network order (used for vector encodings)."""
        try:
            return self._layer_order[name]
        except KeyError as exc:
            raise KeyError(f"{self.name} has no layer named {name!r}") from exc

    # ------------------------------------------------------------ properties
    @property
    def max_weight_bytes(self) -> int:
        """Weight footprint of the full (maximal) SuperNet."""
        return sum(layer.weight_bytes for layer in self.max_layers)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def design_space_size(self) -> int:
        """Number of distinct SubNet configurations expressible."""
        return self.elastic.design_space_size(self.num_stages)

    # ------------------------------------------------------------- subnets
    def slices_for(
        self,
        *,
        depths: Sequence[int],
        expand_ratio: float,
        width_mult: float = 1.0,
    ) -> dict[str, LayerSlice]:
        """Compute the layer slices activated by an elastic configuration.

        Returns a mapping from layer name to :class:`LayerSlice`.  Layers not
        present (dropped by elastic depth) are omitted.  Stem and head layers
        are always present and always full.
        """
        if len(depths) != self.num_stages:
            raise ValueError(
                f"{self.name}: expected {self.num_stages} per-stage depths, "
                f"got {len(depths)}"
            )
        slices: dict[str, LayerSlice] = {}
        for layer in itertools.chain(self.stem.layers, self.head.layers):
            slices[layer.name] = LayerSlice(
                layer=layer, kernels=layer.out_channels, channels=layer.in_channels
            )
        for stage, depth in zip(self.stages, depths):
            active = stage.materialize(
                depth=depth, expand_ratio=expand_ratio, width_mult=width_mult
            )
            for sub_layer in active:
                max_layer = self._max_layers.get(sub_layer.name)
                if max_layer is None:
                    raise KeyError(
                        f"materialized layer {sub_layer.name!r} missing from the "
                        f"maximal SuperNet — block materialization is inconsistent"
                    )
                slices[sub_layer.name] = LayerSlice(
                    layer=max_layer,
                    kernels=min(sub_layer.out_channels, max_layer.out_channels),
                    channels=min(sub_layer.in_channels, max_layer.in_channels),
                )
        return slices

    def validate_config(
        self, depths: Sequence[int], expand_ratio: float, width_mult: float
    ) -> None:
        """Raise ``ValueError`` if the elastic configuration is not allowed."""
        for stage, depth in zip(self.stages, depths):
            if depth not in stage.depth_choices:
                raise ValueError(
                    f"{self.name}/{stage.name}: depth {depth} not in {stage.depth_choices}"
                )
        if expand_ratio not in self.elastic.expand_choices:
            raise ValueError(
                f"{self.name}: expand_ratio {expand_ratio} not in "
                f"{self.elastic.expand_choices}"
            )
        if width_mult not in self.elastic.width_choices:
            raise ValueError(
                f"{self.name}: width_mult {width_mult} not in {self.elastic.width_choices}"
            )

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """Multi-line human-readable summary of the SuperNet."""
        lines = [
            f"SuperNet {self.name}: {self.num_stages} stages, "
            f"{self.num_layers} maximal layers, "
            f"{self.max_weight_bytes / 1e6:.2f} MB max weights, "
            f"input {self.input_hw}x{self.input_hw}",
        ]
        for stage in self.stages:
            lines.append(
                f"  {stage.name}: {stage.max_depth} blocks "
                f"({stage.in_channels}->{stage.out_channels} ch, "
                f"{stage.input_hw}->{stage.output_hw} px), "
                f"depth choices {stage.depth_choices}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SuperNet(name={self.name!r}, stages={self.num_stages}, layers={self.num_layers})"
