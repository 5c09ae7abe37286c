"""Synthetic weight storage and shared-weight bookkeeping.

The paper's artifact uses real OFA checkpoints; this reproduction replaces
them with a *structural* weight store: every maximal layer owns a contiguous
byte extent, and any layer slice maps to a prefix of that extent (OFA sorts
important kernels/channels first, so SubNets always use weight prefixes).
This is sufficient for everything SUSHI measures — cache occupancy, off-chip
traffic, hit ratios — and avoids shipping hundreds of MB of checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.supernet.layers import LayerSlice
from repro.supernet.subnet import SubNet
from repro.supernet.supernet import SuperNet


@dataclass(frozen=True)
class WeightExtent:
    """A contiguous byte range of the SuperNet's weight address space."""

    layer_name: str
    offset: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


class WeightStore:
    """Byte-addressed view of a SuperNet's weights.

    Each maximal layer is assigned a contiguous extent; a layer slice maps to
    a prefix of its layer's extent proportional to the slice's byte footprint.
    All accounting is done on byte counts only.
    """

    def __init__(self, supernet: SuperNet) -> None:
        self.supernet = supernet
        self._extents: dict[str, WeightExtent] = {}
        offset = 0
        for layer in supernet.max_layers:
            self._extents[layer.name] = WeightExtent(
                layer_name=layer.name, offset=offset, nbytes=layer.weight_bytes
            )
            offset += layer.weight_bytes
        self._total_bytes = offset

    # ------------------------------------------------------------ extents
    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def extent(self, layer_name: str) -> WeightExtent:
        try:
            return self._extents[layer_name]
        except KeyError as exc:
            raise KeyError(f"no weights stored for layer {layer_name!r}") from exc

    def slice_extent(self, sl: LayerSlice) -> WeightExtent:
        """Byte extent occupied by a layer slice (a prefix of the layer extent)."""
        base = self.extent(sl.layer.name)
        return WeightExtent(
            layer_name=sl.layer.name,
            offset=base.offset,
            nbytes=min(sl.weight_bytes, base.nbytes),
        )

    def subnet_extents(self, subnet: SubNet) -> list[WeightExtent]:
        """All byte extents a SubNet touches, in network order."""
        return [self.slice_extent(sl) for sl in subnet.ordered_slices]


class SharedWeightIndex:
    """Shared-weight accounting across a family of SubNets.

    Used to verify the paper's reported shared-weight footprints (7.55 MB for
    the ResNet50 family, 2.90 MB for MobileNetV3) and to drive cache-hit
    analytics.
    """

    def __init__(self, subnets: Sequence[SubNet]) -> None:
        if not subnets:
            raise ValueError("SharedWeightIndex needs at least one SubNet")
        supernet_names = {sn.supernet.name for sn in subnets}
        if len(supernet_names) != 1:
            raise ValueError(
                f"all SubNets must come from the same SuperNet, got {supernet_names}"
            )
        self.subnets = list(subnets)
        self.supernet = subnets[0].supernet

    def common_slices(self) -> dict[str, LayerSlice]:
        """Per-layer intersection over *all* SubNets (the globally shared SubGraph)."""
        common: dict[str, LayerSlice] = dict(self.subnets[0].layer_slices)
        for subnet in self.subnets[1:]:
            slices = subnet.layer_slices
            next_common: dict[str, LayerSlice] = {}
            for name, sl in common.items():
                other = slices.get(name)
                if other is None:
                    continue
                inter = sl.intersect(other)
                if not inter.is_empty:
                    next_common[name] = inter
            common = next_common
        return common

    def shared_bytes(self) -> int:
        """Weight bytes shared by every SubNet in the family."""
        return sum(sl.weight_bytes for sl in self.common_slices().values())

    def sharing_fraction(self) -> float:
        """Globally shared bytes as a fraction of the smallest SubNet."""
        smallest = min(sn.weight_bytes for sn in self.subnets)
        if smallest == 0:
            return 0.0
        return self.shared_bytes() / smallest

    def summary(self) -> dict[str, float]:
        """Headline sharing statistics (sizes in MB) for reports."""
        sizes = [sn.weight_bytes / 1e6 for sn in self.subnets]
        return {
            "num_subnets": float(len(self.subnets)),
            "min_subnet_mb": min(sizes),
            "max_subnet_mb": max(sizes),
            "shared_mb": self.shared_bytes() / 1e6,
            "sharing_fraction_of_min": self.sharing_fraction(),
        }
