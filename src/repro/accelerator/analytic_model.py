"""SushiAccel end-to-end analytic model: SubNet latency and energy.

Composes the DPE array, DRAM model and buffer hierarchy into per-SubNet
latency breakdowns (Fig. 10), off-chip/on-chip energy estimates (Fig. 13b)
and the latency numbers that populate SushiAbs's latency table.

:meth:`SushiAccelModel.subnet_breakdown` is the one evaluator.  A model
memoizes each SubNet's layer profiles (the terms that do not depend on the
cached SubGraph, :class:`~repro.accelerator.dataflow.LayerProfile`), so
evaluating one SubNet against every candidate SubGraph computes them once;
the result is bit-identical to evaluating every layer from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.buffers import BufferHierarchy, default_hierarchy
from repro.accelerator.dataflow import (
    DEFAULT_WEIGHT_OVERLAP_FRACTION,
    LayerLatency,
    LayerProfile,
    layer_profile,
)
from repro.accelerator.dpe import DPEArrayConfig
from repro.accelerator.dram import DRAMModel
from repro.accelerator.persistent_buffer import CachedSubGraph, PersistentBuffer
from repro.accelerator.platforms import PlatformConfig
from repro.supernet.subnet import SubNet

#: Fixed per-query control/launch overhead in cycles (driver, descriptor setup).
DEFAULT_QUERY_OVERHEAD_CYCLES: float = 2_000.0


@dataclass(frozen=True)
class LatencyComponents:
    """Aggregated critical-path latency components of one SubNet, in ms.

    These are the five stacked categories of Fig. 10.
    """

    compute_ms: float
    offchip_iact_ms: float
    offchip_weight_ms: float
    onchip_weight_ms: float
    offchip_oact_ms: float

    @property
    def total_ms(self) -> float:
        return (
            self.compute_ms
            + self.offchip_iact_ms
            + self.offchip_weight_ms
            + self.onchip_weight_ms
            + self.offchip_oact_ms
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "compute_ms": self.compute_ms,
            "offchip_iact_ms": self.offchip_iact_ms,
            "offchip_weight_ms": self.offchip_weight_ms,
            "onchip_weight_ms": self.onchip_weight_ms,
            "offchip_oact_ms": self.offchip_oact_ms,
            "total_ms": self.total_ms,
        }


@dataclass(frozen=True)
class SubNetLatencyBreakdown:
    """Full latency/energy result for serving one SubNet once."""

    subnet_name: str
    platform_name: str
    per_layer: tuple[LayerLatency, ...]
    components: LatencyComponents
    offchip_bytes: float
    onchip_weight_bytes: float
    cached_weight_bytes: float
    offchip_energy_mj: float
    onchip_energy_mj: float

    @property
    def latency_ms(self) -> float:
        return self.components.total_ms


class SushiAccelModel:
    """Analytic model of SushiAccel on a given platform.

    Parameters
    ----------
    platform:
        The deployment platform (clock, DPE parallelism, bandwidth, buffers).
    with_pb:
        Whether the Persistent Buffer is instantiated.  ``None`` follows the
        platform configuration (``pb_kb > 0``).
    query_overhead_cycles:
        Fixed per-query control overhead added to every served query.
    """

    def __init__(
        self,
        platform: PlatformConfig,
        *,
        with_pb: bool | None = None,
        query_overhead_cycles: float | None = None,
        weight_overlap_fraction: float = DEFAULT_WEIGHT_OVERLAP_FRACTION,
    ) -> None:
        self.platform = platform
        self.with_pb = platform.has_pb if with_pb is None else with_pb
        self.dpe = DPEArrayConfig(
            kp=platform.kp, cp=platform.cp, dpe_size=platform.dpe_size
        )
        self.dram = DRAMModel.from_platform(platform)
        self.buffers: BufferHierarchy = default_hierarchy(
            platform, self.dpe, with_pb=self.with_pb
        )
        self.query_overhead_cycles = (
            platform.query_overhead_cycles
            if query_overhead_cycles is None
            else query_overhead_cycles
        )
        self.weight_overlap_fraction = weight_overlap_fraction
        # Layer profiles per SubNet, keyed by identity: equal SubNets of two
        # SuperNet instances (another input size) have different layers.  The
        # entry holds the SubNet, so its id is not reused while memoized.
        self._profiles: dict[int, tuple[SubNet, tuple[LayerProfile, ...]]] = {}

    # ------------------------------------------------------------ factory
    def make_persistent_buffer(self) -> PersistentBuffer:
        """A PersistentBuffer sized to this model's PB allocation."""
        capacity = self.buffers.pb.capacity_bytes if self.with_pb else 0
        return PersistentBuffer(capacity)

    @property
    def pb_capacity_bytes(self) -> int:
        return self.buffers.pb.capacity_bytes if self.with_pb else 0

    # ------------------------------------------------------------ latency
    def _layer_profiles(
        self, subnet: SubNet, layer_filter=None
    ) -> tuple[LayerProfile, ...]:
        """The cache-independent terms of every (filtered) layer, in order."""
        layers = subnet.active_layers()
        if layer_filter is not None:
            layers = [layer for layer in layers if layer_filter(layer)]
            if not layers:
                raise ValueError("layer_filter removed every layer of the SubNet")
        last = len(layers) - 1
        return tuple(
            layer_profile(
                layer,
                self.dpe,
                self.dram,
                onchip_bandwidth_bytes_per_cycle=self.platform.on_chip_bandwidth_bytes_per_cycle,
                sb_capacity_bytes=self.buffers["SB"].capacity_bytes,
                ob_capacity_bytes=self.buffers["OB"].capacity_bytes,
                is_first_layer=idx == 0,
                is_last_layer=idx == last,
                weight_overlap_fraction=self.weight_overlap_fraction,
            )
            for idx, layer in enumerate(layers)
        )

    def subnet_breakdown(
        self,
        subnet: SubNet,
        cached: CachedSubGraph | None = None,
        *,
        layer_filter=None,
    ) -> SubNetLatencyBreakdown:
        """Latency/energy of serving ``subnet`` once with ``cached`` in the PB.

        ``layer_filter`` optionally restricts the evaluation to a subset of
        layers (e.g. only the 3x3 convolutions, as the paper's real-board
        experiments of Section 5.4/5.5 do); it receives each active
        :class:`~repro.supernet.layers.ConvLayerSpec` and returns a bool.
        """
        cached_per_layer: dict[str, int]
        if cached is None or not self.with_pb:
            cached_per_layer = {}
        else:
            cached_per_layer = cached.overlap_bytes_per_layer(subnet)

        if layer_filter is None:
            entry = self._profiles.get(id(subnet))
            if entry is None:
                entry = self._profiles[id(subnet)] = (subnet, self._layer_profiles(subnet))
            profiles = entry[1]
        else:
            profiles = self._layer_profiles(subnet, layer_filter)
        per_layer = [
            profile.latency(cached_per_layer.get(profile.layer_name, 0))
            for profile in profiles
        ]

        to_ms = self.dram.cycles_to_ms
        compute = sum(ll.compute_cycles for ll in per_layer)
        iact = sum(ll.exposed_iact_cycles for ll in per_layer)
        weight = sum(ll.exposed_weight_cycles for ll in per_layer)
        onchip = sum(ll.onchip_weight_cycles for ll in per_layer)
        oact = sum(ll.exposed_oact_cycles for ll in per_layer)
        components = LatencyComponents(
            compute_ms=to_ms(compute + self.query_overhead_cycles),
            offchip_iact_ms=to_ms(iact),
            offchip_weight_ms=to_ms(weight),
            onchip_weight_ms=to_ms(onchip),
            offchip_oact_ms=to_ms(oact),
        )

        offchip_bytes = sum(ll.offchip_bytes for ll in per_layer)
        onchip_weight_bytes = sum(ll.onchip_weight_bytes for ll in per_layer)
        cached_bytes_total = sum(ll.cached_weight_bytes for ll in per_layer)
        return SubNetLatencyBreakdown(
            subnet_name=subnet.name,
            platform_name=self.platform.name,
            per_layer=tuple(per_layer),
            components=components,
            offchip_bytes=offchip_bytes,
            onchip_weight_bytes=onchip_weight_bytes,
            cached_weight_bytes=cached_bytes_total,
            offchip_energy_mj=self.dram.off_chip_energy_mj(offchip_bytes),
            onchip_energy_mj=self.dram.on_chip_energy_mj(
                onchip_weight_bytes + subnet.total_act_bytes
            ),
        )

    def subnet_latency_ms(
        self, subnet: SubNet, cached: CachedSubGraph | None = None
    ) -> float:
        """End-to-end serving latency (ms) of one query on ``subnet``."""
        return self.subnet_breakdown(subnet, cached).latency_ms

    def cache_load_latency_ms(self, nbytes: float) -> float:
        """Latency of loading ``nbytes`` of SubGraph weights into the PB."""
        return self.dram.transfer_ms(nbytes)
