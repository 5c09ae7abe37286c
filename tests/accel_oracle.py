"""The per-pair accelerator evaluation, kept as a test oracle.

``reference_breakdown(model, subnet, cached, layer_filter=...)`` evaluates
what ``SushiAccelModel.subnet_breakdown`` evaluates, the literal way: every
call rebuilds every active layer spec and runs :func:`reference_layer_latency`
on it, which recomputes compute cycles, the first weight tile, the SB/OB
spill decisions and the activation transfers from scratch, whatever the PB
holds.  The model under test computes those cache-independent terms once per
SubNet (its layer profiles) and only the cached-bytes terms per call.  The
two must agree bit for bit: ``tests/properties/test_property_accel.py``
compares every field of their breakdowns by ``repr``.
"""

from __future__ import annotations

from repro.accelerator.analytic_model import (
    LatencyComponents,
    SubNetLatencyBreakdown,
    SushiAccelModel,
)
from repro.accelerator.dataflow import DEFAULT_WEIGHT_OVERLAP_FRACTION, LayerLatency
from repro.accelerator.dpe import DPEArrayConfig
from repro.accelerator.dram import DRAMModel
from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.accelerator.tiling import first_tile_bytes
from repro.supernet.layers import ConvLayerSpec, LayerKind
from repro.supernet.subnet import SubNet


def reference_layer_latency(
    layer: ConvLayerSpec,
    dpe: DPEArrayConfig,
    dram: DRAMModel,
    *,
    cached_weight_bytes: float = 0.0,
    onchip_bandwidth_bytes_per_cycle: float = 512.0,
    sb_capacity_bytes: int | None = None,
    ob_capacity_bytes: int | None = None,
    is_first_layer: bool = False,
    is_last_layer: bool = False,
    weight_overlap_fraction: float = DEFAULT_WEIGHT_OVERLAP_FRACTION,
) -> LayerLatency:
    """One layer's latency, every term computed from scratch."""
    if layer.kind == LayerKind.POOL:
        return LayerLatency(
            layer_name=layer.name,
            compute_cycles=0.0,
            exposed_iact_cycles=0.0,
            exposed_weight_cycles=0.0,
            exposed_oact_cycles=0.0,
            onchip_weight_cycles=0.0,
            offchip_bytes=0.0,
            onchip_weight_bytes=0.0,
            cached_weight_bytes=0.0,
        )
    if not (0.0 <= weight_overlap_fraction <= 1.0):
        raise ValueError("weight_overlap_fraction must be in [0, 1]")

    cached = float(min(max(cached_weight_bytes, 0.0), layer.weight_bytes))
    distinct_weight_bytes = layer.weight_bytes - cached

    iact_spills = is_first_layer or (
        sb_capacity_bytes is not None and layer.input_act_bytes > sb_capacity_bytes
    )
    oact_spills = is_last_layer or (
        ob_capacity_bytes is not None and layer.output_act_bytes > ob_capacity_bytes
    )
    iact_bytes = float(layer.input_act_bytes) if iact_spills else 0.0
    oact_bytes = float(layer.output_act_bytes) if oact_spills else 0.0

    compute = float(dpe.compute_cycles(layer))

    weight_cycles = dram.transfer_cycles(distinct_weight_bytes)
    iact_cycles = dram.transfer_cycles(iact_bytes)
    oact_cycles = dram.transfer_cycles(oact_bytes)
    offchip_bytes = distinct_weight_bytes + iact_bytes + oact_bytes

    prologue_weight = dram.transfer_cycles(
        min(first_tile_bytes(layer, dpe), distinct_weight_bytes)
    )
    hideable = weight_overlap_fraction * compute
    exposed_weight = prologue_weight + max(0.0, weight_cycles - prologue_weight - hideable)
    exposed_weight = min(exposed_weight, weight_cycles)

    act_hideable = max(0.0, compute - min(weight_cycles, hideable))
    act_cycles = iact_cycles + oact_cycles
    exposed_act = max(0.0, act_cycles - act_hideable)
    if act_cycles > 0:
        exposed_iact = exposed_act * (iact_cycles / act_cycles)
        exposed_oact = exposed_act * (oact_cycles / act_cycles)
    else:
        exposed_iact = exposed_oact = 0.0

    if cached > 0 and onchip_bandwidth_bytes_per_cycle > 0:
        onchip_cycles_raw = cached / onchip_bandwidth_bytes_per_cycle
        onchip_exposed = min(
            onchip_cycles_raw,
            first_tile_bytes(layer, dpe) / onchip_bandwidth_bytes_per_cycle,
        ) + max(0.0, onchip_cycles_raw - compute)
    else:
        onchip_exposed = 0.0

    return LayerLatency(
        layer_name=layer.name,
        compute_cycles=compute,
        exposed_iact_cycles=exposed_iact,
        exposed_weight_cycles=exposed_weight,
        exposed_oact_cycles=exposed_oact,
        onchip_weight_cycles=onchip_exposed,
        offchip_bytes=offchip_bytes,
        onchip_weight_bytes=cached,
        cached_weight_bytes=cached,
    )


def reference_breakdown(
    model: SushiAccelModel,
    subnet: SubNet,
    cached: CachedSubGraph | None = None,
    *,
    layer_filter=None,
) -> SubNetLatencyBreakdown:
    """``model.subnet_breakdown(subnet, cached, ...)``, every layer from scratch."""
    cached_per_layer: dict[str, int]
    if cached is None or not model.with_pb:
        cached_per_layer = {}
    else:
        cached_per_layer = cached.overlap_bytes_per_layer(subnet)

    onchip_bw = model.platform.on_chip_bandwidth_bytes_per_cycle
    sb_capacity = model.buffers["SB"].capacity_bytes
    ob_capacity = model.buffers["OB"].capacity_bytes
    pairs = list(zip(subnet.ordered_slices, subnet.active_layers()))
    if layer_filter is not None:
        pairs = [(sl, layer) for sl, layer in pairs if layer_filter(layer)]
        if not pairs:
            raise ValueError("layer_filter removed every layer of the SubNet")
    active_layers = [layer for _, layer in pairs]
    per_layer: list[LayerLatency] = []
    for idx, (sl, layer) in enumerate(pairs):
        cached_bytes = cached_per_layer.get(sl.layer.name, 0)
        per_layer.append(
            reference_layer_latency(
                layer,
                model.dpe,
                model.dram,
                cached_weight_bytes=cached_bytes,
                onchip_bandwidth_bytes_per_cycle=onchip_bw,
                sb_capacity_bytes=sb_capacity,
                ob_capacity_bytes=ob_capacity,
                is_first_layer=idx == 0,
                is_last_layer=idx == len(active_layers) - 1,
                weight_overlap_fraction=model.weight_overlap_fraction,
            )
        )

    to_ms = model.dram.cycles_to_ms
    compute = sum(ll.compute_cycles for ll in per_layer)
    iact = sum(ll.exposed_iact_cycles for ll in per_layer)
    weight = sum(ll.exposed_weight_cycles for ll in per_layer)
    onchip = sum(ll.onchip_weight_cycles for ll in per_layer)
    oact = sum(ll.exposed_oact_cycles for ll in per_layer)
    components = LatencyComponents(
        compute_ms=to_ms(compute + model.query_overhead_cycles),
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
        platform_name=model.platform.name,
        per_layer=tuple(per_layer),
        components=components,
        offchip_bytes=offchip_bytes,
        onchip_weight_bytes=onchip_weight_bytes,
        cached_weight_bytes=cached_bytes_total,
        offchip_energy_mj=model.dram.off_chip_energy_mj(offchip_bytes),
        onchip_energy_mj=model.dram.on_chip_energy_mj(
            onchip_weight_bytes + subnet.total_act_bytes
        ),
    )
