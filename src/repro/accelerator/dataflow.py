"""Per-layer dataflow latency model.

Combines the DPE compute model, the DRAM model and the buffer hierarchy into
the per-convolution-layer latency estimate of SushiAccel's analytic model
(Section 5.1 "Architecture Analytic Model").  The model captures the dataflow
properties the paper's results rest on:

* **Activation residency.**  The Streaming Buffer holds entire input
  activations and the Output Buffer accumulates final oActs (Fig. 7), so
  intermediate activations that fit on chip never cross the DRAM interface;
  only the query image, the final output, and activations too large for the
  SB/OB spill off-chip.  Off-chip traffic is therefore dominated by weights,
  which is what makes SubGraph Stationary caching pay off.
* **Partial weight-prefetch hiding** (Fig. 9b).  The ping-pong Dynamic Buffer
  prefetches the next weight tile while the current one computes, but the
  off-chip interface is shared with activation spills and the prefetch window
  is bounded by the DB capacity, so only a fraction
  (``weight_overlap_fraction``) of a layer's compute time is available for
  hiding weight traffic.  The remainder of the weight stream is exposed on
  the critical path — the "Critical Latency in Off-chip Weights Mem Access"
  slice of Fig. 10 — and it is exactly this exposed portion that SGS caching
  removes.
* **SubGraph reuse** (Fig. 9a).  Weight bytes resident in the Persistent
  Buffer are read from on-chip storage at the (much higher) on-chip
  bandwidth instead of being fetched from DRAM.

Only the last point depends on what the PB holds.  :func:`layer_profile`
computes everything else about a layer at its position in a SubNet once
(compute cycles, first weight tile, SB/OB spills, activation transfers), and
:meth:`LayerProfile.latency` adds the cached-bytes terms.
:func:`layer_latency` is the two in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.dpe import DPEArrayConfig
from repro.accelerator.dram import DRAMModel
from repro.accelerator.tiling import first_tile_bytes
from repro.supernet.layers import ConvLayerSpec, LayerKind

#: Fraction of a layer's compute time during which the off-chip interface is
#: free to prefetch weights into the ping-pong Dynamic Buffer.  Calibrated so
#: the exposed-weight share of end-to-end latency matches Fig. 10.
DEFAULT_WEIGHT_OVERLAP_FRACTION: float = 0.1


@dataclass(frozen=True)
class LayerLatency:
    """Latency decomposition of one layer, in accelerator cycles.

    ``total_cycles`` is what the layer contributes to the end-to-end critical
    path; the remaining fields decompose it into the categories plotted in
    Fig. 10 (compute, off-chip iAct / weight / oAct access, on-chip weight
    access).
    """

    layer_name: str
    compute_cycles: float
    exposed_iact_cycles: float
    exposed_weight_cycles: float
    exposed_oact_cycles: float
    onchip_weight_cycles: float
    offchip_bytes: float
    onchip_weight_bytes: float
    cached_weight_bytes: float

    @property
    def total_cycles(self) -> float:
        return (
            self.compute_cycles
            + self.exposed_iact_cycles
            + self.exposed_weight_cycles
            + self.exposed_oact_cycles
            + self.onchip_weight_cycles
        )


@dataclass(frozen=True)
class LayerProfile:
    """The cache-independent terms of one layer at one position in a SubNet.

    Compute cycles, the first weight tile, the SB/OB spill decisions and the
    activation transfer cycles do not depend on what the Persistent Buffer
    holds, so a profile computes them once; :meth:`latency` adds the terms
    that depend on the cached weight bytes.  ``layer_profile(...).latency(c)``
    performs the same float operations, in the same order, as evaluating the
    layer from scratch, so it is bit-identical however often the profile is
    reused.
    """

    layer_name: str
    is_pool: bool
    weight_bytes: int
    compute_cycles: float
    first_tile_bytes: int
    iact_bytes: float
    oact_bytes: float
    act_cycles: float
    iact_share: float
    oact_share: float
    hideable_cycles: float
    onchip_bandwidth_bytes_per_cycle: float
    onchip_first_tile_cycles: float
    dram: DRAMModel

    def latency(self, cached_weight_bytes: float = 0.0) -> LayerLatency:
        """The layer's latency with ``cached_weight_bytes`` resident in the PB.

        ``cached_weight_bytes`` is clamped to the layer's weight footprint.
        """
        if self.is_pool:
            return LayerLatency(
                layer_name=self.layer_name,
                compute_cycles=0.0,
                exposed_iact_cycles=0.0,
                exposed_weight_cycles=0.0,
                exposed_oact_cycles=0.0,
                onchip_weight_cycles=0.0,
                offchip_bytes=0.0,
                onchip_weight_bytes=0.0,
                cached_weight_bytes=0.0,
            )
        dram = self.dram
        compute = self.compute_cycles
        cached = float(min(max(cached_weight_bytes, 0.0), self.weight_bytes))
        distinct_weight_bytes = self.weight_bytes - cached

        weight_cycles = dram.transfer_cycles(distinct_weight_bytes)
        offchip_bytes = distinct_weight_bytes + self.iact_bytes + self.oact_bytes

        # Weight prefetch: hidden up to a fraction of the compute time, except the
        # first tile which must land before the array starts.
        prologue_weight = dram.transfer_cycles(
            min(self.first_tile_bytes, distinct_weight_bytes)
        )
        hideable = self.hideable_cycles
        exposed_weight = prologue_weight + max(0.0, weight_cycles - prologue_weight - hideable)
        exposed_weight = min(exposed_weight, weight_cycles)

        # Activation spills are streamed; they overlap compute up to the compute
        # time not already consumed by weight prefetch.
        act_hideable = max(0.0, compute - min(weight_cycles, hideable))
        act_cycles = self.act_cycles
        exposed_act = max(0.0, act_cycles - act_hideable)
        if act_cycles > 0:
            exposed_iact = exposed_act * self.iact_share
            exposed_oact = exposed_act * self.oact_share
        else:
            exposed_iact = exposed_oact = 0.0

        # Cached weights stream from the PB at on-chip bandwidth; only the first
        # tile read is exposed (the rest overlaps compute).
        onchip_bw = self.onchip_bandwidth_bytes_per_cycle
        if cached > 0 and onchip_bw > 0:
            onchip_cycles_raw = cached / onchip_bw
            onchip_exposed = min(
                onchip_cycles_raw, self.onchip_first_tile_cycles
            ) + max(0.0, onchip_cycles_raw - compute)
        else:
            onchip_exposed = 0.0

        return LayerLatency(
            layer_name=self.layer_name,
            compute_cycles=compute,
            exposed_iact_cycles=exposed_iact,
            exposed_weight_cycles=exposed_weight,
            exposed_oact_cycles=exposed_oact,
            onchip_weight_cycles=onchip_exposed,
            offchip_bytes=offchip_bytes,
            onchip_weight_bytes=cached,
            cached_weight_bytes=cached,
        )


def layer_profile(
    layer: ConvLayerSpec,
    dpe: DPEArrayConfig,
    dram: DRAMModel,
    *,
    onchip_bandwidth_bytes_per_cycle: float = 512.0,
    sb_capacity_bytes: int | None = None,
    ob_capacity_bytes: int | None = None,
    is_first_layer: bool = False,
    is_last_layer: bool = False,
    weight_overlap_fraction: float = DEFAULT_WEIGHT_OVERLAP_FRACTION,
) -> LayerProfile:
    """The cache-independent terms of ``layer``; see :func:`layer_latency`."""
    if layer.kind == LayerKind.POOL:
        return LayerProfile(
            layer_name=layer.name,
            is_pool=True,
            weight_bytes=0,
            compute_cycles=0.0,
            first_tile_bytes=0,
            iact_bytes=0.0,
            oact_bytes=0.0,
            act_cycles=0.0,
            iact_share=0.0,
            oact_share=0.0,
            hideable_cycles=0.0,
            onchip_bandwidth_bytes_per_cycle=onchip_bandwidth_bytes_per_cycle,
            onchip_first_tile_cycles=0.0,
            dram=dram,
        )
    if not (0.0 <= weight_overlap_fraction <= 1.0):
        raise ValueError("weight_overlap_fraction must be in [0, 1]")

    # Activation spill decisions.
    iact_spills = is_first_layer or (
        sb_capacity_bytes is not None and layer.input_act_bytes > sb_capacity_bytes
    )
    oact_spills = is_last_layer or (
        ob_capacity_bytes is not None and layer.output_act_bytes > ob_capacity_bytes
    )
    iact_bytes = float(layer.input_act_bytes) if iact_spills else 0.0
    oact_bytes = float(layer.output_act_bytes) if oact_spills else 0.0

    compute = float(dpe.compute_cycles(layer))
    iact_cycles = dram.transfer_cycles(iact_bytes)
    oact_cycles = dram.transfer_cycles(oact_bytes)
    act_cycles = iact_cycles + oact_cycles
    first_tile = first_tile_bytes(layer, dpe)
    return LayerProfile(
        layer_name=layer.name,
        is_pool=False,
        weight_bytes=layer.weight_bytes,
        compute_cycles=compute,
        first_tile_bytes=first_tile,
        iact_bytes=iact_bytes,
        oact_bytes=oact_bytes,
        act_cycles=act_cycles,
        iact_share=iact_cycles / act_cycles if act_cycles > 0 else 0.0,
        oact_share=oact_cycles / act_cycles if act_cycles > 0 else 0.0,
        hideable_cycles=weight_overlap_fraction * compute,
        onchip_bandwidth_bytes_per_cycle=onchip_bandwidth_bytes_per_cycle,
        onchip_first_tile_cycles=(
            first_tile / onchip_bandwidth_bytes_per_cycle
            if onchip_bandwidth_bytes_per_cycle > 0
            else 0.0
        ),
        dram=dram,
    )


def layer_latency(
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
    """Latency of one layer given how many of its weight bytes are SGS-cached.

    Parameters
    ----------
    layer:
        The layer at its activated channel counts.
    cached_weight_bytes:
        Weight bytes of this layer resident in the Persistent Buffer (clamped
        to the layer's weight footprint).
    onchip_bandwidth_bytes_per_cycle:
        Read bandwidth of the PB; cached weights are streamed at this rate.
    sb_capacity_bytes / ob_capacity_bytes:
        Streaming / Output buffer capacities.  Activations larger than the
        corresponding buffer spill off-chip; ``None`` means "always fits".
    is_first_layer / is_last_layer:
        The first layer always reads the query image from DRAM and the last
        layer always writes the result back.
    weight_overlap_fraction:
        Fraction of compute time usable to hide off-chip weight prefetch.
    """
    return layer_profile(
        layer,
        dpe,
        dram,
        onchip_bandwidth_bytes_per_cycle=onchip_bandwidth_bytes_per_cycle,
        sb_capacity_bytes=sb_capacity_bytes,
        ob_capacity_bytes=ob_capacity_bytes,
        is_first_layer=is_first_layer,
        is_last_layer=is_last_layer,
        weight_overlap_fraction=weight_overlap_fraction,
    ).latency(cached_weight_bytes)
