"""Fig. 14 — Per-layer latency of SushiAccel (w/o PB) vs the Xilinx DPU.

The paper runs the 3x3 convolution layers of ResNet50's *minimum* SubNet on
both accelerators (ZCU104) and reports a ~25 % geometric-mean speedup for
SushiAccel, with the DPU winning on a few layers whose large spatial extents
favour its X/Y parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.dpu_model import XilinxDPUModel
from repro.accelerator.platforms import ZCU104, PlatformConfig
from repro.analysis.comparison import geometric_mean_speedup
from repro.analysis.reporting import format_table
from repro.supernet.layers import ConvLayerSpec, LayerKind
from repro.supernet.zoo import load_supernet, paper_pareto_subnets


def _is_3x3_conv(layer: ConvLayerSpec) -> bool:
    return layer.kind == LayerKind.CONV and layer.kernel_size == 3


@dataclass(frozen=True)
class LayerComparison:
    layer_name: str
    dpu_ms: float
    sushi_ms: float

    @property
    def speedup(self) -> float:
        return self.dpu_ms / self.sushi_ms


@dataclass(frozen=True)
class Fig14Result:
    layers: tuple[LayerComparison, ...]
    geomean_speedup: float

    @property
    def geomean_speedup_percent(self) -> float:
        return 100.0 * (self.geomean_speedup - 1.0)

    @property
    def num_layers_dpu_wins(self) -> int:
        return sum(1 for l in self.layers if l.speedup < 1.0)


def run(platform: PlatformConfig = ZCU104) -> Fig14Result:
    supernet = load_supernet("ofa_resnet50")
    min_subnet = paper_pareto_subnets(supernet)[0]
    dpu = XilinxDPUModel()
    sushi = SushiAccelModel(platform, with_pb=False)
    dram = sushi.dram
    comparisons = []
    for layer in min_subnet.active_layers():
        if not _is_3x3_conv(layer):
            continue
        dpu_ms = dpu.layer_latency_ms(layer)
        from repro.accelerator.dataflow import layer_latency

        ll = layer_latency(
            layer,
            sushi.dpe,
            dram,
            sb_capacity_bytes=sushi.buffers["SB"].capacity_bytes,
            ob_capacity_bytes=sushi.buffers["OB"].capacity_bytes,
            weight_overlap_fraction=sushi.weight_overlap_fraction,
        )
        sushi_ms = dram.cycles_to_ms(ll.total_cycles)
        comparisons.append(
            LayerComparison(layer_name=layer.name, dpu_ms=dpu_ms, sushi_ms=sushi_ms)
        )
    geomean = geometric_mean_speedup(
        [c.dpu_ms for c in comparisons], [c.sushi_ms for c in comparisons]
    )
    return Fig14Result(layers=tuple(comparisons), geomean_speedup=geomean)


def report(result: Fig14Result) -> str:
    rows = {
        c.layer_name: {
            "Xilinx DPU (ms)": c.dpu_ms,
            "SushiAccel w/o PB (ms)": c.sushi_ms,
            "speedup": c.speedup,
        }
        for c in result.layers
    }
    title = (
        f"Fig. 14 — SushiAccel vs Xilinx DPU on ResNet50 min-SubNet 3x3 convs "
        f"(geomean speedup {result.geomean_speedup_percent:.1f}%, "
        f"DPU wins {result.num_layers_dpu_wins}/{len(result.layers)} layers)"
    )
    return format_table(rows, title=title, precision=3)
