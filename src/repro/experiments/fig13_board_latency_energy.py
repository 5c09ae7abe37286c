"""Fig. 13 — Real-board latency and off-chip energy for ResNet50 SubNets.

Reproduces the comparison of CPU, SushiAccel on ZCU104 (w/o and w/ PB) and
SushiAccel on Alveo U50 (w/o and w/ PB), on the ResNet50 Pareto family.
Following Section 5.4 the accelerator runs the 3x3 convolution layers of the
network; energy is estimated from off-chip DRAM traffic (Fig. 13b compares
the w/o-PB and w/-PB off-chip access energy).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.cpu_model import CPUModel
from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.accelerator.platforms import ALVEO_U50, ZCU104, PlatformConfig
from repro.analysis.reporting import format_table
from repro.supernet.layers import ConvLayerSpec, LayerKind
from repro.supernet.zoo import load_supernet, paper_pareto_subnets


def _is_3x3_conv(layer: ConvLayerSpec) -> bool:
    return layer.kind == LayerKind.CONV and layer.kernel_size == 3


@dataclass(frozen=True)
class BoardRow:
    """Latencies (ms) and off-chip energies (mJ) of one SubNet on every target."""

    label: str
    cpu_ms: float
    zcu104_ms: dict[str, float]
    alveo_ms: dict[str, float]
    zcu104_energy_mj: dict[str, float]

    def speedup_over_cpu(self, board: str, variant: str) -> float:
        latency = self.zcu104_ms[variant] if board == "zcu104" else self.alveo_ms[variant]
        return self.cpu_ms / latency

    def energy_saving_percent(self) -> float:
        base = self.zcu104_energy_mj["w/o PB"]
        if base <= 0:
            return 0.0
        return 100.0 * (base - self.zcu104_energy_mj["w/ PB"]) / base


@dataclass(frozen=True)
class Fig13Result:
    supernet_name: str
    rows: tuple[BoardRow, ...]

    def speedup_range(self, board: str, variant: str) -> tuple[float, float]:
        speeds = [r.speedup_over_cpu(board, variant) for r in self.rows]
        return min(speeds), max(speeds)

    def energy_saving_range_percent(self) -> tuple[float, float]:
        savings = [r.energy_saving_percent() for r in self.rows]
        return min(savings), max(savings)


def run(
    supernet_name: str = "ofa_resnet50",
    *,
    zcu104: PlatformConfig = ZCU104,
    alveo: PlatformConfig = ALVEO_U50,
    conv3x3_only: bool = True,
) -> Fig13Result:
    supernet = load_supernet(supernet_name)
    subnets = paper_pareto_subnets(supernet)
    layer_filter = _is_3x3_conv if conv3x3_only else None
    cpu = CPUModel()
    models = {
        "zcu104": {
            "w/o PB": SushiAccelModel(zcu104, with_pb=False),
            "w/ PB": SushiAccelModel(zcu104, with_pb=True),
        },
        "alveo": {
            "w/o PB": SushiAccelModel(alveo, with_pb=False),
            "w/ PB": SushiAccelModel(alveo, with_pb=True),
        },
    }
    rows = []
    for subnet in subnets:
        # The SubGraph offered for caching covers the layers actually being
        # run (the 3x3 convolutions), mirroring the paper's board experiment.
        if conv3x3_only:
            slices = {
                name: sl
                for name, sl in subnet.layer_slices.items()
                if _is_3x3_conv(sl.layer)
            }
            cached = CachedSubGraph(name=f"sg3x3({subnet.name})", slices=slices)
        else:
            cached = CachedSubGraph.from_subnet(subnet)
        if conv3x3_only:
            cpu_ms = cpu.framework_overhead_ms + sum(
                cpu.layer_latency_ms(layer)
                for layer in subnet.active_layers()
                if _is_3x3_conv(layer)
            )
        else:
            cpu_ms = cpu.subnet_latency_ms(subnet)

        def _latency(model: SushiAccelModel, use_cache: bool) -> float:
            pb = model.make_persistent_buffer()
            fitted = pb.fit_subgraph(cached) if use_cache else None
            return model.subnet_breakdown(
                subnet, cached=fitted, layer_filter=layer_filter
            ).latency_ms

        def _energy(model: SushiAccelModel, use_cache: bool) -> float:
            pb = model.make_persistent_buffer()
            fitted = pb.fit_subgraph(cached) if use_cache else None
            return model.subnet_breakdown(
                subnet, cached=fitted, layer_filter=layer_filter
            ).offchip_energy_mj

        rows.append(
            BoardRow(
                label=subnet.name,
                cpu_ms=cpu_ms,
                zcu104_ms={
                    "w/o PB": _latency(models["zcu104"]["w/o PB"], False),
                    "w/ PB": _latency(models["zcu104"]["w/ PB"], True),
                },
                alveo_ms={
                    "w/o PB": _latency(models["alveo"]["w/o PB"], False),
                    "w/ PB": _latency(models["alveo"]["w/ PB"], True),
                },
                zcu104_energy_mj={
                    "w/o PB": _energy(models["zcu104"]["w/o PB"], False),
                    "w/ PB": _energy(models["zcu104"]["w/ PB"], True),
                },
            )
        )
    return Fig13Result(supernet_name=supernet.name, rows=tuple(rows))


def report(result: Fig13Result) -> str:
    rows = {}
    for r in result.rows:
        rows[r.label] = {
            "CPU (ms)": r.cpu_ms,
            "ZCU104 w/o PB": r.zcu104_ms["w/o PB"],
            "ZCU104 w/ PB": r.zcu104_ms["w/ PB"],
            "AlveoU50 w/o PB": r.alveo_ms["w/o PB"],
            "AlveoU50 w/ PB": r.alveo_ms["w/ PB"],
            "ZCU104 E w/o PB (mJ)": r.zcu104_energy_mj["w/o PB"],
            "ZCU104 E w/ PB (mJ)": r.zcu104_energy_mj["w/ PB"],
            "E saving %": r.energy_saving_percent(),
        }
    zlo, zhi = result.speedup_range("zcu104", "w/ PB")
    alo, ahi = result.speedup_range("alveo", "w/ PB")
    elo, ehi = result.energy_saving_range_percent()
    title = (
        f"Fig. 13 — board latency/energy, {result.supernet_name} (3x3 convs): "
        f"ZCU104 speedup {zlo:.2f}x..{zhi:.2f}x, Alveo {alo:.2f}x..{ahi:.2f}x, "
        f"off-chip energy saving {elo:.0f}%..{ehi:.0f}%"
    )
    return format_table(rows, title=title, precision=2)
