"""On-chip buffer hierarchy of SushiAccel.

The accelerator splits its on-chip storage into dedicated buffers, one per
data type (Fig. 7 of the paper):

* **PB** (Persistent Buffer) — holds the cached SubGraph for SubGraph Reuse,
* **DB1/DB2** (Dynamic Buffers) — ping-pong buffers for the distinct (non
  cached) weights of the currently served SubNet,
* **SB** (Streaming Buffer) — whole input activations, enabling multi-kernel
  iAct reuse,
* **LB** (Line Buffer) — serial-to-parallel conversion and sliding-window
  iAct reuse,
* **OB** (Output Buffer) — in-place partial-sum accumulation so only final
  oActs go off-chip,
* **ZSB** (Zero-point/Scale Buffer) — quantization metadata.

The module models capacities, per-cycle bandwidth requirements (Table 1) and
validates that a configuration fits the platform's storage budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.accelerator.dpe import DPEArrayConfig
from repro.accelerator.platforms import PlatformConfig

#: Canonical buffer names, in the order the paper's tables list them.
BUFFER_NAMES: tuple[str, ...] = ("DB-Ping", "DB-Pong", "SB", "LB", "OB", "ZSB", "PB")


@dataclass(frozen=True)
class BufferSpec:
    """One on-chip buffer: capacity and per-cycle width (bandwidth)."""

    name: str
    capacity_bytes: int
    width_bytes_per_cycle: float

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError(f"{self.name}: capacity must be non-negative")
        if self.width_bytes_per_cycle < 0:
            raise ValueError(f"{self.name}: width must be non-negative")

    @property
    def capacity_kb(self) -> float:
        return self.capacity_bytes / 1024.0


def _lcm_bandwidth(a: float, b: float) -> float:
    """The paper sizes buffer widths as LCM(off-chip BW, demanded BW).

    Bandwidths are real-valued here, so we conservatively take the maximum —
    the LCM of the two hardware bus widths is at least as wide as either.
    """
    return max(a, b)


def bandwidth_requirements(
    dpe: DPEArrayConfig,
    platform: PlatformConfig,
    *,
    kernel_size: int = 3,
    act_bits: int = 8,
    weight_bits: int = 8,
) -> dict[str, float]:
    """Minimal per-cycle bandwidth of each buffer (reproduces Table 1).

    Returns bytes/cycle for each buffer name.
    """
    off_chip = platform.off_chip_bytes_per_cycle
    demanded_weights = dpe.demanded_weight_bytes_per_cycle(weight_bits)
    demanded_iacts = dpe.demanded_iact_bytes_per_cycle(kernel_size, act_bits)
    return {
        "DB": _lcm_bandwidth(off_chip, demanded_weights),
        "SB": _lcm_bandwidth(off_chip, demanded_iacts),
        "LB": demanded_weights,
        "OB": dpe.produced_oact_bytes_per_cycle(act_bits),
        "PB": _lcm_bandwidth(off_chip, demanded_weights),
    }


@dataclass(frozen=True)
class BufferHierarchy:
    """A concrete allocation of the on-chip storage budget across buffers."""

    buffers: Mapping[str, BufferSpec]

    def __post_init__(self) -> None:
        missing = set(BUFFER_NAMES) - set(self.buffers)
        if missing:
            raise ValueError(f"buffer hierarchy missing buffers: {sorted(missing)}")

    # ------------------------------------------------------------- access
    def __getitem__(self, name: str) -> BufferSpec:
        return self.buffers[name]

    @property
    def pb(self) -> BufferSpec:
        return self.buffers["PB"]

    @property
    def total_bytes(self) -> int:
        return sum(spec.capacity_bytes for spec in self.buffers.values())

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024.0

    def validate_budget(self, platform: PlatformConfig) -> None:
        """Raise if the allocation exceeds the platform's storage budget."""
        budget = platform.total_buffer_kb * 1024
        if self.total_bytes > budget * 1.001:  # tolerate rounding
            raise ValueError(
                f"buffer allocation ({self.total_bytes / 1024:.0f} KB) exceeds "
                f"{platform.name}'s budget ({platform.total_buffer_kb:.0f} KB)"
            )

    def summary(self) -> dict[str, float]:
        """Capacity (KB) per buffer plus the total — mirrors Table 3 rows."""
        out = {name: self.buffers[name].capacity_kb for name in BUFFER_NAMES}
        out["Overall"] = self.total_kb
        return out


def default_hierarchy(
    platform: PlatformConfig,
    dpe: DPEArrayConfig | None = None,
    *,
    with_pb: bool | None = None,
) -> BufferHierarchy:
    """Build the paper's buffer allocation for a platform.

    The split follows Table 3 (ZCU104): fixed-size LB/OB/ZSB plus an SB sized
    for one activation tile, with the remaining budget divided between the
    ping-pong DBs and (when enabled) the PB.  Disabling the PB hands its
    storage back to the DBs and SB so total storage stays constant — exactly
    the w/-PB vs w/o-PB comparison of the paper.
    """
    dpe = dpe or DPEArrayConfig(kp=platform.kp, cp=platform.cp, dpe_size=platform.dpe_size)
    use_pb = platform.has_pb if with_pb is None else with_pb
    budget = int(platform.total_buffer_kb * 1024)
    reqs = bandwidth_requirements(dpe, platform)

    # Fixed-function buffers (sizes follow Table 3, scaled to the array width).
    lb_bytes = 54 * 1024 * max(1, dpe.cp) // 9
    ob_bytes = 327 * 1024 * max(1, dpe.kp) // 16
    zsb_bytes = 8 * 1024
    fixed = lb_bytes + ob_bytes + zsb_bytes
    if fixed >= budget:
        raise ValueError(
            f"{platform.name}: storage budget {budget / 1024:.0f} KB too small for "
            f"the fixed buffers ({fixed / 1024:.0f} KB)"
        )

    remaining = budget - fixed
    # The PB is granted its configured capacity (up to what the budget allows
    # while keeping a minimal SB/DB), mirroring Table 3 where the ZCU104 PB
    # receives its full 1728 KB.  The SB is sized identically with and without
    # the PB so the w/-PB vs w/o-PB comparison isolates the SubGraph-
    # Stationary effect; the storage freed by dropping the PB goes to the
    # ping-pong DBs, which only deepens the weight-prefetch window.
    min_db_bytes = 256 * 1024
    pb_request = min(platform.pb_bytes, max(0, remaining - 2 * min_db_bytes))
    sb_bytes = min(1152 * 1024, max((remaining - pb_request) // 2, 64 * 1024))
    pb_bytes = pb_request if use_pb else 0
    dynamic = max(0, remaining - sb_bytes - pb_bytes)
    db_ping = dynamic // 2
    db_pong = dynamic - db_ping

    buffers = {
        "DB-Ping": BufferSpec("DB-Ping", db_ping, reqs["DB"]),
        "DB-Pong": BufferSpec("DB-Pong", db_pong, reqs["DB"]),
        "SB": BufferSpec("SB", sb_bytes, reqs["SB"]),
        "LB": BufferSpec("LB", lb_bytes, reqs["LB"]),
        "OB": BufferSpec("OB", ob_bytes, reqs["OB"]),
        "ZSB": BufferSpec("ZSB", zsb_bytes, platform.off_chip_bytes_per_cycle),
        "PB": BufferSpec("PB", pb_bytes, reqs["PB"]),
    }
    hierarchy = BufferHierarchy(buffers=buffers)
    hierarchy.validate_budget(platform)
    return hierarchy
