"""Construction of the candidate SubGraph set ``S`` (SushiAbs requirement R1).

The space of all possible SubGraphs of an OFA SuperNet is astronomically
large (> 10^19), so SushiAbs restricts caching decisions to a small curated
set ``S`` whose members are sized close to the Persistent Buffer capacity.
This module builds ``S`` from a Pareto SubNet family:

* the PB-sized truncation of each Pareto SubNet (later layers first — those
  carry the bulk of the weights and are the most likely to be memory bound),
* pairwise intersections of Pareto SubNets (the structures that cross-query
  temporal locality actually produces), and
* optionally, interpolated variants to grow ``S`` for the Table 5 sweep of
  latency-table sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.supernet.layers import LayerSlice
from repro.supernet.subnet import SubNet
from repro.supernet.supernet import SuperNet


def truncate_to_capacity(
    subgraph: CachedSubGraph,
    capacity_bytes: int,
    *,
    supernet: SuperNet,
    prefer_later_layers: bool = True,
) -> CachedSubGraph:
    """Largest sub-SubGraph of ``subgraph`` fitting within ``capacity_bytes``.

    Whole layer slices are admitted greedily, ordered from the back of the
    network when ``prefer_later_layers`` (the deep layers hold most weights
    and are re-fetched most expensively), otherwise from the front.
    """
    if capacity_bytes <= 0:
        return CachedSubGraph(name=f"{subgraph.name}|empty", slices={})
    names = sorted(subgraph.slices, key=supernet.layer_index, reverse=prefer_later_layers)
    kept: dict[str, LayerSlice] = {}
    used = 0
    for name in names:
        sl = subgraph.slices[name]
        if used + sl.weight_bytes <= capacity_bytes:
            kept[name] = sl
            used += sl.weight_bytes
    return CachedSubGraph(name=f"{subgraph.name}|{capacity_bytes // 1024}KB", slices=kept)


def intersect_subnets(a: SubNet, b: SubNet, *, name: str | None = None) -> CachedSubGraph:
    """The SubGraph shared by two SubNets (per-layer slice intersection)."""
    if a.supernet.name != b.supernet.name:
        raise ValueError("cannot intersect SubNets of different SuperNets")
    slices: dict[str, LayerSlice] = {}
    b_slices = b.layer_slices
    for layer_name, sl in a.layer_slices.items():
        other = b_slices.get(layer_name)
        if other is None:
            continue
        inter = sl.intersect(other)
        if not inter.is_empty:
            slices[layer_name] = inter
    return CachedSubGraph(name=name or f"{a.name}&{b.name}", slices=slices)


def _scale_subgraph(
    base: CachedSubGraph, fraction: float, *, supernet: SuperNet, name: str
) -> CachedSubGraph:
    """A SubGraph with every slice's kernels/channels scaled by ``fraction``."""
    fraction = min(max(fraction, 0.0), 1.0)
    slices: dict[str, LayerSlice] = {}
    for layer_name, sl in base.slices.items():
        kernels = max(1, int(round(sl.kernels * fraction)))
        channels = max(1, int(round(sl.channels * fraction)))
        slices[layer_name] = LayerSlice(layer=sl.layer, kernels=kernels, channels=channels)
    return CachedSubGraph(name=name, slices=slices)


@dataclass(frozen=True)
class CandidateSet:
    """The bounded candidate SubGraph set ``S`` plus its provenance."""

    supernet_name: str
    subgraphs: tuple[CachedSubGraph, ...]
    capacity_bytes: int

    def __post_init__(self) -> None:
        if not self.subgraphs:
            raise ValueError("a candidate set needs at least one SubGraph")

    def __len__(self) -> int:
        return len(self.subgraphs)

    def __iter__(self) -> Iterator[CachedSubGraph]:
        return iter(self.subgraphs)

    def __getitem__(self, idx: int) -> CachedSubGraph:
        return self.subgraphs[idx]

    def encodings(self, supernet: SuperNet) -> list[np.ndarray]:
        """Vector encodings of every candidate, in order."""
        return [sg.encode(supernet) for sg in self.subgraphs]


def build_candidate_set(
    subnets: Sequence[SubNet],
    *,
    capacity_bytes: int,
    max_size: int | None = None,
    include_intersections: bool = True,
    seed: int = 0,
) -> CandidateSet:
    """Build the candidate SubGraph set ``S`` for a Pareto SubNet family.

    Parameters
    ----------
    subnets:
        The servable SubNet family (SushiAbs's set ``X``).
    capacity_bytes:
        Persistent Buffer capacity; candidates are truncated to fit it.
    max_size:
        Upper bound on ``|S|``, at least 1.  When larger than the number of
        structural candidates, additional interpolated variants are
        generated (used by the Table 5 latency-table-size sweep); when
        smaller, the structural candidates are subsampled deterministically.
    include_intersections:
        Whether to add pairwise SubNet intersections.
    seed:
        Seed for the deterministic generation of interpolated variants.
    """
    if not subnets:
        raise ValueError("build_candidate_set needs at least one SubNet")
    supernet = subnets[0].supernet
    if any(sn.supernet.name != supernet.name for sn in subnets):
        raise ValueError("all SubNets must come from the same SuperNet")
    if capacity_bytes <= 0:
        raise ValueError("capacity_bytes must be positive")
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")

    candidates: list[CachedSubGraph] = []
    seen: set[tuple] = set()

    def _add(sg: CachedSubGraph) -> None:
        if not sg.slices:
            return
        key = tuple(
            sorted((name, sl.kernels, sl.channels) for name, sl in sg.slices.items())
        )
        if key in seen:
            return
        seen.add(key)
        candidates.append(sg)

    # 1. PB-sized truncation of each Pareto SubNet.
    for sn in subnets:
        full = CachedSubGraph.from_subnet(sn, name=f"trunc({sn.name})")
        _add(truncate_to_capacity(full, capacity_bytes, supernet=supernet))

    # 2. Pairwise intersections (also truncated to capacity).
    if include_intersections:
        for i, a in enumerate(subnets):
            for b in subnets[i + 1 :]:
                inter = intersect_subnets(a, b)
                _add(truncate_to_capacity(inter, capacity_bytes, supernet=supernet))

    # 3. Pad or trim to the requested |S|.
    if max_size is not None:
        if len(candidates) > max_size:
            # Deterministic subsample keeping the per-SubNet truncations first.
            candidates = candidates[:max_size]
        else:
            rng = np.random.default_rng(seed)
            base_pool = list(candidates)
            counter = 0
            while len(candidates) < max_size and base_pool:
                base = base_pool[counter % len(base_pool)]
                fraction = float(rng.uniform(0.55, 0.98))
                variant = _scale_subgraph(
                    base,
                    fraction,
                    supernet=supernet,
                    name=f"{base.name}~{counter}",
                )
                _add(truncate_to_capacity(variant, capacity_bytes, supernet=supernet))
                counter += 1
                if counter > 20 * max_size:  # safety: avoid an infinite loop
                    break

    return CandidateSet(
        supernet_name=supernet.name,
        subgraphs=tuple(candidates),
        capacity_bytes=capacity_bytes,
    )
