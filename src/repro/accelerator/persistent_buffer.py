"""Persistent Buffer (PB): the on-chip SubGraph cache enabling SGS.

The PB holds the weights of one *SubGraph* — an arbitrary per-layer slice of
the SuperNet — across queries.  When the scheduler serves a SubNet, any weight
bytes that fall inside the cached SubGraph are read from the PB instead of
DRAM.  This module models the cache contents, capacity enforcement, hit
accounting, and the off-chip cost of swapping the cached SubGraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.supernet.layers import LayerSlice
from repro.supernet.subnet import SubNet


@dataclass(frozen=True)
class CachedSubGraph:
    """An immutable SubGraph: per-layer slices plus a label.

    A SubGraph is any subset of SuperNet weights connected into a graph (the
    paper's definition); structurally we represent it the same way as a
    SubNet's activation — a mapping from layer name to :class:`LayerSlice` —
    but a SubGraph need not be servable (it usually is *not* a full SubNet).
    """

    name: str
    slices: Mapping[str, LayerSlice]

    @property
    def weight_bytes(self) -> int:
        return sum(sl.weight_bytes for sl in self.slices.values())

    @property
    def num_layers(self) -> int:
        return len(self.slices)

    def overlap_bytes(self, subnet: SubNet) -> int:
        """Weight bytes of ``subnet`` that this SubGraph covers."""
        total = 0
        for name, sub_slice in subnet.layer_slices.items():
            cached_slice = self.slices.get(name)
            if cached_slice is not None:
                total += cached_slice.intersect(sub_slice).weight_bytes
        return total

    def fetch_bytes(self, held: "CachedSubGraph") -> int:
        """Off-chip bytes loading this SubGraph over ``held`` fetches.

        Only bytes not already present (per-layer slice intersection with
        ``held``) need to cross the off-chip interface.
        """
        fetched = 0
        for name, new_slice in self.slices.items():
            old_slice = held.slices.get(name)
            already = (
                old_slice.intersect(new_slice).weight_bytes if old_slice is not None else 0
            )
            fetched += max(0, new_slice.weight_bytes - already)
        return fetched

    def overlap_bytes_per_layer(self, subnet: SubNet) -> dict[str, int]:
        """Per-layer covered bytes for ``subnet`` (used by the latency model)."""
        out: dict[str, int] = {}
        for name, sub_slice in subnet.layer_slices.items():
            cached_slice = self.slices.get(name)
            out[name] = (
                cached_slice.intersect(sub_slice).weight_bytes
                if cached_slice is not None
                else 0
            )
        return out

    def encode(self, supernet) -> np.ndarray:
        """Vector encoding ``[K1, C1, ..., KN, CN]`` over the SuperNet layers."""
        vec = np.zeros(2 * supernet.num_layers, dtype=np.float64)
        for name, sl in self.slices.items():
            idx = supernet.layer_index(name)
            vec[2 * idx] = sl.kernels
            vec[2 * idx + 1] = sl.channels
        return vec

    @classmethod
    def from_subnet(cls, subnet: SubNet, name: str | None = None) -> "CachedSubGraph":
        """The SubGraph consisting of an entire SubNet's weights."""
        return cls(name=name or f"sg({subnet.name})", slices=dict(subnet.layer_slices))

    @classmethod
    def empty(cls, name: str = "empty") -> "CachedSubGraph":
        return cls(name=name, slices={})


@dataclass
class PBStats:
    """Running statistics of Persistent Buffer behaviour across queries."""

    queries_served: int = 0
    hit_bytes_total: int = 0
    served_weight_bytes_total: int = 0
    cache_loads: int = 0
    cache_load_bytes_total: int = 0


class PersistentBuffer:
    """Capacity-limited cache holding one SubGraph at a time.

    Parameters
    ----------
    capacity_bytes:
        PB capacity.  A SubGraph larger than the capacity is truncated layer
        by layer (earlier layers first) when loaded — matching the hardware,
        which simply stops filling the PB when it is full.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("PB capacity must be non-negative")
        self.capacity_bytes = int(capacity_bytes)
        self._cached = CachedSubGraph.empty()
        self.stats = PBStats()

    # ------------------------------------------------------------- state
    @property
    def cached(self) -> CachedSubGraph:
        return self._cached

    @property
    def occupancy_bytes(self) -> int:
        return self._cached.weight_bytes

    # ------------------------------------------------------------ loading
    def fit_subgraph(self, subgraph: CachedSubGraph) -> CachedSubGraph:
        """Truncate a SubGraph so it fits the PB capacity.

        Layer slices are admitted greedily in descending byte-size order: the
        heaviest layers are the ones whose off-chip weight fetch is least
        hideable behind compute, so caching them first maximizes the latency
        benefit per PB byte.  The hardware stores whole layer slices to keep
        PB addressing simple, so a slice that does not fit is skipped.
        """
        if subgraph.weight_bytes <= self.capacity_bytes:
            return subgraph
        kept: dict[str, LayerSlice] = {}
        used = 0
        by_size = sorted(
            subgraph.slices.items(), key=lambda item: item[1].weight_bytes, reverse=True
        )
        for name, sl in by_size:
            nbytes = sl.weight_bytes
            if used + nbytes <= self.capacity_bytes:
                kept[name] = sl
                used += nbytes
        return CachedSubGraph(name=f"{subgraph.name}|fit", slices=kept)

    def load(self, subgraph: CachedSubGraph) -> int:
        """Replace the cached SubGraph; returns off-chip bytes fetched.

        Fits ``subgraph`` to the capacity and intersects it with the
        current contents layer by layer.  Serving never calls this: a
        stack switches its PB through its cache-switch table
        (:class:`~repro.serving.stack.CacheSwitchTable`) and :meth:`hold`.
        """
        fitted = self.fit_subgraph(subgraph)
        fetched = fitted.fetch_bytes(self._cached)
        self.hold(fitted, fetched)
        return fetched

    def hold(self, fitted: CachedSubGraph, fetched_bytes: int) -> None:
        """Hold ``fitted`` after a load that fetched ``fetched_bytes``.

        The one PB state update: :meth:`load` computes its arguments, a
        serving stack reads them from its cache-switch table.  ``fitted``
        must already fit the capacity.
        """
        self._cached = fitted
        self.stats.cache_loads += 1
        self.stats.cache_load_bytes_total += fetched_bytes

    def clear(self) -> None:
        self._cached = CachedSubGraph.empty()

    # ------------------------------------------------------------ serving
    def hit_bytes(self, subnet: SubNet) -> int:
        """Weight bytes of ``subnet`` currently resident in the PB."""
        return self._cached.overlap_bytes(subnet)

    def record_serve(self, subnet: SubNet, *, hit_bytes: int | None = None) -> None:
        """Update hit statistics after serving ``subnet``.

        ``hit_bytes`` may be passed when the caller already knows the overlap
        of ``subnet`` with the cached SubGraph — it must equal
        ``self.hit_bytes(subnet)``.
        """
        self.stats.queries_served += 1
        self.stats.hit_bytes_total += (
            self.hit_bytes(subnet) if hit_bytes is None else hit_bytes
        )
        self.stats.served_weight_bytes_total += subnet.weight_bytes

    def vector_hit_ratio(self, subnet: SubNet) -> float:
        """The paper's cache-hit metric: ||SN ∩ G||2 / ||SN||2 (Appendix A.4)."""
        supernet = subnet.supernet
        sn_vec = subnet.encode()
        cached_vec = self._cached.encode(supernet)
        inter = np.minimum(sn_vec, cached_vec)
        sn_norm = np.linalg.norm(sn_vec)
        if sn_norm == 0:
            return 0.0
        return float(np.linalg.norm(inter) / sn_norm)
