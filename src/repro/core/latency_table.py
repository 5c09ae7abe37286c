"""SushiAbs: the hardware-agnostic latency lookup table.

The abstraction between SushiSched and any SGS-capable accelerator is a
lookup table ``L[i][j]`` giving the latency of serving SubNet ``i`` while
SubGraph ``j`` is cached (paper Section 3.2).  Rows are the servable SubNets
(set ``X``), columns the candidate SubGraphs (set ``S``).  The table is small
— ``O(|S| x |X|)`` with ``|X| = O(1)`` — and a policy lookup is a binary
search over ``|X|`` precomputed breakpoints, keeping the scheduler off the
query critical path (Table 6 measures lookup time).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.core.candidates import CandidateSet
from repro.supernet.subnet import SubNet


class LatencyTable:
    """The ``L[SubNet i][SubGraph j]`` latency lookup table.

    Parameters
    ----------
    subnets:
        Servable SubNets (rows), with their fixed accuracies.
    candidates:
        Candidate SubGraph set ``S`` (columns).
    latencies_ms:
        ``len(subnets) x len(candidates)`` matrix of serving latencies.
    accuracies:
        Per-SubNet top-1 accuracy (fractions), aligned with ``subnets``.
    """

    def __init__(
        self,
        subnets: Sequence[SubNet],
        candidates: CandidateSet,
        latencies_ms: np.ndarray | Sequence[Sequence[float]],
        accuracies: Sequence[float],
    ) -> None:
        self.subnets = list(subnets)
        self.candidates = candidates
        if not self.subnets:
            raise ValueError("a latency table needs at least one SubNet")
        self.latencies_ms = np.array(latencies_ms, dtype=np.float64)
        self.accuracies = np.array(accuracies, dtype=np.float64)
        if self.latencies_ms.shape != (len(self.subnets), len(candidates)):
            raise ValueError(
                f"latency matrix shape {self.latencies_ms.shape} does not match "
                f"({len(self.subnets)}, {len(candidates)})"
            )
        if self.accuracies.shape != (len(self.subnets),):
            raise ValueError(
                f"accuracies shape {self.accuracies.shape} does not match "
                f"number of SubNets ({len(self.subnets)})"
            )
        if not np.all(self.latencies_ms > 0):
            raise ValueError("all latencies must be positive")
        if not np.all((self.accuracies > 0) & (self.accuracies < 1)):
            raise ValueError("accuracies must be fractions in (0, 1)")
        # The breakpoints below describe these arrays, so they stay frozen.
        self.latencies_ms.flags.writeable = False
        self.accuracies.flags.writeable = False

        self.latency_rows: list[list[float]] = self.latencies_ms.tolist()
        """``L[i][j]`` as python lists: a lookup without numpy scalars."""
        accs: list[float] = self.accuracies.tolist()
        self.accuracy_list = accs
        """Per-SubNet accuracies as a python list."""
        rows = range(len(accs))
        # STRICT_LATENCY: per column, latencies in ascending order, and the
        # most accurate SubNet among the first k+1 of them (lowest index wins
        # accuracy ties, as np.argmax does).
        self._sorted_latencies: list[list[float]] = []
        self._most_accurate_within: list[list[int]] = []
        # STRICT_ACCURACY: the distinct accuracies in ascending order and, per
        # column, the fastest SubNet meeting each (first minimum wins).
        self._accuracy_levels = sorted(set(accs))
        self._fastest_from: list[list[int]] = []
        for col in zip(*self.latency_rows):
            by_latency = sorted(rows, key=col.__getitem__)
            self._sorted_latencies.append([col[i] for i in by_latency])
            self._most_accurate_within.append(
                [
                    max(sorted(by_latency[: k + 1]), key=accs.__getitem__)
                    for k in rows
                ]
            )
            self._fastest_from.append(
                [
                    min((i for i in rows if accs[i] >= level), key=col.__getitem__)
                    for level in self._accuracy_levels
                ]
            )
        self.most_accurate = int(np.argmax(self.accuracies))
        """The most accurate SubNet (STRICT_ACCURACY's fallback)."""

    # ------------------------------------------------------------ factory
    @classmethod
    def build(
        cls,
        subnets: Sequence[SubNet],
        candidates: CandidateSet,
        latency_fn: Callable[[SubNet, CachedSubGraph], float],
        accuracy_fn: Callable[[SubNet], float],
    ) -> "LatencyTable":
        """Populate the table by evaluating a latency model on every (i, j)."""
        matrix = np.array(
            [[latency_fn(sn, sg) for sg in candidates] for sn in subnets],
            dtype=np.float64,
        )
        accuracies = [accuracy_fn(sn) for sn in subnets]
        return cls(subnets, candidates, matrix, accuracies)

    # ------------------------------------------------------------ lookups
    @property
    def num_subnets(self) -> int:
        return len(self.subnets)

    @property
    def num_subgraphs(self) -> int:
        return len(self.candidates)

    @cached_property
    def subnet_names(self) -> list[str]:
        """Row names, built once and shared by every server of the table."""
        return [subnet.name for subnet in self.subnets]

    def latency(self, subnet_idx: int, subgraph_idx: int) -> float:
        """O(1) lookup of ``L[i][j]``."""
        return self.latency_rows[subnet_idx][subgraph_idx]

    def column(self, subgraph_idx: int) -> np.ndarray:
        """Latencies of every SubNet under cached SubGraph ``j``."""
        return self.latencies_ms[:, subgraph_idx]

    def accuracy(self, subnet_idx: int) -> float:
        return self.accuracy_list[subnet_idx]

    def subnet_index(self, subnet: SubNet) -> int:
        for i, sn in enumerate(self.subnets):
            if sn == subnet:
                return i
        raise KeyError(f"SubNet {subnet.name} not in latency table")

    def fastest(self, subgraph_idx: int) -> int:
        """The fastest SubNet under SubGraph ``j`` (STRICT_LATENCY's fallback)."""
        return self._fastest_from[subgraph_idx][0]

    # ------------------------------------------------------- policy queries
    def best_under_accuracy(self, min_accuracy: float, subgraph_idx: int) -> int | None:
        """STRICT_ACCURACY selection: fastest SubNet with accuracy >= bound.

        Returns ``None`` when no SubNet satisfies the accuracy constraint
        (the caller then falls back to the most accurate SubNet).  A NaN
        bound is met by no SubNet.
        """
        k = bisect_left(self._accuracy_levels, min_accuracy)
        if k == len(self._accuracy_levels) or min_accuracy != min_accuracy:
            return None
        return self._fastest_from[subgraph_idx][k]

    def best_under_latency(self, max_latency_ms: float, subgraph_idx: int) -> int | None:
        """STRICT_LATENCY selection: most accurate SubNet with latency <= bound.

        Returns ``None`` when no SubNet is fast enough, NaN bounds included.
        """
        k = bisect_right(self._sorted_latencies[subgraph_idx], max_latency_ms)
        if k == 0 or max_latency_ms != max_latency_ms:
            return None
        return self._most_accurate_within[subgraph_idx][k - 1]

    # ------------------------------------------------------------- reports
    def summary(self) -> dict[str, float]:
        return {
            "num_subnets": float(self.num_subnets),
            "num_subgraphs": float(self.num_subgraphs),
            "min_latency_ms": float(self.latencies_ms.min()),
            "max_latency_ms": float(self.latencies_ms.max()),
            "min_accuracy": float(self.accuracies.min()),
            "max_accuracy": float(self.accuracies.max()),
        }
