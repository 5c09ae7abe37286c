"""Running average of served SubNet encodings ("AvgNet" in Algorithm 1).

The scheduler amortizes its caching decision over the last ``Q`` queries by
keeping a running average of the vector encodings of the SubNets it served.
Averaging — rather than intersecting — keeps information about kernels and
channels that were frequent but not universal across the window (paper
Section 3.3, "Amortizing Caching Choices").

This is the vector reference of the caching rule.  ``SushiSched`` computes
the same decision on SubNet indices through
:class:`~repro.core.scheduler.CacheDecisionMemo`; a property test drives both
side by side.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class RunningAverageNet:
    """Windowed running average of SubNet encodings.

    Parameters
    ----------
    dimension:
        Encoding dimensionality (``2 x num_layers`` of the SuperNet).
    window:
        Number of recent queries to average over (``Q``).  ``window=1``
        degenerates to "cache for the last served SubNet".
    """

    def __init__(self, dimension: int, window: int) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        self.dimension = dimension
        self.window = window
        self._history: deque[np.ndarray] = deque(maxlen=window)

    # ------------------------------------------------------------- updates
    def update(self, encoding: np.ndarray) -> None:
        """Record the encoding of the SubNet served for the latest query."""
        encoding = np.asarray(encoding, dtype=np.float64)
        if encoding.shape != (self.dimension,):
            raise ValueError(
                f"encoding shape {encoding.shape} does not match dimension "
                f"({self.dimension},)"
            )
        self._history.append(encoding.copy())

    def update_many(self, encodings: np.ndarray) -> None:
        """Record a window of served encodings at once (rows = queries).

        Equivalent to calling :meth:`update` per row — the deque's window
        keeps only the last ``window`` rows — but validates and copies once,
        which matters on batched scheduling hot paths.
        """
        block = np.asarray(encodings, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.dimension:
            raise ValueError(
                f"encodings shape {block.shape} does not match "
                f"(n, {self.dimension})"
            )
        self._history.extend(block.copy())

    def reset(self) -> None:
        self._history.clear()

    # -------------------------------------------------------------- values
    @property
    def count(self) -> int:
        """Number of encodings currently in the window."""
        return len(self._history)

    @property
    def is_empty(self) -> bool:
        return not self._history

    def value(self) -> np.ndarray:
        """The current average encoding (zeros when nothing was served yet)."""
        if not self._history:
            return np.zeros(self.dimension, dtype=np.float64)
        return np.mean(np.stack(self._history), axis=0)

    def history(self) -> list[np.ndarray]:
        """Copies of the encodings currently in the window (oldest first)."""
        return [vec.copy() for vec in self._history]
