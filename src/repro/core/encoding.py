"""Vector encodings of SubNets and SubGraphs, and distances between them.

SushiSched represents every SubNet and SubGraph as a ``2N``-dimensional
vector ``[K1, C1, K2, C2, ..., KN, CN]`` over the SuperNet's ``N`` maximal
layers, where ``Ki`` / ``Ci`` are the number of active kernels / channels of
layer ``i`` (zero when elastic depth drops the layer).  All scheduling
decisions — the running average of served SubNets and the nearest-candidate
SubGraph selection — operate on these vectors (paper Fig. 6).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.supernet.subnet import SubNet
from repro.supernet.supernet import SuperNet


def encode_subnet(subnet: SubNet) -> np.ndarray:
    """The ``[K1, C1, ..., KN, CN]`` encoding of a SubNet."""
    return subnet.encode()


def encode_subgraph(subgraph: CachedSubGraph, supernet: SuperNet) -> np.ndarray:
    """The ``[K1, C1, ..., KN, CN]`` encoding of a SubGraph."""
    return subgraph.encode(supernet)


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two encodings (the paper's ``Dist``)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"encoding shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def normalized_overlap(subnet_vec: np.ndarray, subgraph_vec: np.ndarray) -> float:
    """The paper's cache-hit proxy ``||SN ∩ G||_2 / ||SN||_2`` (Appendix A.4).

    The element-wise minimum of the two encodings approximates the
    intersection of the structures they describe.
    """
    subnet_vec = np.asarray(subnet_vec, dtype=np.float64)
    subgraph_vec = np.asarray(subgraph_vec, dtype=np.float64)
    if subnet_vec.shape != subgraph_vec.shape:
        raise ValueError(
            f"encoding shapes differ: {subnet_vec.shape} vs {subgraph_vec.shape}"
        )
    denom = np.linalg.norm(subnet_vec)
    if denom == 0.0:
        return 0.0
    inter = np.minimum(subnet_vec, subgraph_vec)
    return float(np.linalg.norm(inter) / denom)


def nearest_index(
    target: np.ndarray, candidates: Sequence[np.ndarray], *, metric: str = "euclidean"
) -> int:
    """Index of the candidate encoding closest to ``target``.

    ``metric`` is ``"euclidean"`` (the paper's choice) or ``"cosine"``.
    Ties resolve to the lowest index, which keeps the scheduler deterministic.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    target = np.asarray(target, dtype=np.float64)
    matrix = np.asarray(candidates, dtype=np.float64)
    if matrix.shape[1:] != target.shape:
        raise ValueError(
            f"encoding shapes differ: {target.shape} vs {matrix.shape[1:]}"
        )
    if metric == "euclidean":
        distances = np.linalg.norm(matrix - target[None, :], axis=1)
    elif metric == "cosine":
        norms = np.linalg.norm(matrix, axis=1)
        target_norm = np.linalg.norm(target)
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = matrix @ target / (norms * target_norm)
        distances = 1.0 - np.where(
            (norms == 0.0) | (target_norm == 0.0), 0.0, sims
        )
    else:
        raise ValueError(f"unknown metric {metric!r}; use 'euclidean' or 'cosine'")
    return int(np.argmin(distances))
