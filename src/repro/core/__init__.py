"""SUSHI core: the paper's primary contribution.

This subpackage holds the SubGraph-Stationary control plane:

* vector encodings and distances over SubNets/SubGraphs (``encoding``),
* construction of the bounded candidate SubGraph set ``S`` (``candidates``),
* the hardware-agnostic latency lookup table SushiAbs (``latency_table``),
* the SushiSched scheduling policies and Algorithm 1 (``policies``,
  ``running_average``, ``scheduler``),
* serving metrics (``metrics``).
"""

from repro.core.encoding import (
    encode_subnet,
    encode_subgraph,
    euclidean_distance,
    normalized_overlap,
)
from repro.core.candidates import CandidateSet, build_candidate_set
from repro.core.latency_table import LatencyTable
from repro.core.policies import Policy, select_subnet
from repro.core.running_average import RunningAverageNet
from repro.core.scheduler import CacheDecisionMemo, SushiSched, SchedulerDecision
from repro.core.metrics import QueryRecord, ServingMetrics, summarize_records

__all__ = [
    "encode_subnet",
    "encode_subgraph",
    "euclidean_distance",
    "normalized_overlap",
    "CandidateSet",
    "build_candidate_set",
    "LatencyTable",
    "Policy",
    "select_subnet",
    "RunningAverageNet",
    "SushiSched",
    "SchedulerDecision",
    "CacheDecisionMemo",
    "QueryRecord",
    "ServingMetrics",
    "summarize_records",
]
