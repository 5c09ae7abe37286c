"""repro — reproduction of "Subgraph Stationary Hardware-Software Inference
Co-Design" (SUSHI, MLSys 2023).

Public API overview
-------------------

* :mod:`repro.supernet` — OFA-style weight-shared SuperNets (ResNet50,
  MobileNetV3), SubNets, shared-weight accounting, accuracy model.
* :mod:`repro.accelerator` — SushiAccel analytic model: DPE array, buffer
  hierarchy with the Persistent Buffer, DRAM model, roofline, DSE, CPU and
  Xilinx-DPU baselines.
* :mod:`repro.core` — the SGS control plane: SubGraph candidates, the
  SushiAbs latency table and the SushiSched scheduler (Algorithm 1).
* :mod:`repro.serving` — the vertically integrated SUSHI stack, query-stream
  generators and the No-SUSHI / state-unaware baselines.
* :mod:`repro.experiments` — one driver per table/figure of the paper.

Quickstart
----------

>>> from repro.experiments import fig16_end_to_end
>>> result = fig16_end_to_end.run("ofa_mobilenetv3", num_queries=50)
>>> result.summary.latency_improvement_vs_no_sushi_percent > 0
True
"""

from repro._version import __version__

__all__ = ["__version__"]
