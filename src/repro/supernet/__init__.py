"""Weight-shared SuperNet substrate (OFA-style architectures).

This subpackage provides a structural model of weight-shared deep neural
networks (WS-DNNs) as used by the SUSHI paper: SuperNets with elastic depth,
expand-ratio and width dimensions, from which individual SubNets can be
materialized without weight duplication.  Only *structural* properties are
modelled (layer shapes, weight bytes, FLOPs, shared-weight overlap) plus a
calibrated accuracy model — no tensor math is performed, because none of the
paper's experiments require real forward passes.
"""

from repro.supernet.layers import ConvLayerSpec, LayerKind
from repro.supernet.blocks import BlockSpec, BottleneckBlock, MBConvBlock
from repro.supernet.stages import StageSpec
from repro.supernet.supernet import SuperNet, ElasticConfig
from repro.supernet.subnet import SubNet, SubNetConfig
from repro.supernet.accuracy import AccuracyModel
from repro.supernet.ofa_resnet50 import build_ofa_resnet50
from repro.supernet.ofa_mobilenetv3 import build_ofa_mobilenetv3
from repro.supernet.zoo import (
    load_supernet,
    paper_pareto_subnets,
    SUPPORTED_SUPERNETS,
)

__all__ = [
    "ConvLayerSpec",
    "LayerKind",
    "BlockSpec",
    "BottleneckBlock",
    "MBConvBlock",
    "StageSpec",
    "SuperNet",
    "ElasticConfig",
    "SubNet",
    "SubNetConfig",
    "AccuracyModel",
    "build_ofa_resnet50",
    "build_ofa_mobilenetv3",
    "load_supernet",
    "paper_pareto_subnets",
    "SUPPORTED_SUPERNETS",
]
