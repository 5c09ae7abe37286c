"""Model zoo: the SuperNets and Pareto SubNet families the paper evaluates.

The paper picks 6 Pareto-frontier SubNets (labelled A-F) from OFA-ResNet50
and 7 (A-G) from OFA-MobileNetV3.  This module pins down concrete elastic
configurations for those families, ordered from smallest/fastest (A) to
largest/most-accurate (F or G), and provides the loader used across
examples, experiments and tests.
"""

from __future__ import annotations

from typing import Callable

from repro.supernet.ofa_mobilenetv3 import build_ofa_mobilenetv3
from repro.supernet.ofa_resnet50 import build_ofa_resnet50
from repro.supernet.subnet import SubNet, SubNetConfig
from repro.supernet.supernet import SuperNet

#: Names of the SuperNets this reproduction ships.
SUPPORTED_SUPERNETS: tuple[str, ...] = ("ofa_resnet50", "ofa_mobilenetv3")

_BUILDERS: dict[str, Callable[[], SuperNet]] = {
    "ofa_resnet50": build_ofa_resnet50,
    "ofa_mobilenetv3": build_ofa_mobilenetv3,
}

#: Pareto family for OFA-ResNet50 (paper Fig. 10a / 13 labels A-F), ordered
#: from the smallest (A) to the largest (F) SubNet.  Each step increases one
#: elastic dimension, so capacity — and therefore accuracy — is monotone.
RESNET50_PARETO_CONFIGS: tuple[SubNetConfig, ...] = (
    SubNetConfig(depths=(2, 2, 2, 2), expand_ratio=0.2, width_mult=0.65, name="A"),
    SubNetConfig(depths=(2, 2, 2, 2), expand_ratio=0.2, width_mult=0.8, name="B"),
    SubNetConfig(depths=(2, 2, 2, 2), expand_ratio=0.25, width_mult=1.0, name="C"),
    SubNetConfig(depths=(3, 3, 3, 3), expand_ratio=0.25, width_mult=1.0, name="D"),
    SubNetConfig(depths=(4, 4, 4, 4), expand_ratio=0.25, width_mult=1.0, name="E"),
    SubNetConfig(depths=(4, 4, 4, 4), expand_ratio=0.35, width_mult=1.0, name="F"),
)

#: Pareto family for OFA-MobileNetV3 (paper Fig. 10b labels A-G).
MOBILENETV3_PARETO_CONFIGS: tuple[SubNetConfig, ...] = (
    SubNetConfig(depths=(2, 2, 2, 2, 2), expand_ratio=3.0, name="A"),
    SubNetConfig(depths=(2, 2, 2, 2, 2), expand_ratio=4.0, name="B"),
    SubNetConfig(depths=(3, 2, 3, 2, 3), expand_ratio=4.0, name="C"),
    SubNetConfig(depths=(3, 3, 3, 3, 3), expand_ratio=4.0, name="D"),
    SubNetConfig(depths=(3, 3, 3, 3, 3), expand_ratio=6.0, name="E"),
    SubNetConfig(depths=(4, 3, 4, 3, 4), expand_ratio=6.0, name="F"),
    SubNetConfig(depths=(4, 4, 4, 4, 4), expand_ratio=6.0, name="G"),
)

_PARETO_CONFIGS: dict[str, tuple[SubNetConfig, ...]] = {
    "ofa_resnet50": RESNET50_PARETO_CONFIGS,
    "ofa_mobilenetv3": MOBILENETV3_PARETO_CONFIGS,
}


#: Short names :func:`resolve_supernet_name` accepts, and what they stand for.
SUPERNET_ALIASES: dict[str, str] = {
    "resnet50": "ofa_resnet50",
    "mobilenetv3": "ofa_mobilenetv3",
    "mobv3": "ofa_mobilenetv3",
}


def resolve_supernet_name(name: str) -> str:
    """The canonical name of a supported SuperNet.

    Case-insensitive; the aliases of :data:`SUPERNET_ALIASES` are accepted.
    Raises ``ValueError`` for a name that is neither.
    """
    key = name.lower()
    key = SUPERNET_ALIASES.get(key, key)
    if key not in _BUILDERS:
        raise ValueError(
            f"unknown SuperNet {name!r}; supported: {sorted(_BUILDERS)} "
            f"(aliases: {sorted(SUPERNET_ALIASES)})"
        )
    return key


def load_supernet(name: str, *, input_hw: int = 224) -> SuperNet:
    """Build one of the supported SuperNets by name.

    Parameters
    ----------
    name:
        ``"ofa_resnet50"`` or ``"ofa_mobilenetv3"`` (case-insensitive; the
        aliases ``"resnet50"`` and ``"mobilenetv3"``/``"mobv3"`` are accepted).
    input_hw:
        Input image resolution.
    """
    return _BUILDERS[resolve_supernet_name(name)](input_hw)


def paper_pareto_configs(supernet_name: str) -> tuple[SubNetConfig, ...]:
    """The Pareto SubNet configurations used throughout the paper's evaluation."""
    key = supernet_name.lower()
    key = SUPERNET_ALIASES.get(key, key)
    try:
        return _PARETO_CONFIGS[key]
    except KeyError as exc:
        raise ValueError(
            f"no Pareto family defined for {supernet_name!r}; "
            f"supported: {sorted(_PARETO_CONFIGS)}"
        ) from exc


def paper_pareto_subnets(supernet: SuperNet) -> list[SubNet]:
    """Materialize the paper's Pareto SubNet family for a SuperNet instance."""
    configs = paper_pareto_configs(supernet.name)
    return [SubNet(supernet, cfg) for cfg in configs]
