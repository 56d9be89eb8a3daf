"""The simulated systems: one :class:`System` model and its registry.

Each registry entry is one tenant under a selector: the paper's four
designs and the IDEAL bound run a static strategy, FUSION-PIPE runs
FUSION with a dependence-aware schedule, and POLICY runs the selector
``config.policy`` describes.  :func:`coresident` builds the multi-process
runs (FUSION-MT, FUSION-2T).
"""

from ..coherence.strategy import IDEAL
from .pipelined import PipelinedSystem
from .system import System, coresident, preset

#: Registry keyed by the names used throughout the paper's figures,
#: plus the analysis/extension systems.
SYSTEMS = {
    "SCRATCH": preset("SCRATCH", "scratch"),
    "SHARED": preset("SHARED", "shared"),
    "FUSION": preset("FUSION", "fusion"),
    "FUSION-Dx": preset("FUSION-Dx", "fusion-dx"),
    "IDEAL": preset("IDEAL", IDEAL),
    "FUSION-PIPE": preset("FUSION-PIPE", "fusion", PipelinedSystem),
    "POLICY": preset("POLICY", None),
}

__all__ = ["SYSTEMS", "System", "coresident", "preset"]
