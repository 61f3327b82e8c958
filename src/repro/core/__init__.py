"""Core simulator: device, objects, resources, commands, and stats.

The device, its objects and its resource manager hold numpy arrays, so
they load on first use (PEP 562 ``__getattr__``): a warm command reads
cached stats and command records without importing numpy.
"""

from repro.core.commands import CmdSpec, OpCategory, PimCmdKind
from repro.core.errors import (
    PimAllocationError,
    PimConfigError,
    PimError,
    PimInvalidObjectError,
    PimTypeError,
)
from repro.core.layout import ObjectLayout, RowAllocator, plan_layout
from repro.core.stats import (
    CmdStats,
    CopyStats,
    EventCounts,
    StatsSnapshot,
    StatsTracker,
)

__all__ = [
    "CmdSpec",
    "OpCategory",
    "PimCmdKind",
    "PimDevice",
    "PimAllocationError",
    "PimConfigError",
    "PimError",
    "PimInvalidObjectError",
    "PimTypeError",
    "ObjectLayout",
    "RowAllocator",
    "plan_layout",
    "PimObject",
    "ResourceManager",
    "CmdStats",
    "EventCounts",
    "CopyStats",
    "StatsSnapshot",
    "StatsTracker",
]

#: Lazily loaded names -> defining module (see the module docstring).
_LAZY = {
    "PimDevice": "repro.core.device",
    "PimObject": "repro.core.object",
    "ResourceManager": "repro.core.resource",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
