"""Core simulator: device, objects, resources, commands, and stats."""

from repro.core.commands import CmdSpec, OpCategory, PimCmdKind
from repro.core.device import PimDevice
from repro.core.errors import (
    PimAllocationError,
    PimConfigError,
    PimError,
    PimInvalidObjectError,
    PimTypeError,
)
from repro.core.layout import ObjectLayout, RowAllocator, plan_layout
from repro.core.object import PimObject
from repro.core.resource import ResourceManager
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
