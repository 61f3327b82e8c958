"""Shared types of the per-architecture performance models.

A performance model converts one PIM command plus the layouts of its
operands into a :class:`CmdCost`: the modeled latency and the physical
event counts (row activations, lane logic ops, ALU ops, walker latches,
GDL transfers) that the energy model prices afterwards.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config.device import DeviceConfig
from repro.core.commands import PimCmdKind
from repro.core.layout import ObjectLayout


@dataclasses.dataclass(frozen=True)
class CmdCost:
    """Latency plus energy-relevant event counts of one command.

    Each field is a float, or a float64 array of one value per design
    point when the config's float cost knobs are arrays; the perf
    models' arithmetic is the same either way.
    """

    latency_ns: float
    row_activations: float = 0.0  # row reads+writes, totaled across cores
    lane_logic_ops: float = 0.0  # bit-serial: lane x micro-op events
    alu_word_ops: float = 0.0  # bit-parallel: word ops across cores
    walker_bits: float = 0.0  # bits latched into walkers
    gdl_bits: float = 0.0  # bits crossing the global data lines
    cores_active: int = 0

    def __post_init__(self) -> None:
        # ``latency_ns`` is a float, or a float64 array when one cost
        # model prices a vector of design points (repro.perf.plans).
        negative = self.latency_ns < 0
        if negative is True or (negative is not False and negative.any()):
            raise ValueError(f"latency must be non-negative, got {self.latency_ns}")


@dataclasses.dataclass(frozen=True)
class CommandArgs:
    """Everything a perf model needs to cost one command.

    ``inputs`` are the layouts of the vector operands (condition first for
    SELECT); ``dest`` is the output layout, or None for scalar-producing
    commands such as REDSUM; ``scalar`` carries the immediate where the
    command has one; ``bits`` is the element width the ALU must process.
    """

    kind: PimCmdKind
    bits: int
    inputs: "tuple[ObjectLayout, ...]"
    dest: "ObjectLayout | None"
    scalar: "int | None" = None
    signed: bool = True

    @property
    def driving_layout(self) -> ObjectLayout:
        """The layout whose element count paces the computation."""
        if self.dest is not None and self.dest.num_elements >= 1 and self.inputs:
            return self.inputs[-1]
        if self.inputs:
            return self.inputs[-1]
        if self.dest is None:
            raise ValueError("command with neither inputs nor dest")
        return self.dest


class PerfModel(typing.Protocol):
    """Interface of the three architecture performance models."""

    config: DeviceConfig

    def cost_of(self, args: CommandArgs) -> CmdCost:
        """Latency and event counts of executing ``args`` once."""
        ...
