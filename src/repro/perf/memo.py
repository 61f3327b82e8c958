"""The memoized command-cost pipeline.

The paper's performance and energy models are closed-form analytic
functions of a command's *shape* -- its kind, element width, scalar
class, and operand layouts -- never of the call site or of any device
state.  A paper-scale suite run issues ~60k commands but only a few
hundred distinct shapes, so deriving the cost from scratch on every
issue (walking microprogram op lists, re-pricing energy terms) paid the
same derivation tens of thousands of times.

:class:`CostPipeline` sits between :meth:`repro.core.device.PimDevice.
execute` and the perf/energy models and memoizes the ``(CmdCost,
CommandEnergy)`` pair per shape.  The key's scalar component comes from
the device's :class:`~repro.arch.base.ArchBackend` via
:meth:`~repro.arch.base.ArchBackend.cost_memo_param`, making the memo
part of the backend contract: a plug-in backend gets a correct (raw
scalar) key by default and can widen its equivalence classes by
overriding the hook.

The memo changes *when* numbers are computed, never *what* they are:
for any shape the memoized pair is the exact object the models return
on the first derivation, so every downstream float operation is
bit-identical to an unmemoized run (the tests A/B that claim against a
pipeline that calls ``cost_of`` + ``command_energy`` afresh).  The memo
serves the scalar tracker -- the reference oracle, functional, observed
and fault cells.  Vectorized and batched pricing hand a pipeline only
shapes that are already distinct, so every lookup there is a miss.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import ArchBackend
    from repro.energy.model import CommandEnergy, EnergyModel
    from repro.perf.base import CmdCost, CommandArgs, PerfModel


class CostPipeline:
    """Per-device memo of ``(CmdCost, CommandEnergy)`` by command shape.

    One instance per :class:`~repro.core.device.PimDevice`; the models
    it wraps are immutable after construction, so entries never go
    stale.  ``hits``/``misses`` are exposed for tests and for the
    benchmark's traced runs.
    """

    __slots__ = ("perf", "energy", "backend", "points", "hits", "misses",
                 "_memo")

    def __init__(
        self,
        perf: "PerfModel",
        energy: "EnergyModel",
        backend: "ArchBackend",
        points: int = 1,
    ) -> None:
        self.perf = perf
        self.energy = energy
        self.backend = backend
        #: Design points the models price at once: above one, their
        #: float cost knobs are float64 arrays of that length and every
        #: cost field is a float or such an array (repro.perf.plans).
        self.points = points
        self.hits = 0
        self.misses = 0
        self._memo: "dict[tuple, tuple[CmdCost, CommandEnergy]]" = {}

    def __len__(self) -> int:
        return len(self._memo)

    def stats(self) -> "tuple[int, int, int]":
        """``(hits, misses, distinct shapes)`` -- the telemetry triple.

        This is the hook that wires the memo into the observability
        layer: :func:`repro.engine.cells.run_cell` folds it into the
        cell's :class:`~repro.obs.telemetry.CellTelemetry`, which the
        engine merges into the global metrics registry
        (``cost_memo.hits`` / ``cost_memo.misses``) on the parent side.
        """
        return self.hits, self.misses, len(self._memo)

    def cost_and_energy(
        self, args: "CommandArgs"
    ) -> "tuple[CmdCost, CommandEnergy]":
        """The modeled cost and energy of issuing ``args`` once."""
        key = (
            args.kind,
            args.bits,
            args.signed,
            self.backend.cost_memo_param(args),
            args.inputs,
            args.dest,
        )
        pair = self._memo.get(key)
        if pair is None:
            cost = self.perf.cost_of(args)
            pair = (cost, self.energy.command_energy(cost))
            self._memo[key] = pair
            self.misses += 1
        else:
            self.hits += 1
        return pair
