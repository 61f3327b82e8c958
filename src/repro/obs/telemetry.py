"""Cross-process cell telemetry: where each cell's resources went.

The interesting counters of a parallel run -- cost-memo hits, commands
simulated, wall/CPU seconds, peak RSS, injected faults -- are born
inside ProcessPool workers and die with them unless something carries
them home.  :class:`CellTelemetry` is that carrier: one frozen record
per executed cell, captured in the worker by
:func:`repro.engine.cells.run_cell` (via :class:`TelemetryCapture`),
pickled back alongside the existing RecordingSink payload, and folded
into the parent's :func:`~repro.obs.metrics.global_registry` with
:meth:`~repro.obs.metrics.MetricsRegistry.merge` -- in spec order, so
the merged counters are deterministic for any ``--jobs`` value.

Two read paths exist on the parent side:

* the **registry counters** (``telemetry.*``, ``cost_memo.*``,
  ``fault.*``) for aggregate views -- the OpenMetrics exposition and the
  run report render these; and
* the **telemetry log** (:func:`telemetry_log`), the ordered per-cell
  table the run report's ``cells`` section is built from.

A cell served from the disk cache carries the telemetry of the run that
originally produced it, marked ``from_cache=True``: its command and
memo counts are exact (they are deterministic), while its wall/CPU/RSS
figures describe the original simulation, not the cache read.
"""

from __future__ import annotations

import dataclasses
import time
import typing

from repro.obs.metrics import MetricsRegistry

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover - e.g. Windows
    _resource = None


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 where unknown).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalized here so
    telemetry compares across platforms.
    """
    if _resource is None:
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":  # pragma: no cover - macOS units
        peak //= 1024
    return int(peak)


@dataclasses.dataclass(frozen=True)
class CellTelemetry:
    """Resource accounting for one executed experiment cell.

    ``wall_s``/``cpu_s`` time the simulation itself (excluding engine
    scheduling); ``peak_rss_kb`` is the executing process's high-water
    mark *after* the cell ran -- in an isolated worker that is the
    cell's own footprint, in a serial run it is the parent's cumulative
    peak.  ``memo_*`` mirror the cost pipeline's counters
    (:class:`repro.perf.memo.CostPipeline`); ``commands_simulated`` is
    the op-census total (a machine-independent work count).
    ``attempt`` is the 1-based try that finally succeeded.
    """

    benchmark: str
    device: str
    num_ranks: int
    attempt: int = 1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: int = 0
    commands_simulated: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_shapes: int = 0
    faults_injected: "tuple[tuple[str, int], ...]" = ()
    from_cache: bool = False
    #: Whether the cell ran through the vectorized histogram-pricing
    #: engine (docs/VECTORIZATION.md).  ``commands_simulated`` still
    #: counts every modeled issue -- histogram-priced commands are in
    #: the op census exactly like scalar ones.  Defaulted so telemetry
    #: pickled by older cache entries reads back as scalar.
    vector: bool = False

    def to_dict(self) -> "dict[str, object]":
        """JSON-friendly record (the run report's ``cells`` rows)."""
        return {
            "benchmark": self.benchmark,
            "device": self.device,
            "num_ranks": self.num_ranks,
            "attempt": self.attempt,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_kb": self.peak_rss_kb,
            "commands_simulated": self.commands_simulated,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_shapes": self.memo_shapes,
            "faults_injected": {name: n for name, n in self.faults_injected},
            "from_cache": self.from_cache,
            "vector": self.vector,
        }

    @property
    def memo_lookups(self) -> int:
        return self.memo_hits + self.memo_misses

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of cost lookups served from the memo (0.0 when idle)."""
        lookups = self.memo_lookups
        return self.memo_hits / lookups if lookups else 0.0

    def contribute(self, scratch: MetricsRegistry) -> None:
        """Add this cell's contribution to a registry in place.

        The single code path for "what a cell contributes" whether it
        ran serially, in a worker, or came from the cache; both
        :meth:`as_metrics_snapshot` and the batched fold in
        :func:`merge_cell_telemetry` route through it (via
        :meth:`contribute_many`, which hoists the per-name registry
        lookups out of the per-cell loop).
        """
        self.contribute_many(scratch, (self,))

    @staticmethod
    def contribute_many(
        scratch: MetricsRegistry,
        telemetries: "typing.Iterable[CellTelemetry]",
    ) -> int:
        """Fold many cells into a registry; returns how many folded.

        Instrument objects are resolved once per call, not once per
        cell -- a sweep merges thousands of records whose name set is
        fixed.  Per-cell increment/observe order is unchanged, so the
        folded snapshot is identical to chaining :meth:`contribute`.
        """
        cells = scratch.counter("telemetry.cells")
        commands = scratch.counter("telemetry.commands_simulated")
        memo_hits = scratch.counter("cost_memo.hits")
        memo_misses = scratch.counter("cost_memo.misses")
        rss = scratch.gauge("telemetry.peak_rss_kb")
        wall = scratch.histogram("telemetry.cell_wall_s")
        folded = 0
        for telemetry in telemetries:
            cells.inc()
            commands.inc(telemetry.commands_simulated)
            memo_hits.inc(telemetry.memo_hits)
            memo_misses.inc(telemetry.memo_misses)
            if telemetry.from_cache:
                scratch.counter("telemetry.cells_from_cache").inc()
            if telemetry.attempt > 1:
                scratch.counter("telemetry.retry_attempts").inc(
                    telemetry.attempt - 1
                )
            for name, count in telemetry.faults_injected:
                scratch.counter(f"fault.{name}.injected").inc(count)
            rss.set(telemetry.peak_rss_kb)
            wall.observe(telemetry.wall_s)
            folded += 1
        return folded

    def as_metrics_snapshot(self) -> "dict[str, dict]":
        """This cell as a mergeable registry snapshot.

        Built through a scratch :class:`MetricsRegistry` so the bucket
        layout and record shapes are exactly the ones
        :meth:`MetricsRegistry.merge` expects.
        """
        scratch = MetricsRegistry()
        self.contribute(scratch)
        return scratch.snapshot()


class TelemetryCapture:
    """Times one cell run; construct before, :meth:`finish` after."""

    def __init__(self) -> None:
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def finish(self, **fields: typing.Any) -> CellTelemetry:
        """The cell's record: ``fields`` plus the measured wall, CPU, RSS."""
        return CellTelemetry(
            wall_s=time.perf_counter() - self._wall0,
            cpu_s=time.process_time() - self._cpu0,
            peak_rss_kb=peak_rss_kb(),
            **fields,
        )


#: Process-wide, spec-ordered log of every cell the engine completed
#: (including cache hits).  The run report's per-cell table reads it; it
#: spans run_cells calls so a figure driver's multiple suites all land
#: in one report.
_TELEMETRY_LOG: "list[CellTelemetry]" = []


def record_cell_telemetry(telemetry: CellTelemetry) -> None:
    """Append one cell's record to the process-wide log (engine-side)."""
    _TELEMETRY_LOG.append(telemetry)


def telemetry_log() -> "tuple[CellTelemetry, ...]":
    """Every cell recorded in this process, in completion (spec) order."""
    return tuple(_TELEMETRY_LOG)


def clear_telemetry_log() -> None:
    """Drop the log (tests and long-lived services)."""
    _TELEMETRY_LOG.clear()


def merge_cell_telemetry(
    registry: MetricsRegistry,
    telemetries: "typing.Iterable[CellTelemetry]",
    log: bool = True,
) -> int:
    """Fold per-cell records into a registry; returns how many merged.

    The engine calls this once per :func:`~repro.engine.engine.run_cells`
    with the outcomes in spec order, which makes the aggregation
    deterministic for any worker count.  ``log=True`` also appends each
    record to the process-wide :func:`telemetry_log`.

    All records fold into one scratch registry (in the given order)
    which merges into ``registry`` once -- one sorted-merge pass per
    call instead of one per cell, with the same deterministic result
    for any worker count.
    """
    scratch = MetricsRegistry()
    if log:
        telemetries = list(telemetries)
        _TELEMETRY_LOG.extend(telemetries)
    merged = CellTelemetry.contribute_many(scratch, telemetries)
    if merged:
        registry.merge(scratch.snapshot())
    return merged
