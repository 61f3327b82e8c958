"""Self-benchmark: wall-clock timing of the simulator itself.

The performance contract (docs/PERFORMANCE.md) promises that the memoized
cost pipeline and trace batching keep the paper-scale suite fast without
changing a single modeled number.  This module times the promise: it runs
the standard workloads end to end and reports wall seconds and simulated
commands per second, in a stable JSON schema
(``{"run", "wall_s", "commands_simulated", "commands_per_s"}`` per entry)
that CI and ``BENCH_PR5.json`` archive.

Seven runs cover the interesting regimes:

* ``suite-cold``   -- the full evaluation suite with every cache bypassed,
  priced through the scalar tracker (the reference path, where the cost
  memo lives),
* ``suite-warm``   -- the same suite served from the persistent disk
  cache in a scratch directory (the §2 caching contract),
* ``figure12-cold``-- the Figure 12 rank sweep (four uncached suites),
  the heaviest standard driver,
* ``suite-cold-vector`` / ``figure12-cold-vector`` -- the same cold runs
  through the vectorized histogram-pricing engine (the default of
  ``run_suite`` and the CLI, docs/VECTORIZATION.md); identical command
  counts by the byte-identity contract, so the cmds/s ratio against
  the scalar legs *is* the vectorization speedup, and
* ``dse-sweep-cold`` -- a fixed 12-point uncached design-space sweep
  (:mod:`repro.dse`) forced down the per-cell path (``batched=False``):
  every cell runs on a freshly derived transient parametric backend,
  timing the derivation + vector-pricing path, comparable across
  baselines archived before batched pricing existed, and
* ``dse-sweep-cold-batched`` -- a larger fixed 540-point uncached sweep
  through the sweep-level matrix pricer (docs/DSE.md "Batched
  pricing"): three geometry groups, each compiled once and priced as a
  cost matrix; its ``points_per_s`` against ``dse-sweep-cold``'s is the
  batching speedup.

Wall timings are machine-dependent; ``commands_simulated`` is exact and
machine-independent (it is the op-census total the byte-identity tests
pin), which is why the schema reports both.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import time
import typing

from repro.experiments import runner
from repro.experiments.runner import run_suite

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import SuiteResults

#: Schema version of the emitted JSON payload.
SCHEMA_VERSION = 1

#: Schema version of one BENCH_HISTORY.jsonl ledger entry.
HISTORY_SCHEMA = 1

#: Cold-suite wall seconds at commit fc84025 (the last commit before the
#: memoized cost pipeline), measured on the development container with
#: the same scalar ``run_suite(use_cache=False, vector=False)`` call
#: ``suite-cold`` times.
#: Archived so BENCH_PR5.json carries the before/after pair.
PRE_MEMO_SUITE_COLD_S = 2.2885

#: The run names ``run_selfbench`` knows, in execution order.  The
#: ``--check`` regression gate compares like-named runs only, so a
#: baseline archived before the vector legs existed (BENCH_PR5.json)
#: still gates the scalar legs and simply skips the vector ones.
RUN_NAMES = (
    "suite-cold",
    "suite-warm",
    "figure12-cold",
    "suite-cold-vector",
    "figure12-cold-vector",
    "dse-sweep-cold",
    "dse-sweep-cold-batched",
)

#: Rank counts of the Figure 12 sweep (mirrors rankscaling.FIG12_RANKS).
_FIG12_RANKS = (4, 8, 16, 32)

#: The fixed sweep the ``dse-sweep-cold`` leg times: a 12-point grid
#: over the bank-level base (every point a distinct transient backend,
#: so the leg times the parametric-derivation + vector-pricing path the
#: DSE layer leans on).  Kept small enough to ride every CI pass.
_DSE_SWEEP_SPEC = {
    "name": "selfbench-dse",
    "base": "bank",
    "benchmarks": ["gemv"],
    "num_ranks": 2,
    "axes": {
        "banks_per_rank": [16, 32, 64],
        "pe_width_bits": [32, 64],
        "pe_freq_mhz": [164, 250],
    },
}

#: The fixed sweep the ``dse-sweep-cold-batched`` leg times: 540 points
#: spanning three geometry groups (the ``banks_per_rank`` axis) with
#: 180 cost-knob variants each (3 ALU widths x 60 clocks), so the
#: matrix pricer compiles three plans and prices 180 points from every
#: one -- the regime batched pricing exists for (a real frontier sweep
#: scans cost knobs densely; per-plan compile cost has to amortize to
#: noise).
_DSE_SWEEP_BATCHED_SPEC = {
    "name": "selfbench-dse-batched",
    "base": "bank",
    "benchmarks": ["gemv"],
    "num_ranks": 2,
    "axes": {
        "banks_per_rank": [16, 32, 64],
        "pe_width_bits": [32, 64, 128],
        "pe_freq_mhz": list(range(100, 400, 5)),
    },
}


@dataclasses.dataclass(frozen=True)
class SelfBenchRun:
    """One timed run of a standard workload."""

    run: str
    wall_s: float
    commands_simulated: int
    commands_per_s: float
    #: Design points per wall second -- only the DSE sweep legs set it.
    #: Serialized only when present, so non-sweep rows (and baselines
    #: archived before it existed) keep their exact schema.
    points_per_s: "float | None" = None

    def to_dict(self) -> "dict[str, object]":
        payload: "dict[str, object]" = {
            "run": self.run,
            "wall_s": self.wall_s,
            "commands_simulated": self.commands_simulated,
            "commands_per_s": self.commands_per_s,
        }
        if self.points_per_s is not None:
            payload["points_per_s"] = self.points_per_s
        return payload


def suite_command_count(suite: "SuiteResults") -> int:
    """Total simulated commands of a suite (sum of every op census)."""
    return sum(
        sum(result.op_counts.values()) for result in suite.results.values()
    )


def _timed(name: str, commands: int, wall_s: float) -> SelfBenchRun:
    return SelfBenchRun(
        run=name,
        wall_s=wall_s,
        commands_simulated=commands,
        commands_per_s=commands / wall_s if wall_s > 0 else 0.0,
    )


def _run_suite_cold(jobs: "int | None") -> SelfBenchRun:
    start = time.perf_counter()
    suite = run_suite(use_cache=False, jobs=jobs, vector=False)
    wall = time.perf_counter() - start
    return _timed("suite-cold", suite_command_count(suite), wall)


def _run_suite_warm(jobs: "int | None", scratch: str) -> SelfBenchRun:
    # Populate the scratch disk cache, then drop the in-memory tier so
    # the timed run exercises the persistent store (a fresh process's
    # warm path), not a dict lookup.
    suite = run_suite(
        use_cache=True, cache_dir=scratch, jobs=jobs, vector=False
    )
    commands = suite_command_count(suite)
    runner._CACHE.clear()
    start = time.perf_counter()
    run_suite(use_cache=True, cache_dir=scratch, jobs=jobs, vector=False)
    wall = time.perf_counter() - start
    return _timed("suite-warm", commands, wall)


def _run_suite_cold_vector(jobs: "int | None") -> SelfBenchRun:
    start = time.perf_counter()
    suite = run_suite(use_cache=False, jobs=jobs, vector=True)
    wall = time.perf_counter() - start
    return _timed("suite-cold-vector", suite_command_count(suite), wall)


def _run_figure12_cold(jobs: "int | None", vector: bool) -> SelfBenchRun:
    commands = 0
    start = time.perf_counter()
    for num_ranks in _FIG12_RANKS:
        suite = run_suite(
            num_ranks=num_ranks, paper_scale=True, enforce_capacity=False,
            use_cache=False, jobs=jobs, vector=vector,
        )
        commands += suite_command_count(suite)
    wall = time.perf_counter() - start
    name = "figure12-cold-vector" if vector else "figure12-cold"
    return _timed(name, commands, wall)


def _run_dse_sweep_cold(
    jobs: "int | None", batched: bool = False
) -> SelfBenchRun:
    from repro.dse import SweepSpec, run_sweep

    # The unbatched leg pins batched=False (not merely the env escape
    # hatch) so its timing stays comparable with baselines archived
    # before the matrix pricer existed.
    raw = _DSE_SWEEP_BATCHED_SPEC if batched else _DSE_SWEEP_SPEC
    spec = SweepSpec.from_dict(raw)
    start = time.perf_counter()
    result = run_sweep(
        spec, jobs=jobs, use_cache=False, vector=True, batched=batched,
    )
    wall = time.perf_counter() - start
    name = "dse-sweep-cold-batched" if batched else "dse-sweep-cold"
    timed = _timed(name, result.total_commands(), wall)
    points = len(result.outcomes)
    return dataclasses.replace(
        timed, points_per_s=points / wall if wall > 0 else 0.0
    )


def run_selfbench(
    runs: "typing.Sequence[str]" = RUN_NAMES,
    jobs: "int | None" = None,
) -> "list[SelfBenchRun]":
    """Execute the requested timed runs (see :data:`RUN_NAMES`)."""
    unknown = [name for name in runs if name not in RUN_NAMES]
    if unknown:
        raise ValueError(
            f"unknown selfbench runs {unknown}; know {list(RUN_NAMES)}"
        )
    results = []
    with tempfile.TemporaryDirectory(prefix="repro-selfbench-") as scratch:
        for name in runs:
            if name == "suite-cold":
                results.append(_run_suite_cold(jobs))
            elif name == "suite-warm":
                results.append(
                    _run_suite_warm(jobs, os.path.join(scratch, "cache"))
                )
            elif name == "figure12-cold":
                results.append(_run_figure12_cold(jobs, vector=False))
            elif name == "suite-cold-vector":
                results.append(_run_suite_cold_vector(jobs))
            elif name == "figure12-cold-vector":
                results.append(_run_figure12_cold(jobs, vector=True))
            elif name == "dse-sweep-cold":
                results.append(_run_dse_sweep_cold(jobs))
            elif name == "dse-sweep-cold-batched":
                results.append(_run_dse_sweep_cold(jobs, batched=True))
    return results


def selfbench_payload(
    results: "typing.Sequence[SelfBenchRun]",
    include_baseline: bool = True,
) -> "dict[str, object]":
    """The archivable JSON payload (the ``BENCH_PR5.json`` schema).

    ``include_baseline`` prepends the archived pre-memoization cold-suite
    timing (:data:`PRE_MEMO_SUITE_COLD_S`) so the before/after pair lives
    in one file; the baseline reuses the measured command count because
    the op census is identical by the byte-identity contract.
    """
    runs = [result.to_dict() for result in results]
    if include_baseline:
        cold = next((r for r in results if r.run == "suite-cold"), None)
        if cold is not None:
            runs.insert(0, SelfBenchRun(
                run="suite-cold-pre-memo",
                wall_s=PRE_MEMO_SUITE_COLD_S,
                commands_simulated=cold.commands_simulated,
                commands_per_s=(
                    cold.commands_simulated / PRE_MEMO_SUITE_COLD_S
                ),
            ).to_dict())
    return {"schema": SCHEMA_VERSION, "runs": runs}


def history_entry(
    results: "typing.Sequence[SelfBenchRun]",
    unix_s: "float | None" = None,
) -> "dict[str, object]":
    """One schema-versioned BENCH_HISTORY.jsonl ledger line.

    Unlike the overwrite-on-run ``BENCH_PR6.json`` snapshot, the history
    ledger accumulates: every selfbench pass appends one line, stamping
    when and where it ran, so throughput trends survive across PRs and
    machines instead of being overwritten.
    """
    import time as time_module

    from repro.obs.report import environment_stamp

    return {
        "schema": HISTORY_SCHEMA,
        "unix_s": round(time_module.time() if unix_s is None else unix_s, 3),
        "environment": environment_stamp(),
        "runs": [result.to_dict() for result in results],
    }


def append_history(
    path: "str | os.PathLike",
    results: "typing.Sequence[SelfBenchRun]",
    unix_s: "float | None" = None,
) -> "dict[str, object]":
    """Append one ledger entry as a JSON line; returns the entry."""
    import json

    entry = history_entry(results, unix_s=unix_s)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    return entry


@dataclasses.dataclass(frozen=True)
class RegressionCheck:
    """One run's throughput compared against an archived baseline."""

    run: str
    baseline_cps: float
    measured_cps: float
    ok: bool

    @property
    def ratio(self) -> float:
        """measured / baseline commands-per-second (1.0 = unchanged)."""
        return (
            self.measured_cps / self.baseline_cps if self.baseline_cps else 0.0
        )


def baseline_run_names(
    baseline_payload: "dict[str, object]",
) -> "set[str]":
    """The gate-able run names a baseline payload carries.

    Archived ``*-pre-memo`` entries are reference points, not gates, and
    are excluded.  Raises :class:`ValueError` for a payload that is not
    a selfbench payload at all.
    """
    runs = baseline_payload.get("runs")
    if not isinstance(runs, list):
        raise ValueError("baseline payload has no 'runs' list")
    return {
        str(run["run"])
        for run in runs
        if isinstance(run, dict) and "run" in run
        and not str(run["run"]).endswith("-pre-memo")
    }


def baseline_schema_issues(
    baseline_payload: "dict[str, object]",
) -> "list[str]":
    """Non-fatal shape problems of a baseline payload, as warnings.

    A baseline archived before the payload schema was versioned (or
    hand-edited since) lacks the ``schema`` field; newer tooling may
    have written a version this reader predates.  Neither should fail
    ``--check`` outright -- the per-run gate below still compares
    like-named runs correctly -- but both are worth a warning so a
    stale or foreign baseline is not trusted silently.
    """
    issues = []
    schema = baseline_payload.get("schema")
    if schema is None:
        issues.append(
            "baseline payload has no 'schema' version field (archived "
            "before schema versioning, or hand-edited); gating on it "
            "anyway"
        )
    elif schema != SCHEMA_VERSION:
        issues.append(
            f"baseline payload schema {schema!r} != expected "
            f"{SCHEMA_VERSION}; gating on like-named runs anyway"
        )
    return issues


def missing_baseline_runs(
    results: "typing.Sequence[SelfBenchRun]",
    baseline_payload: "dict[str, object]",
) -> "list[str]":
    """Measured runs the baseline has no entry for (gate skips these).

    A baseline archived before a new leg existed -- BENCH_PR7.json knows
    nothing of the serving legs, for instance -- must not hard-fail the
    gate; ``--check`` warns about these names and gates the rest.
    """
    names = baseline_run_names(baseline_payload)
    return [result.run for result in results if result.run not in names]


def check_regression(
    results: "typing.Sequence[SelfBenchRun]",
    baseline_payload: "dict[str, object]",
    tolerance: float = 0.25,
    missing_ok: bool = False,
) -> "list[RegressionCheck]":
    """Compare measured throughput against a baseline payload.

    ``baseline_payload`` is a selfbench JSON payload (the
    ``BENCH_PR5.json``/``BENCH_PR6.json`` schema).  Every measured run
    with a same-named baseline run is checked: it passes while its
    ``commands_per_s`` stays at or above ``(1 - tolerance)`` times the
    baseline's.  Archived ``*-pre-memo`` baselines are reference points,
    not gates, and are skipped.  Raises :class:`ValueError` when the
    payload is not a selfbench payload or -- unless ``missing_ok`` --
    shares no runs with the measurements (a silent pass would hide a
    misconfigured gate).  With ``missing_ok=True`` a disjoint baseline
    yields an empty check list instead; callers should pair it with
    :func:`missing_baseline_runs` and warn about what was skipped, so
    brand-new legs (the serving benchmarks) can ride an old baseline
    without breaking the gate.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    runs = baseline_payload.get("runs")
    if not isinstance(runs, list):
        raise ValueError("baseline payload has no 'runs' list")
    baseline_cps = {
        run["run"]: float(run["commands_per_s"])
        for run in runs
        if isinstance(run, dict) and "run" in run
        and not str(run["run"]).endswith("-pre-memo")
    }
    checks = [
        RegressionCheck(
            run=result.run,
            baseline_cps=baseline_cps[result.run],
            measured_cps=result.commands_per_s,
            ok=result.commands_per_s
            >= baseline_cps[result.run] * (1.0 - tolerance),
        )
        for result in results
        if result.run in baseline_cps
    ]
    if not checks and not missing_ok:
        raise ValueError(
            f"baseline shares no runs with the measurements "
            f"(baseline has {sorted(baseline_cps)}, "
            f"measured {[r.run for r in results]})"
        )
    return checks


def format_regression(
    checks: "typing.Sequence[RegressionCheck]", tolerance: float
) -> str:
    """Human-readable verdict table for one regression check."""
    lines = [
        f"Regression gate (tolerance {tolerance:.0%} below baseline):"
    ]
    for check in checks:
        verdict = "ok" if check.ok else "REGRESSED"
        lines.append(
            f"  {check.run:<22s} {check.measured_cps:>14,.0f} cmds/s "
            f"vs baseline {check.baseline_cps:>14,.0f} "
            f"({check.ratio:>5.2f}x)  {verdict}"
        )
    return "\n".join(lines)


def format_selfbench(results: "typing.Sequence[SelfBenchRun]") -> str:
    """Human-readable table of one selfbench pass."""
    lines = [
        f"{'run':<22s} {'wall_s':>9s} {'commands':>12s} {'cmds/s':>12s} "
        f"{'points/s':>9s}"
    ]
    for result in results:
        points = (
            f"{result.points_per_s:>9,.0f}"
            if result.points_per_s is not None
            else f"{'-':>9s}"
        )
        lines.append(
            f"{result.run:<22s} {result.wall_s:>9.4f} "
            f"{result.commands_simulated:>12,d} "
            f"{result.commands_per_s:>12,.0f} {points}"
        )
    return "\n".join(lines)
