"""Command-line interface: run benchmarks and regenerate figures.

Mirrors the artifact's workflow (build one simulation target, run each
benchmark, read the stats report) without the per-target rebuilds::

    python -m repro list                          # the Table I suite
    python -m repro run vecadd --target fulcrum   # one benchmark + report
    python -m repro suite --ranks 32 --jobs 4     # Figure 9/10/11 tables
    python -m repro figure 6a                     # any figure by number
    python -m repro tables                        # Tables I and II
    python -m repro arch list                     # architecture backends
    python -m repro profile vecadd --trace t.json # Perfetto trace + metrics
    python -m repro cache info                    # persistent result cache

``run``, ``suite``, and ``profile`` accept ``--trace out.json`` to dump
the simulated timeline as a Chrome trace-event file (load it in
chrome://tracing or https://ui.perfetto.dev), plus ``--jobs N`` to fan
simulations out across worker processes and ``--cache-dir`` /
``--no-cache`` to steer the persistent result cache (see
docs/PERFORMANCE.md for the caching contract).

``run --paper-scale``, ``suite``, and ``figure`` price analytic cells
through the vectorized histogram engine (docs/VECTORIZATION.md) --
byte-identical numbers, much faster; ``--vector-check`` cross-checks
every vectorized cell against the scalar path cell by cell.

Resilience flags (docs/RESILIENCE.md): ``--cell-timeout S`` bounds each
cell's wall-clock time, ``--max-retries N`` re-runs transiently failing
cells with exponential backoff, ``--fail-fast`` stops scheduling after
the first ultimate failure.  A failing cell never aborts the run: the
remaining cells complete, failed ones render as explicit gaps, a
failure-summary table prints at the end, and the exit code is
non-zero.  ``repro campaign`` sweeps seeded device-fault models across
benchmarks and grades which ones functional verification detects.
"""

from __future__ import annotations

import argparse
import sys
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch import ArchBackend

# Each command imports what it runs inside its ``cmd_*`` function: a
# warm ``figure``/``suite``/``tables`` renders cached cells and must not
# pay for the simulator or numpy (docs/PERFORMANCE.md, "Start-up").


def _parse_target(name: str) -> "ArchBackend":
    """Resolve a --device/--target name through the architecture registry."""
    from repro.arch import backend_names, resolve_backend
    from repro.core.errors import PimConfigError

    try:
        return resolve_backend(name)
    except PimConfigError:
        raise SystemExit(
            f"unknown device {name!r}; choose from "
            f"{', '.join(backend_names())} "
            f"(aliases: {', '.join(backend_names(include_aliases=True))}; "
            "see `repro arch list`)"
        ) from None


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.bench.extensions import EXTENSION_BENCHMARKS
    from repro.bench.registry import BENCHMARK_CLASSES

    print(f"{'key':<12s} {'name':<22s} {'domain':<22s} {'execution':<10s}")
    for cls in BENCHMARK_CLASSES:
        print(f"{cls.key:<12s} {cls.name:<22s} {cls.domain:<22s} "
              f"{cls.execution_type:<10s}")
    print("\nextension kernels:")
    for cls in EXTENSION_BENCHMARKS:
        print(f"{cls.key:<12s} {cls.name:<22s} {cls.domain:<22s} "
              f"{cls.execution_type:<10s}")
    return 0


def _make_bench(key: str, paper_scale: bool):
    """Resolve a benchmark key (suite or extension kernel) to an instance."""
    from repro.bench.extensions import EXTENSION_BENCHMARKS
    from repro.bench.registry import BENCHMARKS_BY_KEY, make_benchmark

    extension_keys = {cls.key: cls for cls in EXTENSION_BENCHMARKS}
    if key in BENCHMARKS_BY_KEY:
        return make_benchmark(key, paper_scale=paper_scale)
    if key in extension_keys:
        cls = extension_keys[key]
        params = cls.paper_params() if paper_scale else cls.default_params()
        return cls(**params)
    known = sorted(set(BENCHMARKS_BY_KEY) | set(extension_keys))
    raise SystemExit(f"unknown benchmark {key!r}; known: {known}")


def _make_policy(args: argparse.Namespace):
    """The resilience policy the engine flags (or environment) ask for."""
    from repro.core.errors import PimError
    from repro.resilience import RetryPolicy

    try:
        return RetryPolicy.from_env(
            max_retries=getattr(args, "max_retries", None),
            cell_timeout_s=getattr(args, "cell_timeout", None),
            fail_fast=getattr(args, "fail_fast", False),
        )
    except (ValueError, PimError) as exc:
        raise SystemExit(str(exc)) from None


def _report_failures(failures) -> None:
    """Print the end-of-run failure table to stderr."""
    from repro.resilience import format_failure_summary

    print(f"\n{format_failure_summary(failures)}", file=sys.stderr)


def _maybe_write_report(args: argparse.Namespace) -> None:
    """Write the JSON run report when ``--report`` asked for one.

    The report bundles the process-wide metrics registry (including the
    spec-ordered telemetry merge the engine performed), the per-cell
    telemetry table, and an environment stamp -- see
    docs/OBSERVABILITY.md ("Telemetry & exposition").
    """
    path = getattr(args, "report", None)
    if not path:
        return
    from repro.obs.report import write_run_report

    write_run_report(path)
    print(f"Run report written to {path}")


def _apply_vector_check(args: argparse.Namespace) -> None:
    """Honor ``--vector-check`` by exporting ``REPRO_VECTOR_CHECK``.

    The flag travels as an environment variable so worker processes
    (``--jobs N``) inherit it and check their cells too.
    """
    if getattr(args, "vector_check", False):
        import os

        from repro.engine.cells import VECTOR_CHECK_ENV

        os.environ[VECTOR_CHECK_ENV] = "1"


def _make_bus(trace_path: "str | None", with_metrics: bool = False):
    """Build an event bus with the sinks the flags ask for.

    Returns ``(bus, chrome_sink, metrics_sink)``; all ``None`` when no
    observability was requested (the zero-overhead default).
    """
    if trace_path is None and not with_metrics:
        return None, None, None
    from repro.obs import ChromeTraceSink, EventBus, MetricsSink

    bus = EventBus()
    chrome = bus.subscribe(ChromeTraceSink(trace_path)) if trace_path else None
    metrics = bus.subscribe(MetricsSink()) if with_metrics else None
    return bus, chrome, metrics


def cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis import format_report
    from repro.core.device import PimDevice
    from repro.engine import CellSpec, run_cells

    backend = _parse_target(args.target)
    bench = _make_bench(args.benchmark, args.paper_scale)
    _apply_vector_check(args)
    # Announce the run up front: paper-scale simulations take a while and
    # a silent terminal reads as a hang.
    print(f"Running {bench.name} on {backend.display_name} "
          f"({args.ranks} ranks, "
          f"{'paper-scale analytic' if args.paper_scale else 'functional'})\n",
          flush=True)
    bus, chrome, _ = _make_bus(getattr(args, "trace", None))
    spec = CellSpec(
        benchmark_key=args.benchmark,
        device_type=backend.device_type,
        num_ranks=args.ranks,
        paper_scale=args.paper_scale,
        functional=not args.paper_scale,
        # Functional runs execute the data path element by element; the
        # histogram engine only prices analytic cells.
        vector=args.paper_scale,
    )
    execution = run_cells(
        [spec], jobs=args.jobs, use_cache=not args.no_cache,
        cache_dir=args.cache_dir, bus=bus, policy=_make_policy(args),
    )
    outcome = execution.outcome(spec)
    if not outcome.ok:
        _report_failures(execution.failures)
        _maybe_write_report(args)
        return 1
    result = outcome.result
    if execution.hits:
        print("Result served from the persistent cache "
              "(re-simulate with --no-cache).\n")
    if result.verified is not None:
        print(f"Functional verification: "
              f"{'PASSED' if result.verified else 'FAILED'}")
    # Re-render the Listing-3 report from the outcome's stats tracker;
    # on a cache hit no device ever ran in this process.
    device = PimDevice(
        backend.make_config(args.ranks),
        functional=not args.paper_scale,
    )
    device.stats = outcome.tracker
    print(format_report(device, title=bench.name))
    print(f"Speedup vs CPU (kernel+DM) : {result.speedup_cpu_total:10.3f}x")
    print(f"Speedup vs CPU (kernel)    : {result.speedup_cpu_kernel:10.3f}x")
    print(f"Speedup vs GPU             : {result.speedup_gpu:10.3f}x")
    print(f"Energy reduction vs CPU    : {result.energy_reduction_cpu:10.3f}x")
    print(f"Energy reduction vs GPU    : {result.energy_reduction_gpu:10.3f}x")
    if chrome is not None:
        print(f"\nChrome trace written to {chrome.write()} "
              f"({len(chrome.events)} events); open in chrome://tracing "
              "or https://ui.perfetto.dev")
    _maybe_write_report(args)
    return 0 if result.verified in (True, None) else 1


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one benchmark: trace + metrics + hottest-command table."""
    from repro.analysis import format_hottest_commands
    from repro.engine import CellSpec, run_cells

    backend = _parse_target(args.target)
    bench = _make_bench(args.benchmark, args.paper_scale)
    print(f"Profiling {bench.name} on {backend.display_name} "
          f"({args.ranks} ranks)\n", flush=True)
    bus, chrome, metrics = _make_bus(args.trace, with_metrics=True)
    spec = CellSpec(
        benchmark_key=args.benchmark,
        device_type=backend.device_type,
        num_ranks=args.ranks,
        paper_scale=args.paper_scale,
        functional=not args.paper_scale,
    )
    # Observed runs bypass the cache by design: events only stream while
    # simulating.  With --jobs > 1 the worker records events and the
    # parent replays them, so the registry sees the identical stream.
    execution = run_cells(
        [spec], jobs=args.jobs, bus=bus, policy=_make_policy(args)
    )
    outcome = execution.outcome(spec)
    if not outcome.ok:
        _report_failures(execution.failures)
        _maybe_write_report(args)
        return 1
    result = outcome.result
    if result.verified is not None:
        print(f"Functional verification: "
              f"{'PASSED' if result.verified else 'FAILED'}")
    registry = metrics.registry
    print(format_hottest_commands(registry, top_n=args.top))
    print(f"\nSimulated time : {bus.now_ns / 1e6:.6f} ms "
          f"(simulator wall overhead {bus.wall_us() / 1e3:.1f} ms)")
    telemetry = getattr(outcome, "telemetry", None)
    if telemetry is not None and telemetry.memo_lookups:
        print(f"Cost-memo hit rate : {telemetry.memo_hit_rate:.1%} "
              f"({telemetry.memo_hits:,} of {telemetry.memo_lookups:,} "
              f"lookups, {telemetry.memo_shapes} distinct shapes)")
    if chrome is not None:
        print(f"Chrome trace written to {chrome.write()} "
              f"({len(chrome.events)} events); open in chrome://tracing "
              "or https://ui.perfetto.dev")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(registry.to_jsonl())
        print(f"Metrics written to {args.metrics} "
              f"({len(registry.names())} series)")
    if args.openmetrics:
        from repro.obs.openmetrics import write_openmetrics

        write_openmetrics(args.openmetrics, registry)
        print(f"OpenMetrics exposition written to {args.openmetrics}")
    _maybe_write_report(args)
    return 0 if result.verified in (True, None) else 1


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.experiments import (
        breakdown_table,
        energy_table,
        format_breakdown_table,
        format_energy_table,
        format_speedup_table,
        run_suite,
        speedup_table,
    )

    _apply_vector_check(args)
    bus, chrome, _ = _make_bus(getattr(args, "trace", None))
    suite = run_suite(
        num_ranks=args.ranks, paper_scale=True, bus=bus,
        jobs=args.jobs, use_cache=not args.no_cache,
        cache_dir=args.cache_dir, policy=_make_policy(args), strict=False,
    )
    print(f"=== Speedups (Figures 9 / 10a), {args.ranks} ranks ===")
    print(format_speedup_table(speedup_table(suite)))
    print(f"\n=== Energy (Figures 10b / 11) ===")
    print(format_energy_table(energy_table(suite)))
    print(f"\n=== Breakdown (Figure 7) ===")
    print(format_breakdown_table(breakdown_table(suite)))
    if chrome is not None:
        print(f"\nChrome trace written to {chrome.write()} "
              f"({len(chrome.events)} events)")
    _maybe_write_report(args)
    if suite.failures:
        _report_failures(suite.failures)
        return 1
    return 0


def _normalize_figure(text: str) -> str:
    """Reduce "Figure 7" / "fig. 6a" / "7" to the bare figure number.

    Uses ``removeprefix``, not ``lstrip``: ``lstrip("fig")`` strips
    *characters* and would mangle "figure 7" into "ure 7".
    """
    return (
        text.lower()
        .removeprefix("figure")
        .removeprefix("fig")
        .strip(" .")
    )


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.engine.cells import CellExecutionError

    _apply_vector_check(args)
    try:
        failures = _render_figure(args, _normalize_figure(args.figure))
    except CellExecutionError as exc:
        failures = exc.failures
    _maybe_write_report(args)
    if failures:
        _report_failures(failures)
        return 1
    return 0


def _render_figure(args: argparse.Namespace, figure: str) -> dict:
    """Print one figure; return the failed cells it rendered as gaps.

    Figures 7-11 render a failed cell as a gap, as ``suite`` does.
    Figures 1, 12 and 13 combine cells (a dendrogram, ratios of two
    suites), so a failed cell raises ``CellExecutionError`` instead.
    """
    from repro import experiments as exp

    if figure in ("1",):
        from repro.analysis import (
            build_dendrogram,
            extract_features,
            render_text_dendrogram,
        )
        suite = exp.run_suite(num_ranks=args.ranks, paper_scale=True,
                              jobs=args.jobs)
        features = [
            extract_features(
                suite.benchmarks[key],
                suite.result(key, "bitserial"),
            )
            for key in suite.benchmark_keys()
        ]
        print(render_text_dendrogram(build_dendrogram(features)))
    elif figure in ("6", "6a"):
        print(exp.format_sensitivity_table(exp.column_sensitivity()))
    elif figure == "6b":
        print(exp.format_sensitivity_table(exp.bank_sensitivity()))
    elif figure == "7":
        suite = exp.run_suite(num_ranks=args.ranks, paper_scale=True,
                              jobs=args.jobs, strict=False)
        print(exp.format_breakdown_table(exp.breakdown_table(suite)))
        return suite.failures
    elif figure == "8":
        suite = exp.run_suite(num_ranks=args.ranks, paper_scale=True,
                              jobs=args.jobs, strict=False)
        print(exp.format_opmix_table(exp.opmix_table(suite)))
        return suite.failures
    elif figure in ("9", "10", "10a"):
        suite = exp.run_suite(num_ranks=args.ranks, paper_scale=True,
                              jobs=args.jobs, strict=False)
        print(exp.format_speedup_table(exp.speedup_table(suite)))
        return suite.failures
    elif figure in ("10b", "11"):
        suite = exp.run_suite(num_ranks=args.ranks, paper_scale=True,
                              jobs=args.jobs, strict=False)
        print(exp.format_energy_table(exp.energy_table(suite)))
        return suite.failures
    elif figure == "12":
        print(exp.format_rank_table(
            exp.rank_scaling_table(jobs=args.jobs)
        ))
    elif figure == "13":
        print(exp.format_rank_table(
            exp.capacity_matched_table(jobs=args.jobs)
        ))
    else:
        raise SystemExit(f"unknown figure {args.figure!r}; know 1, 6a, 6b, "
                         "7, 8, 9, 10a, 10b, 11, 12, 13")
    return {}


def cmd_campaign(args: argparse.Namespace) -> int:
    """Sweep fault models across benchmarks; grade detection vs masking."""
    from repro.faults import FaultCampaign
    from repro.faults.campaign import DEFAULT_BENCHMARKS

    campaign = FaultCampaign(
        benchmarks=tuple(args.benchmarks) or DEFAULT_BENCHMARKS,
        seed=args.seed,
    )
    report = campaign.run(jobs=args.jobs, policy=_make_policy(args))
    print(report.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"\nCampaign report written to {args.json}")
    return 1 if report.grades()["crashed"] else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived evaluation service (docs/SERVING.md)."""
    import asyncio

    from repro.serve.http import run_server
    from repro.serve.service import EvaluationService, ServiceConfig

    host = args.host
    if args.socket is None and host is None:
        host = "127.0.0.1"
    chaos = None
    if args.chaos_rate or args.chaos_hang_rate:
        from repro.faults.chaos import ChaosPolicy

        chaos = ChaosPolicy(
            seed=args.chaos_seed,
            crash_rate=args.chaos_rate,
            hang_rate=args.chaos_hang_rate,
            hang_s=args.chaos_hang_s,
        )
    config = ServiceConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
        default_deadline_s=args.deadline,
        policy=_make_policy(args),
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        chaos=chaos,
        drain_grace_s=args.drain_grace,
    )
    service = EvaluationService(config)

    def ready(endpoints: "list[str]") -> None:
        for endpoint in endpoints:
            print(f"repro serve listening on {endpoint}", flush=True)

    try:
        code = asyncio.run(
            run_server(
                service,
                host=host,
                port=args.port,
                socket_path=args.socket,
                ready_callback=ready,
            )
        )
    except KeyboardInterrupt:
        # The drain normally absorbs SIGINT via the loop's handler; a
        # second interrupt lands here.  Still a clean exit.
        code = 0
    if args.openmetrics:
        from repro.obs.metrics import global_registry
        from repro.obs.openmetrics import write_openmetrics

        write_openmetrics(args.openmetrics, global_registry())
        print(f"OpenMetrics exposition written to {args.openmetrics}")
    print("repro serve drained cleanly", flush=True)
    return code


def cmd_arch_list(args: argparse.Namespace) -> int:
    """List registered architecture backends with Table II parameters.

    Parametric backends resolve without registration, so one is listed
    only when a caller registered it by hand; it renders with a ``*``
    marker and the base backend it was derived from in the ``origin``
    column.  Iteration is sorted by id, so the listing is byte-stable
    for a given registry population.
    """
    from repro.arch import iter_backends

    print(f"{'name':<18s} {'T':<2s}{'display':<18s} {'cores':>9s} "
          f"{'freq':>9s} {'layout':<11s} {'AP':<3s} {'origin':<10s} "
          f"{'aliases'}")
    any_transient = False
    for backend in iter_backends():
        params = backend.table2_params(num_ranks=args.ranks)
        freq = params["freq_mhz"]
        freq_text = f"{freq:.0f}MHz" if freq is not None else "DRAM"
        transient = bool(getattr(backend, "transient", False))
        any_transient = any_transient or transient
        print(
            f"{backend.id:<18s} {'*' if transient else '':<2s}"
            f"{backend.display_name:<18s} "
            f"{params['cores']:>9,d} {freq_text:>9s} "
            f"{str(params['layout']):<11s} "
            f"{'yes' if params['ap_support'] else 'no':<3s} "
            f"{backend.origin or '-':<10s} "
            f"{', '.join(backend.aliases)}"
        )
        if args.verbose:
            print(f"{'':<18s}   {backend.description}")
            print(f"{'':<18s}   stamp sources: "
                  f"{', '.join(backend.stamp_sources)}")
    print(f"\n({args.ranks} ranks; pass any name above as "
          "`repro run --device <name>`"
          + ("; * = transient parametric backend" if any_transient else "")
          + ")")
    return 0


def _load_sweep_spec(args: argparse.Namespace):
    """Build the SweepSpec the ``dse`` flags describe."""
    from repro.core.errors import PimError
    from repro.dse import SweepSpec

    try:
        return SweepSpec.from_file(args.spec)
    except PimError as exc:
        raise SystemExit(str(exc)) from None


def cmd_dse_list(args: argparse.Namespace) -> int:
    """Compile a sweep spec and list its design points without running."""
    from repro.core.errors import PimError

    spec = _load_sweep_spec(args)
    try:
        points = spec.compile_points()
    except PimError as exc:
        raise SystemExit(str(exc)) from None
    print(f"Sweep {spec.name!r}: {len(points)} design point(s) over "
          f"base(s) {', '.join(spec.bases)}; benchmarks: "
          f"{', '.join(spec.benchmarks)}")
    for point in points:
        knobs = ", ".join(f"{k}={v}" for k, v in point.knobs) or "(base)"
        print(f"  {point.point_id:<28s} {knobs}")
    return 0


def cmd_dse_run(args: argparse.Namespace) -> int:
    """Run a sweep: evaluate every point, print and save the report."""
    from repro.core.errors import PimError
    from repro.dse import format_sweep, render_json, run_sweep, sweep_payload

    spec = _load_sweep_spec(args)
    _apply_vector_check(args)
    try:
        result = run_sweep(
            spec,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            vector=not args.no_vector,
            policy=_make_policy(args),
        )
    except PimError as exc:
        raise SystemExit(str(exc)) from None
    print(format_sweep(result, verbose=args.verbose))
    print(f"{len(result.outcomes)} point(s) in {result.wall_s:.2f} s "
          f"({result.points_per_s:.0f} points/s); plan cache: "
          f"{result.plan_hits} hit(s), {result.plan_misses} compile(s); "
          f"{result.batched_cells} cell(s) batch-priced")
    status = 1 if any(outcome.failed for outcome in result.outcomes) else 0
    if args.vector_check and status == 0:
        print(f"\nVector check passed: {result.checked_cells} batch-priced "
              "cell(s) bit-identical to the scalar oracle")
    if args.report:
        payload = sweep_payload(result)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_json(payload))
        print(f"\nSweep report written to {args.report}")
    return status


def cmd_dse_frontier(args: argparse.Namespace) -> int:
    """Print the Pareto frontier from a saved sweep report."""
    import json

    from repro.dse import REPORT_SCHEMA

    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read sweep report {args.report}: {exc}")
    schema = payload.get("schema")
    if schema != REPORT_SCHEMA:
        print(f"warning: report schema {schema!r} != {REPORT_SCHEMA} "
              f"(reading anyway)", file=sys.stderr)
    frontier = set(payload.get("frontier", ()))
    points = [
        p for p in payload.get("points", ()) if p.get("id") in frontier
    ]
    spec = payload.get("spec", {})
    print(f"Sweep {spec.get('name', '?')!r}: {len(points)} of "
          f"{payload.get('num_points', '?')} points on the Pareto frontier")
    print(f"  {'point':<28} {'base':<10} {'latency_ns':>14} "
          f"{'energy_nj':>14} {'area':>10}")
    for point in points:
        metrics = point.get("metrics", {})
        print(
            f"  {point['id']:<28} {point.get('base', '?'):<10} "
            f"{metrics.get('latency_ns', float('nan')):>14.1f} "
            f"{metrics.get('energy_nj', float('nan')):>14.1f} "
            f"{metrics.get('area_proxy', float('nan')):>10.0f}"
        )
        if args.verbose:
            knobs = ", ".join(
                f"{k}={v}" for k, v in sorted(point.get("knobs", {}).items())
            )
            print(f"      knobs: {knobs or '(base)'}")
    return 0


def cmd_tables(_args: argparse.Namespace) -> int:
    from repro.experiments import format_table1, format_table2

    print("=== Table I: PIMbench Suite ===")
    print(format_table1())
    print("\n=== Table II: Evaluated Architectures ===")
    print(format_table2())
    return 0


def cmd_cache_clear(args: argparse.Namespace) -> int:
    from repro.engine import DiskCache
    from repro.experiments import clear_cache

    cache = DiskCache(args.cache_dir)
    removed = clear_cache(args.cache_dir)
    print(f"Removed {removed} cached result(s) from {cache.root}")
    return 0


def _format_age(seconds: float) -> str:
    """Compact human age: 42s / 12.3m / 5.1h / 3.2d."""
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def cmd_cache_info(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.engine import DiskCache

    cache = DiskCache(args.cache_dir)
    entries = cache.entries()
    size = sum(entry_size for _, entry_size, _ in entries)
    now = time_module.time()
    print(f"Cache directory : {cache.root}")
    print(f"Entries         : {len(entries)}")
    print(f"Size            : {size / 1024:.1f} KiB")
    if entries:
        ages = [now - mtime for _, _, mtime in entries]
        print(f"Oldest entry    : {_format_age(max(ages))} ago")
        print(f"Newest entry    : {_format_age(min(ages))} ago")
    usage = cache.usage()
    lookups = usage["hits"] + usage["misses"]
    rate = f" ({usage['hits'] / lookups:.1%} hit rate)" if lookups else ""
    print(f"Lifetime        : {usage['hits']} hits, {usage['misses']} misses, "
          f"{usage['writes']} writes, {usage['corrupt']} corrupt{rate}")
    if args.verbose and entries:
        print(f"\n{'key':<16s} {'KiB':>8s} {'age':>8s}")
        for key, entry_size, mtime in entries:
            print(f"{key[:16]:<16s} {entry_size / 1024:>8.1f} "
                  f"{_format_age(now - mtime):>8s}")
    return 0


def _add_engine_flags(
    parser: argparse.ArgumentParser,
    report_help: str = "write a JSON run report (metrics snapshot, per-cell "
                       "telemetry table, environment stamp)",
) -> None:
    """The experiment-engine flags of run/profile/suite/campaign/dse run.

    ``dse run`` passes its own ``report_help``: its ``--report`` is the
    sweep report, not the run report.
    """
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="simulate cells across N worker processes "
             "(default: $REPRO_JOBS or serial); results are identical "
             "for any N",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache location "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore cached results and do not write new ones",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per cell in seconds; a cell that "
             "exceeds it is killed and reported as a timeout "
             "(default: $REPRO_CELL_TIMEOUT or unlimited)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="re-run a failing cell up to N times with exponential "
             "backoff before recording the failure "
             "(default: $REPRO_MAX_RETRIES or 0)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop scheduling new cells after the first ultimate "
             "failure; unstarted cells are reported as skipped",
    )
    parser.add_argument(
        "--report", metavar="OUT.json", default=None, help=report_help,
    )


def _add_vector_flags(parser: argparse.ArgumentParser) -> None:
    """The vectorized-engine flag shared by run/suite/figure."""
    parser.add_argument(
        "--vector-check", action="store_true",
        help="also run the scalar path for every vectorized cell and "
             "fail on any bit difference (sets $REPRO_VECTOR_CHECK=1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite").set_defaults(
        func=cmd_list
    )

    # allow_abbrev=False: an unknown flag such as ``--vector`` must be
    # rejected, not silently prefix-matched to ``--vector-check``.
    run = sub.add_parser("run", help="run one benchmark", allow_abbrev=False)
    run.add_argument("benchmark", help="benchmark key (see `list`)")
    run.add_argument("--target", "--device", dest="target", default="fulcrum",
                     help="architecture backend name (see `repro arch list`; "
                          "default fulcrum)")
    run.add_argument("--ranks", type=int, default=4)
    run.add_argument("--paper-scale", action="store_true",
                     help="Table I input sizes, analytic mode")
    run.add_argument("--trace", metavar="OUT.json", default=None,
                     help="write a Chrome/Perfetto trace of the run")
    _add_engine_flags(run)
    _add_vector_flags(run)
    run.set_defaults(func=cmd_run)

    profile = sub.add_parser(
        "profile", help="profile one benchmark (trace, metrics, hotspots)",
        allow_abbrev=False,
    )
    profile.add_argument("benchmark", help="benchmark key (see `list`)")
    profile.add_argument("--target", "--device", dest="target",
                         default="fulcrum",
                         help="architecture backend name (see `repro arch "
                              "list`; default fulcrum)")
    profile.add_argument("--ranks", type=int, default=4)
    profile.add_argument("--paper-scale", action="store_true",
                         help="Table I input sizes, analytic mode")
    profile.add_argument("--trace", metavar="OUT.json", default=None,
                         help="write a Chrome/Perfetto trace of the run")
    profile.add_argument("--metrics", metavar="OUT.jsonl", default=None,
                         help="write the metrics registry as JSON Lines")
    profile.add_argument("--openmetrics", metavar="OUT.txt", default=None,
                         help="write the metrics registry as OpenMetrics/"
                              "Prometheus exposition text")
    profile.add_argument("--top", type=int, default=10,
                         help="hottest-command table size (default 10)")
    _add_engine_flags(profile)
    profile.set_defaults(func=cmd_profile)

    suite = sub.add_parser(
        "suite", help="run the full evaluation", allow_abbrev=False
    )
    suite.add_argument("--ranks", type=int, default=32)
    suite.add_argument("--trace", metavar="OUT.json", default=None,
                       help="write a Chrome/Perfetto trace of the whole suite")
    _add_engine_flags(suite)
    _add_vector_flags(suite)
    suite.set_defaults(func=cmd_suite)

    figure = sub.add_parser(
        "figure", help="regenerate one figure", allow_abbrev=False
    )
    figure.add_argument("figure", help="1, 6a, 6b, 7, 8, 9, 10a, 10b, 11, 12, 13")
    figure.add_argument("--ranks", type=int, default=32)
    figure.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for suite-backed figures "
             "(default: $REPRO_JOBS or serial)",
    )
    figure.add_argument(
        "--report", metavar="OUT.json", default=None,
        help="write a JSON run report (metrics snapshot, per-cell "
             "telemetry table, environment stamp)",
    )
    _add_vector_flags(figure)
    figure.set_defaults(func=cmd_figure)

    campaign = sub.add_parser(
        "campaign",
        help="fault-injection campaign: which faults does verification catch?",
    )
    campaign.add_argument(
        "benchmarks", nargs="*",
        help="benchmark keys to sweep (default: vecadd axpy gemv)",
    )
    campaign.add_argument("--seed", type=int, default=0,
                          help="campaign seed (default 0); same seed, "
                               "same report, byte for byte")
    campaign.add_argument("--json", metavar="OUT.json", default=None,
                          help="write the deterministic campaign report")
    _add_engine_flags(campaign)
    campaign.set_defaults(func=cmd_campaign)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived evaluation service (docs/SERVING.md)",
    )
    serve.add_argument("--host", default=None,
                       help="TCP bind host (default: 127.0.0.1 unless "
                            "--socket is given alone)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: an ephemeral port)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="also (or only) listen on this unix socket")
    serve.add_argument("--workers", type=int, default=2,
                       help="warm worker processes (default: 2)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="max admitted-but-unfinished requests before "
                            "shedding with ERR_OVERLOAD (default: 64)")
    serve.add_argument("--quota-rps", type=float, default=None,
                       help="per-tenant steady-state requests/s "
                            "(default: unlimited)")
    serve.add_argument("--quota-burst", type=float, default=None,
                       help="per-tenant burst size (default: --quota-rps)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="default per-request deadline seconds "
                            "(default: 30)")
    serve.add_argument("--cell-timeout", type=float, default=60.0,
                       metavar="S",
                       help="watchdog seconds before a worker is declared "
                            "hung and respawned (default: 60)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="retries per cell after a transient fault "
                            "(default: 2)")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent result cache directory")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without the persistent result cache")
    serve.add_argument("--drain-grace", type=float, default=20.0,
                       metavar="S",
                       help="seconds SIGTERM waits for in-flight work "
                            "before force-rejecting it (default: 20)")
    serve.add_argument("--chaos-rate", type=float, default=0.0,
                       help="fraction of executions that draw a worker "
                            "crash (chaos mode; default: 0)")
    serve.add_argument("--chaos-hang-rate", type=float, default=0.0,
                       help="fraction of executions that draw a worker "
                            "hang (default: 0)")
    serve.add_argument("--chaos-hang-s", type=float, default=120.0,
                       help="seconds an injected hang sleeps; keep it "
                            "above --cell-timeout (default: 120)")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the deterministic chaos schedule")
    serve.add_argument("--openmetrics", metavar="OUT.txt", default=None,
                       help="write a final OpenMetrics exposition on exit")
    serve.set_defaults(func=cmd_serve)

    arch = sub.add_parser(
        "arch", help="inspect the architecture backend registry"
    )
    arch_sub = arch.add_subparsers(dest="arch_command", required=True)
    arch_list = arch_sub.add_parser(
        "list", help="list registered backends with Table II parameters"
    )
    arch_list.add_argument("--ranks", type=int, default=32,
                           help="rank count for the core column (default 32)")
    arch_list.add_argument("-v", "--verbose", action="store_true",
                           help="also print descriptions and stamp sources")
    arch_list.set_defaults(func=cmd_arch_list)

    dse = sub.add_parser(
        "dse",
        help="design-space exploration sweeps over parametric "
             "architectures (docs/DSE.md)",
    )
    dse_sub = dse.add_subparsers(dest="dse_command", required=True)

    dse_run = dse_sub.add_parser(
        "run", help="evaluate a sweep spec and extract the Pareto frontier"
    )
    dse_run.add_argument("--spec", required=True, metavar="SPEC.json",
                         help="sweep spec file (schema: docs/DSE.md)")
    _add_engine_flags(
        dse_run,
        report_help="write the byte-stable sweep report (points, "
                    "frontier, winner tables)",
    )
    pricer = dse_run.add_mutually_exclusive_group()
    pricer.add_argument("--no-vector", action="store_true",
                        help="price cells through the scalar path instead "
                             "of the vectorized engine (same numbers, "
                             "slower)")
    pricer.add_argument("--vector-check", action="store_true",
                        help="bit-compare the first, middle and last "
                             "batch-priced cells against the scalar oracle "
                             "(sets $REPRO_VECTOR_CHECK=1)")
    dse_run.add_argument("-v", "--verbose", action="store_true",
                         help="also print each frontier point's knobs")
    dse_run.set_defaults(func=cmd_dse_run)

    dse_frontier = dse_sub.add_parser(
        "frontier", help="print the Pareto frontier of a saved sweep report"
    )
    dse_frontier.add_argument("report", metavar="REPORT.json",
                              help="report written by `dse run --report`")
    dse_frontier.add_argument("-v", "--verbose", action="store_true",
                              help="also print each frontier point's knobs")
    dse_frontier.set_defaults(func=cmd_dse_frontier)

    dse_list = dse_sub.add_parser(
        "list", help="compile a sweep spec and list its design points"
    )
    dse_list.add_argument("--spec", required=True, metavar="SPEC.json",
                          help="sweep spec file (schema: docs/DSE.md)")
    dse_list.set_defaults(func=cmd_dse_list)

    sub.add_parser("tables", help="print Tables I and II").set_defaults(
        func=cmd_tables
    )

    cache = sub.add_parser(
        "cache", help="manage the persistent result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_clear = cache_sub.add_parser(
        "clear", help="delete every cached result (memory + disk)"
    )
    cache_clear.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache_clear.set_defaults(func=cmd_cache_clear)
    cache_info = cache_sub.add_parser(
        "info", help="show the cache location, entries, ages, and "
                     "lifetime hit/miss counters"
    )
    cache_info.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache_info.add_argument(
        "-v", "--verbose", action="store_true",
        help="also list every entry with its size and age",
    )
    cache_info.set_defaults(func=cmd_cache_info)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
