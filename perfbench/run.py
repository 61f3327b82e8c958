"""End-to-end benchmark of the ``repro`` CLI and ``repro serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Every timed operation is a fresh program process started from the
checkout's ``src`` (interpreter start and imports included), at default
settings, against a private result cache.  Workloads (why each was
chosen is in ``BENCHMARK.json``; what the seed changes is in
``inputs.py``):

* ``paper-cold``  -- ``repro tables``, ``repro suite`` and every figure,
  one process each, starting from an empty cache;
* ``paper-warm``  -- the same commands against a cache filled, untimed,
  during set-up;
* ``dse-sweep``   -- one ``repro dse run --report`` of a 720-point sweep
  against an empty cache;
* ``serve-mixed`` -- ``repro serve`` with 2 warm workers on a unix socket,
  driven by a closed loop over 2 connections in blocks of 1368 requests
  (half repeats of a small hot set, half distinct uncached cells), after
  one untimed block that lets the workers warm up.

A run repeats its workload's measured unit (the command list, the sweep,
a request block) while another one still fits in ``--seconds`` of timed
work, at least once.  End-to-end metrics (``--trace 0``), all host time:

* ``setup_s``: a fresh interpreter until ready for work, median of
  several starts.  CLI: imports plus argument parsing.  Serve: spawn
  until ``/readyz`` answers 200 with the workers up.
* ``wall_s``: median wall time of one measured unit.
* ``latency_p50_ms`` / ``latency_p99_ms``: nearest-rank percentiles of
  one operation's latency.  An operation is what a user waits for: the
  whole command list (paper workloads; each command's own latency is
  printed too, but with 13 commands a p99 is just the slowest one), a
  ``dse run`` process (dse-sweep), a request as the client sees it
  (serve-mixed; every run has at least 10 samples beyond p99).
* ``throughput_rps``: operations completed per second of measured time.
* ``points_per_s``: design points per second -- as ``dse run`` prints it
  (dse-sweep), distinct cells served per second (serve-mixed), or
  distinct cells the command list resolves per second (paper workloads).
* ``peak_rss_mb``: the largest peak RSS of any workload process, serve
  workers and the serve client included.

Every command, sweep and request is checked: one that exits non-zero,
prints or returns other output than the reference, or is failed or shed
by the server counts as ``failed`` out of ``attempted``, and their
quotient is the run's error rate.  Result caches stay under
``.perfbench/caches`` after the run (see :meth:`Run.cache_dir`).

``--trace 1`` runs the workload's unit once untraced and once with
host-time spans around the program's layers (``traced_cli.py``), and
reports the per-layer metrics, ``python -X importtime`` start-up
breakdown, the tracing overhead and the model's accuracy anchors.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  A checkout without
the program's sources makes the run fail with exit code 2.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import sys
import time
import typing

import checks
import inputs
import procs
import serve_load
import spans
import stats

ROOT = pathlib.Path(__file__).resolve().parent.parent
CACHE_ROOT = ROOT / ".perfbench" / "caches"
WORKLOADS = ("paper-cold", "paper-warm", "dse-sweep", "serve-mixed")

#: ``setup_s`` samples are spread over the run, so that they see the
#: same machine as the timed work: a CLI start-up probe after every
#: this many paper commands and after every sweep, and one server
#: start before, during and after the serve load.
PROBE_EVERY = 3
IMPORTTIME_SAMPLES = 3
#: Packages whose cumulative import time the traced run reports.
IMPORT_PACKAGES = ("repro", "repro.analysis", "scipy", "numpy")

PARSE_ONLY = (
    "import sys, repro.cli; repro.cli.build_parser().parse_args(sys.argv[1:])"
)
FILL_CACHE = (
    "import contextlib, io, json, sys, repro.cli\n"
    "for command in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        if repro.cli.main(command) != 0:\n"
    "            sys.exit(f'repro {command} failed')\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Run:
    """State of one benchmark run: processes, samples, failures."""

    def __init__(self, seed: int, seconds: float, work: pathlib.Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.programs = procs.Programs(ROOT, work)
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        #: Samples behind the reported medians and percentiles.
        self.samples: "dict[str, list[float]]" = {}
        self._dirs = 0

    def cache_dir(self) -> pathlib.Path:
        """A new, empty result cache directory.

        Caches outlive the run under ``.perfbench/caches``.  On file
        systems that discard freed blocks online (ext4 mounted with
        ``discard``), creating files soon after deleting thousands of
        small ones is several times slower, so deleting each run's
        caches would slow the cache writes of the runs after it.  Users'
        caches grow rather than churn, and so do the benchmark's; remove
        the directory after a benchmarking session.
        """
        self._dirs += 1
        path = CACHE_ROOT / f"{os.getpid()}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def operation(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def note(self, problem: str) -> None:
        """A check that is not one of the timed operations failed."""
        self.problems.append(problem)


def repeat(seconds: float, one: "typing.Callable[[], float | None]"
           ) -> "list[float]":
    """Run ``one`` (returning its timed wall time) while another run
    still fits in ``seconds`` of timed work; at least once.  ``one``
    returns None when it has no input left."""
    walls: "list[float]" = []
    while True:
        wall = one()
        if wall is None:
            return walls
        walls.append(wall)
        if sum(walls) + statistics.median(walls) > seconds:
            return walls


def end_to_end(run: Run, setup: "list[float]", walls: "list[float]",
               latencies: "list[float]", points_per_s: float,
               peak_rss_mb: "float | None" = None) -> "dict[str, float]":
    """The end-to-end metrics from one run's samples (times in s)."""
    run.samples.update(setup_s=setup, wall_s=walls,
                       latency_ms=[v * 1e3 for v in latencies])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "latency_p50_ms": stats.percentile(latencies, 50) * 1e3,
        "latency_p99_ms": stats.percentile(latencies, 99) * 1e3,
        "throughput_rps": len(latencies) / sum(walls),
        "points_per_s": points_per_s,
        "peak_rss_mb": (run.programs.peak_rss_mb if peak_rss_mb is None
                        else peak_rss_mb),
    }


def cli_setup_s(run: Run, command: "tuple[str, ...]") -> float:
    """A fresh interpreter that imports the CLI and parses one command
    line; returns its wall time."""
    done = run.programs.run(
        run.programs.python("-c", PARSE_ONLY, *command), None, record_rss=False)
    if done.returncode != 0:
        raise RuntimeError(f"CLI start-up failed: {done.stderr.decode()[-500:]}")
    return done.wall_s


# -- paper workloads -------------------------------------------------------

def paper_pass(run: Run, commands, cache_dir: pathlib.Path, reference: dict,
               latencies: "list[float]", trace_rows: "list | None" = None,
               setup: "list[float] | None" = None) -> float:
    """Run the command list once, one process after the other.

    Returns the list's wall time: the sum of its processes' wall times,
    so the start-up probes run between them (into ``setup``) do not
    count.
    """
    finished = []
    for index, command in enumerate(commands):
        if trace_rows is None:
            argv = run.programs.repro(*command)
        else:
            argv = run.programs.bench_script(
                "traced_cli.py", str(run.work / f"spans-{index}.json"), *command
            )
        finished.append(run.programs.run(argv, cache_dir))
        if setup is not None and index % PROBE_EVERY == PROBE_EVERY - 1:
            setup.append(cli_setup_s(run, command))
    wall = sum(done.wall_s for done in finished)
    for index, (command, done) in enumerate(zip(commands, finished)):
        key = checks.command_key(command)
        ok = done.returncode == 0 and checks.digest(done.stdout) == reference[key]
        run.operation(ok, f"`repro {key}` exited {done.returncode} "
                          f"or printed other output than the reference")
        latencies.append(done.wall_s)
        if trace_rows is not None:
            path = run.work / f"spans-{index}.json"
            trace_rows.append(checks.load_json(path))
            path.unlink()
    return wall


def paper_cells(cache_dir: pathlib.Path) -> int:
    """Distinct cells a filled result cache holds."""
    return sum(1 for p in (cache_dir / "cells").rglob("*") if p.is_file())


def fill_cache(run: Run, commands) -> pathlib.Path:
    cache = run.cache_dir()
    done = run.programs.run(
        run.programs.python("-c", FILL_CACHE, json.dumps(commands)), cache,
        record_rss=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"filling the cache failed: {done.stderr.decode()[-500:]}")
    return cache


def measure_paper(run: Run, warm: bool) -> "dict[str, float]":
    commands = inputs.paper_commands(run.seed)
    reference = checks.load_json(checks.PAPER_REFERENCE)
    warm_cache = fill_cache(run, commands) if warm else None
    setup = [cli_setup_s(run, commands[0])]
    latencies: "list[float]" = []
    cells: "list[int]" = []

    def one() -> float:
        cache = warm_cache or run.cache_dir()
        wall = paper_pass(run, commands, cache, reference, latencies,
                          setup=setup)
        cells.append(paper_cells(cache))
        return wall

    walls = repeat(run.seconds, one)
    run.samples["command_ms"] = [v * 1e3 for v in latencies]
    return end_to_end(run, setup, walls, walls, sum(cells) / sum(walls))


def trace_paper(run: Run, warm: bool) -> "dict[str, float]":
    commands = inputs.paper_commands(run.seed)
    reference = checks.load_json(checks.PAPER_REFERENCE)
    warm_cache = fill_cache(run, commands) if warm else None
    walls = []
    rows: "list[dict]" = []
    for trace_rows in (None, rows):
        cache = warm_cache or run.cache_dir()
        walls.append(paper_pass(run, commands, cache, reference, [], trace_rows))
    return layer_metrics(run, rows, walls[0], walls[1])


# -- dse-sweep -------------------------------------------------------------

def dse_pass(run: Run, spec: dict, spec_path: pathlib.Path, reference: dict,
             latencies: "list[float]", rates: "list[float]",
             trace_rows: "list | None" = None) -> float:
    cache = run.cache_dir()
    report = run.work / "report.json"
    args = ("dse", "run", "--spec", str(spec_path), "--report", str(report))
    if trace_rows is None:
        argv = run.programs.repro(*args)
    else:
        spans_path = run.work / "spans-dse.json"
        argv = run.programs.bench_script("traced_cli.py", str(spans_path), *args)
    done = run.programs.run(argv, cache)
    problems = [f"`repro dse run` exited {done.returncode}"] if done.returncode else []
    if not problems:
        problems = checks.dse_problems(done.stdout, report.read_bytes(), spec, reference)
    run.operation(not problems, "; ".join(problems))
    latencies.append(done.wall_s)
    if not problems:
        rates.append(checks.sweep_points_per_s(done.stdout))
    if trace_rows is not None:
        trace_rows.append(checks.load_json(spans_path))
    report.unlink(missing_ok=True)
    return done.wall_s


def dse_setup(run: Run) -> "tuple[dict, pathlib.Path, dict]":
    spec = inputs.dse_spec(inputs.dse_clocks(run.seed))
    spec_path = run.work / "sweep.json"
    spec_path.write_text(json.dumps(spec, indent=2))
    return spec, spec_path, checks.load_json(checks.DSE_REFERENCE)


def measure_dse(run: Run) -> "dict[str, float]":
    spec, spec_path, reference = dse_setup(run)
    command = ("dse", "run", "--spec", str(spec_path),
               "--report", str(run.work / "report.json"))
    setup = [cli_setup_s(run, command), cli_setup_s(run, command)]
    latencies: "list[float]" = []
    rates: "list[float]" = []

    def one() -> float:
        wall = dse_pass(run, spec, spec_path, reference, latencies, rates)
        setup.append(cli_setup_s(run, command))
        return wall

    walls = repeat(run.seconds, one)
    if not rates:
        raise RuntimeError("no dse run succeeded: " + "; ".join(run.problems[:3]))
    run.samples["points_per_s"] = rates
    return end_to_end(run, setup, walls, latencies, statistics.median(rates))


def trace_dse(run: Run) -> "dict[str, float]":
    spec, spec_path, reference = dse_setup(run)
    rows: "list[dict]" = []
    untraced = dse_pass(run, spec, spec_path, reference, [], [])
    traced = dse_pass(run, spec, spec_path, reference, [], [], rows)
    return layer_metrics(run, rows, untraced, traced)


# -- serve-mixed -----------------------------------------------------------

class Server:
    """One ``repro serve`` process on a unix socket in the run directory."""

    def __init__(self, run: Run, name: str, spans_path: "pathlib.Path | None" = None):
        self.run = run
        self.cache = run.cache_dir()
        # Relative to the checkout root (the cwd of both sides): unix
        # socket paths are limited to about 100 bytes.
        self.socket = os.path.relpath(run.work / f"{name}.sock", ROOT)
        args = ("serve", "--socket", self.socket,
                "--workers", str(inputs.SERVE_WORKERS),
                "--cache-dir", str(self.cache))
        if spans_path is None:
            argv = run.programs.repro(*args)
        else:
            argv = run.programs.bench_script("traced_cli.py", str(spans_path), *args)
        start = time.perf_counter()
        self.proc = run.programs.spawn(argv, None)
        ready = serve_load.wait_ready(
            self.socket, procs.PROCESS_TIMEOUT_S, lambda: procs.alive(self.proc)
        )
        self.setup_s = time.perf_counter() - start
        if not ready:
            self.stop()
            raise RuntimeError("repro serve never became ready")

    def status(self) -> "tuple[dict, str]":
        with serve_load.Connection(self.socket) as conn:
            _, statusz = conn.get_json("/statusz")
            _, metrics = conn.request("GET", "/metrics")
        return statusz, metrics.decode("utf-8")

    def stop(self) -> None:
        code, _ = procs.stop(self.run.programs, self.proc)
        if code != 0:
            self.run.note(f"repro serve exited {code} after SIGTERM")


def serve_block(run: Run, server: Server, block: "list[dict]",
                latencies: "list[float]", replies: "dict[str, list[bytes]]"
                ) -> float:
    """Send one request block; failed requests count at once, served
    replies are kept for :func:`check_replies`."""
    bodies = [json.dumps(cell).encode() for cell in block]
    results, wall = serve_load.closed_loop(
        server.socket, bodies, inputs.SERVE_CONNECTIONS)
    for index, status, latency, reply in results:
        latencies.append(latency)
        if status == 200:
            key = json.dumps(block[index], sort_keys=True)
            replies.setdefault(key, []).append(reply)
        else:
            run.operation(False, f"serve answered {status}: {reply[:200]!r}")
    for _ in range(len(block) - len(results)):
        run.operation(False, "serve request lost with its connection")
    return wall


def check_replies(run: Run, replies: "dict[str, list[bytes]]") -> None:
    """Compare every served reply byte for byte with a direct engine run
    of its cell (two reference processes share the cells)."""
    keys = sorted(replies)
    jobs = []
    for n, half in enumerate((keys[0::2], keys[1::2])):
        cells_path = run.work / f"cells-{n}.json"
        out_path = run.work / f"reference-{n}.json"
        cells_path.write_text(json.dumps([json.loads(k) for k in half]))
        argv = run.programs.bench_script(
            "serve_reference.py", str(cells_path), str(out_path))
        jobs.append((run.programs.spawn(argv, None), out_path))
    codes = [run.programs.reap(proc, record_rss=False)[0] for proc, _ in jobs]
    if any(codes):
        raise RuntimeError("the direct reference run of served cells failed")
    expected: "dict[str, str]" = {}
    for _, out_path in jobs:
        expected.update(checks.load_json(out_path))
    for key in keys:
        want = expected.get(key, "").encode("utf-8")
        for reply in replies[key]:
            run.operation(reply == want,
                          f"serve reply for {key} differs from run_cells")


def measure_serve(run: Run) -> "dict[str, float]":
    probe = Server(run, "before")
    probe.stop()
    setup = [probe.setup_s]
    server = Server(run, "serve")
    setup.append(server.setup_s)
    blocks = iter(inputs.serve_blocks(run.seed))
    latencies: "list[float]" = []
    replies: "dict[str, list[bytes]]" = {}
    cells_served: "list[int]" = []
    try:
        # A long-lived server's workers fill their in-process tables on
        # the first few hundred cells; one untimed block lets that
        # finish (its replies are still checked).
        serve_block(run, server, next(blocks), [], replies)

        def one() -> "float | None":
            block = next(blocks, None)
            if block is None:
                return None
            cells_served.append(len({json.dumps(c, sort_keys=True) for c in block}))
            return serve_block(run, server, block, latencies, replies)

        walls = repeat(run.seconds, one)
    finally:
        server.stop()
    client_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = Server(run, "after")
    probe.stop()
    setup.append(probe.setup_s)
    check_replies(run, replies)
    return end_to_end(run, setup, walls, latencies,
                      sum(cells_served) / sum(walls),
                      max(run.programs.peak_rss_mb, client_rss))


def trace_serve(run: Run) -> "dict[str, float]":
    block = inputs.serve_blocks(run.seed)[0]
    replies: "dict[str, list[bytes]]" = {}
    server = Server(run, "untraced")
    try:
        untraced = serve_block(run, server, block, [], replies)
    finally:
        server.stop()
    spans_path = run.work / "spans-serve.json"
    server = Server(run, "traced", spans_path)
    latencies: "list[float]" = []
    try:
        before = server.status()
        traced = serve_block(run, server, block, latencies, replies)
        after = server.status()
    finally:
        server.stop()
    check_replies(run, replies)
    serve = serve_metrics(before, after, latencies)
    return layer_metrics(run, [checks.load_json(spans_path)], untraced, traced,
                         serve)


def serve_metrics(before: "tuple[dict, str]", after: "tuple[dict, str]",
                  latencies: "list[float]") -> "dict[str, float]":
    """Service counters over one block: ``/statusz`` and ``/metrics``
    deltas, plus the client's view of the same requests."""
    (status0, text0), (status1, text1) = before, after

    def delta(name: str) -> float:
        return (status1["counters"].get(name, 0.0)
                - status0["counters"].get(name, 0.0))

    shed = sum(
        value - status0["counters"].get(name, 0.0)
        for name, value in status1["counters"].items()
        if name.startswith("serve.shed.")
    )
    family = "repro_serve_latency_s"
    start = dict(serve_load.histogram_buckets(text0, family))
    buckets = [(bound, count - start.get(bound, 0))
               for bound, count in serve_load.histogram_buckets(text1, family)]
    server_p50 = serve_load.histogram_quantile(buckets, 50)
    return {
        "serve.executed": delta("serve.executed"),
        "serve.cache_hits": delta("serve.cache_hits"),
        "serve.coalesced": float(status1["coalesced"] - status0["coalesced"]),
        "serve.shed": shed,
        "serve.worker_respawns": float(
            status1["worker_respawns"] - status0["worker_respawns"]),
        "serve.queue_depth_max": float(status1["max_inflight"]),
        "serve.server_latency_p99_ms":
            serve_load.histogram_quantile(buckets, 99) * 1e3,
        "serve.transport_p50_ms":
            (stats.percentile(latencies, 50) - server_p50) * 1e3,
    }


# -- per-layer metrics -----------------------------------------------------

#: Every metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "import.repro_s": "s",
    "import.repro.analysis_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "bench.run.calls": "count",
    "bench.run.self_s": "s",
    "core.execute.calls": "count",
    "core.execute.self_s": "s",
    "core.commands": "count",
    "perf.memo.hits": "count",
    "perf.memo.misses": "count",
    "perf.memo.hit_ratio": "ratio",
    "perf.plans.compile.calls": "count",
    "perf.plans.compile.self_s": "s",
    "perf.plans.cache_hit_ratio": "ratio",
    "arch.cost_table.calls": "count",
    "arch.cost_table.self_s": "s",
    "dse.run_sweep.self_s": "s",
    "dse.batch.price_group.calls": "count",
    "dse.batch.price_group.self_s": "s",
    "dse.batch.batched_share": "ratio",
    "dse.pareto.self_s": "s",
    "dse.report.self_s": "s",
    "engine.run_cell.calls": "count",
    "engine.run_cell.self_s": "s",
    "engine.cache_key.calls": "count",
    "engine.cache_key.self_s": "s",
    "engine.cache.get.calls": "count",
    "engine.cache.get.self_s": "s",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.put.calls": "count",
    "engine.cache.put.self_s": "s",
    "engine.cache.bytes_written": "B",
    "experiments.run_suite.calls": "count",
    "experiments.run_suite.self_s": "s",
    "experiments.render.self_s": "s",
    "analysis.dendrogram.self_s": "s",
    "serve.executed": "count",
    "serve.cache_hits": "count",
    "serve.coalesced": "count",
    "serve.shed": "count",
    "serve.worker_respawns": "count",
    "serve.queue_depth_max": "count",
    "serve.server_latency_p99_ms": "ms",
    "serve.transport_p50_ms": "ms",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
    "model.listing3_rel_err": "ratio",
    "model.upmem_vecadd_rel_err": "ratio",
    "model.upmem_gemv_rel_err": "ratio",
}

#: Span names whose call count and self time are reported as-is.
SPAN_METRICS = (
    "bench.run", "core.execute", "perf.plans.compile", "arch.cost_table",
    "dse.batch.price_group", "engine.run_cell", "engine.cache_key",
    "engine.cache.get", "engine.cache.put", "experiments.run_suite",
)
SELF_ONLY = ("dse.run_sweep", "dse.pareto", "dse.report", "experiments.render",
             "analysis.dendrogram")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(run: Run, rows: "list[dict]", untraced: float, traced: float,
                  serve: "dict[str, float] | None" = None) -> "dict[str, float]":
    """Per-layer metrics from the traced processes' span dumps."""
    agg = spans.merge(spans.aggregate(row) for row in rows)
    counts: "collections.Counter[str]" = collections.Counter()
    for row in rows:
        counts.update(row["counts"])
    empty = {"calls": 0, "self_s": 0.0}
    m: "dict[str, float]" = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = agg.get(name, empty)["calls"]
        m[f"{name}.self_s"] = agg.get(name, empty)["self_s"]
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = agg.get(name, empty)["self_s"]
    hits, misses = counts["perf.memo.hits"], counts["perf.memo.misses"]
    m["core.commands"] = counts["core.commands"]
    m["perf.memo.hits"] = hits
    m["perf.memo.misses"] = misses
    m["perf.memo.hit_ratio"] = _ratio(hits, hits + misses)
    m["perf.plans.cache_hit_ratio"] = _ratio(
        counts["perf.plans.get.hits"], agg.get("perf.plans.get", empty)["calls"])
    m["dse.batch.batched_share"] = _ratio(
        counts["dse.batch.batched_cells"], counts["dse.cells"])
    m["engine.cache.hit_ratio"] = _ratio(
        counts["engine.cache.get.hits"], m["engine.cache.get.calls"])
    m["engine.cache.bytes_written"] = counts["engine.cache.bytes_written"]
    m.update(serve or {name: 0.0 for name in PER_LAYER_UNITS
                       if name.startswith("serve.")})
    m["trace.untraced_wall_s"] = untraced
    m["trace.traced_wall_s"] = traced
    m["trace.overhead_s"] = traced - untraced
    m.update(import_times(run))
    m.update(model_anchors(run))
    m["error_rate"] = _ratio(run.failed, run.attempted)
    return m


def parse_importtime(text: str, packages: "typing.Iterable[str]"
                     ) -> "dict[str, float]":
    """Cumulative import seconds per package from ``-X importtime`` output.

    A package's time is the sum of the cumulative times of its modules'
    lines whose importer is outside the package, so nested imports of
    the same package are not counted twice.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((level, name.strip(), int(cumulative)))
    # Each line is printed after the imports it caused, so walking the
    # lines backwards meets every importer before what it imported.
    totals = dict.fromkeys(packages, 0)
    stack: "list[tuple[int, str]]" = []
    for level, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        for package in totals:
            inside = name == package or name.startswith(package + ".")
            parent_inside = parent == package or parent.startswith(package + ".")
            if inside and not parent_inside:
                totals[package] += cumulative
        stack.append((level, name))
    return {package: us / 1e6 for package, us in totals.items()}


def import_times(run: Run) -> "dict[str, float]":
    samples = collections.defaultdict(list)
    for _ in range(IMPORTTIME_SAMPLES):
        done = run.programs.run(
            run.programs.python("-X", "importtime", "-c", "import repro.cli"),
            None, record_rss=False)
        if done.returncode != 0:
            raise RuntimeError("importing repro.cli failed")
        parsed = parse_importtime(done.stderr.decode(), IMPORT_PACKAGES)
        for package, seconds in parsed.items():
            samples[package].append(seconds)
    return {f"import.{package}_s": statistics.median(values)
            for package, values in samples.items()}


def model_anchors(run: Run) -> "dict[str, float]":
    out = run.work / "anchors.json"
    done = run.programs.run(
        run.programs.bench_script("model_anchors.py", str(out)), None,
        record_rss=False)
    if done.returncode != 0:
        raise RuntimeError("computing the model anchors failed")
    return checks.load_json(out)


# -- entry point -----------------------------------------------------------

MEASURE = {
    "paper-cold": lambda run: measure_paper(run, warm=False),
    "paper-warm": lambda run: measure_paper(run, warm=True),
    "dse-sweep": measure_dse,
    "serve-mixed": measure_serve,
}
TRACE = {
    "paper-cold": lambda run: trace_paper(run, warm=False),
    "paper-warm": lambda run: trace_paper(run, warm=True),
    "dse-sweep": trace_dse,
    "serve-mixed": trace_serve,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # A terminated run still stops its processes and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args.seed, args.seconds, work)
    try:
        # Write back what earlier runs left dirty, so that the kernel's
        # write-back does not compete with this run's timed work.
        os.sync()
        build = run.programs.run(
            run.programs.python("-m", "compileall", "-q", "src"), None,
            record_rss=False)
        if build.returncode != 0:
            print(build.stdout.decode() + build.stderr.decode(), file=sys.stderr)
            return 2
        metrics = (TRACE if args.trace else MEASURE)[args.workload](run)
    finally:
        run.programs.close()
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name:<32} {metrics[name]:>16.6g} {unit}")
    for name, values in run.samples.items():
        summary = stats.summarize(values)
        print(f"{name}: median {summary['median']:.6g}, quartiles "
              f"{summary['q1']:.6g}..{summary['q3']:.6g}, spread "
              f"{stats.relative_spread(values):.3f}, n={summary['n']}")
    if "latency_ms" in run.samples:
        beyond = stats.samples_beyond(len(run.samples["latency_ms"]), 99)
        print(f"latency samples beyond p99: {beyond}")
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
