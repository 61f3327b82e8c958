"""Run one ``repro`` command with host-time spans around its layers.

Usage::

    python3 perfbench/traced_cli.py SPANS.json <repro arguments...>

The program's source must be importable (``PYTHONPATH=src``).  Before
calling :func:`repro.cli.main`, this wraps the public entry points
listed in :data:`TARGETS` (and every alias other ``repro`` modules hold
of them) in :class:`spans.SpanRecorder` spans.  When the command
returns, spans and counters go to ``SPANS.json``.  The program itself
is unchanged: only this process sees the wrappers.
"""

from __future__ import annotations

import importlib
import sys
import typing

from spans import SpanRecorder

#: ``(module, attribute path, span name)`` of every wrapped entry point.
TARGETS = (
    ("repro.bench.common", "PimBenchmark.run", "bench.run"),
    ("repro.core.device", "PimDevice.execute", "core.execute"),
    ("repro.perf.plans", "compile_plan", "perf.plans.compile"),
    ("repro.dse.sweep", "run_sweep", "dse.run_sweep"),
    ("repro.dse.batch", "price_group", "dse.batch.price_group"),
    ("repro.dse.pareto", "pareto_frontier", "dse.pareto"),
    ("repro.dse.report", "sweep_payload", "dse.report"),
    ("repro.dse.report", "format_sweep", "dse.report"),
    ("repro.analysis.clustering", "build_dendrogram", "analysis.dendrogram"),
    ("repro.analysis.clustering", "render_text_dendrogram",
     "experiments.render"),
    ("repro.experiments.runner", "run_suite", "experiments.run_suite"),
    ("repro.engine.cells", "run_cell", "engine.run_cell"),
    ("repro.engine.cache", "cell_cache_key", "engine.cache_key"),
    ("repro.engine.cache", "DiskCache.get", "engine.cache.get"),
    ("repro.engine.cache", "DiskCache.put", "engine.cache.put"),
    ("repro.engine.cache", "DiskCache.get_plan", "perf.plans.get"),
)

# -- counters read at the wrapped boundaries ------------------------------

def _observe_bench_run(counts, result, bench, device, *args, **kwargs):
    counts["core.commands"] += int(sum(result.op_counts.values()))


def _observe_cache_get(counts, result, cache, key):
    counts["engine.cache.get.hits"] += result is not None


def _observe_cache_put(counts, result, cache, key, outcome):
    try:
        counts["engine.cache.bytes_written"] += cache.path_for(key).stat().st_size
    except OSError:
        pass


def _observe_plan_get(counts, result, cache, key):
    counts["perf.plans.get.hits"] += result is not None


def _observe_sweep(counts, result, *args, **kwargs):
    counts["dse.batch.batched_cells"] += result.batched_cells
    counts["dse.cells"] += len(result.outcomes) * len(result.spec.benchmarks)


OBSERVERS = {
    "bench.run": _observe_bench_run,
    "engine.cache.get": _observe_cache_get,
    "engine.cache.put": _observe_cache_put,
    "perf.plans.get": _observe_plan_get,
    "dse.run_sweep": _observe_sweep,
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _replace_aliases(original, wrapper) -> None:
    """Point every ``from x import f`` binding in ``repro`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: SpanRecorder) -> "list[typing.Any]":
    """Wrap every target; later imports see the wrappers too.

    Returns the list every ``CostPipeline`` created from now on joins.
    """
    import repro.cli  # noqa: F401 - load what the CLI binds at import
    import repro.experiments

    wrapped = []
    for module_name, path, span_name in TARGETS:
        owner, attr = _resolve(module_name, path)
        wrapped.append((owner, attr, span_name, OBSERVERS.get(span_name)))
    # The ``format_*`` functions render every figure and table's text.
    for attr in sorted(vars(repro.experiments)):
        func = getattr(repro.experiments, attr)
        if attr.startswith("format_") and callable(func):
            owner = importlib.import_module(func.__module__)
            wrapped.append((owner, func.__name__, "experiments.render", None))
    _wrap_cost_tables(wrapped)
    for owner, attr, span_name, observe in wrapped:
        original = vars(owner)[attr]
        if hasattr(original, "__perfbench_original__"):
            continue
        wrapper = recorder.wrap(span_name, original, observe)
        setattr(owner, attr, wrapper)
        if not isinstance(owner, type):
            _replace_aliases(original, wrapper)
    return _register_cost_pipelines()


def _wrap_cost_tables(wrapped: list) -> None:
    """Every backend class that defines ``cost_table`` prices through it.

    A backend that delegates to another's ``cost_table`` opens a nested
    span of the same name; :meth:`SpanRecorder.wrap` leaves such
    re-entrant calls unrecorded so each pricing call counts once.
    """
    from repro.arch.base import ArchBackend

    importlib.import_module("repro.arch.registry")
    pending: "list[type]" = [ArchBackend]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "cost_table" in vars(cls):
            wrapped.append((cls, "cost_table", "arch.cost_table", None))


def _register_cost_pipelines() -> "list[typing.Any]":
    """Keep every ``CostPipeline`` so its memo counters can be read when
    the command ends (the memo has no per-call hook worth a span)."""
    from repro.perf.memo import CostPipeline

    pipelines: "list[typing.Any]" = []
    original = CostPipeline.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        pipelines.append(self)

    CostPipeline.__init__ = init
    return pipelines


def main(argv: "list[str]") -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, repro_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    pipelines = install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        recorder.counts["perf.memo.hits"] = sum(p.hits for p in pipelines)
        recorder.counts["perf.memo.misses"] = sum(p.misses for p in pipelines)
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
