"""Cached cell outcomes hold no numpy object.

A warm ``figure``/``suite`` unpickles cached ``CellOutcome`` records and
renders them without importing numpy (docs/PERFORMANCE.md, "Start-up").
That holds only while every value in ``BenchmarkResult``,
``StatsTracker`` and ``CellTelemetry`` is a plain Python object: one
``np.float64`` stored there puts a ``numpy`` global into the pickle
stream, and numpy back into every warm process.  These checks make that
fail loudly, for one cell per registered backend in every mode the
engine caches.
"""

from __future__ import annotations

import json
import os
import pickletools
import subprocess
import sys

import pytest

from repro.arch import iter_backends
from repro.engine import CellSpec, DiskCache, cell_cache_key
from repro.engine.cells import run_cell

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: The cell kinds the engine caches: vector-priced and scalar analytic
#: cells, and functional (verified) cells.
MODES = {
    "vector": {"vector": True},
    "scalar": {"vector": False},
    "functional": {"functional": True},
}

#: What a warm command must not load by unpickling a record.
SIMULATOR = ("numpy", "repro.core.device", "repro.perf", "repro.microcode")

LOAD_ALL = """
import json, sys
from repro.engine.cache import DiskCache
cache = DiskCache(sys.argv[1])
missing = [key for key in sys.argv[2:] if cache.get(key) is None]
print(json.dumps({
    "missing": missing,
    "loaded": sorted(m for m in %r if m in sys.modules),
}))
""" % (SIMULATOR,)


def _numpy_modules(blob: bytes) -> "set[str]":
    """Every numpy module a pickle stream names (GLOBAL or STACK_GLOBAL)."""
    names = set()
    for op, arg, _pos in pickletools.genops(blob):
        if op.name == "GLOBAL":
            names.add(arg.split(" ", 1)[0])
        elif isinstance(arg, str):
            # STACK_GLOBAL pops a module name some string opcode pushed.
            names.add(arg)
    return {n for n in names if n == "numpy" or n.startswith("numpy.")}


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """``{label: cache key}`` of one stored cell per backend and mode."""
    root = tmp_path_factory.mktemp("outcome-pickles")
    cache = DiskCache(root)
    keys = {}
    for backend in iter_backends():
        for mode, flags in MODES.items():
            spec = CellSpec(
                "vecadd", backend.device_type, num_ranks=2,
                paper_scale=False, **flags,
            )
            outcome = run_cell(spec)
            assert outcome.ok, (backend.id, mode)
            key = cell_cache_key(spec)
            cache.put(key, outcome)
            keys[f"{backend.id}/{mode}"] = key
    return cache, keys


def test_pickled_outcomes_name_no_numpy_global(stored):
    cache, keys = stored
    offenders = {
        label: sorted(modules)
        for label, key in keys.items()
        if (modules := _numpy_modules(cache.path_for(key).read_bytes()))
    }
    assert offenders == {}


def test_scan_catches_a_numpy_scalar():
    import pickle

    import numpy as np

    assert _numpy_modules(pickle.dumps({"x": np.float64(1.0)})) != set()
    assert _numpy_modules(pickle.dumps({"x": 1.0})) == set()


def test_cached_outcomes_load_without_the_simulator(stored):
    cache, keys = stored
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_ALL, str(cache.root), *keys.values()],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"missing": [], "loaded": []}
