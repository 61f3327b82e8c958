"""Start-up guard: heavy modules load only where they are used.

Only the Figure 1 dendrogram (Ward linkage) needs scipy and only the
graph kernels need networkx, so importing the CLI and the command
layers must not pay for either.  Likewise a warm run that only reads
cached cells must not load the vector pricing engine.  Each check runs
in a fresh interpreter because the pytest process has usually loaded
these modules already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

from repro.analysis.clustering import build_dendrogram
from repro.analysis.features import BenchmarkFeatures
from repro.workloads.graphs import random_graph

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

HEAVY = ("scipy", "networkx")

PRELUDE = """
import json, sys
def heavy():
    return sorted(m for m in %r if m in sys.modules)
""" % (HEAVY,)

IMPORT_ONLY = PRELUDE + """
import repro.cli, repro.experiments, repro.dse, repro.serve.service
import repro.bench.registry
print(json.dumps(heavy()))
"""

ON_DEMAND = PRELUDE + """
import numpy as np
from repro.analysis.clustering import build_dendrogram
from repro.analysis.features import BenchmarkFeatures
from repro.workloads.graphs import random_graph
loaded = {"start": heavy()}
result = build_dendrogram([
    BenchmarkFeatures("a", np.array([0.0, 1.0, 2.0])),
    BenchmarkFeatures("b", np.array([1.0, 0.5, 0.0])),
])
loaded["after_dendrogram"] = heavy()
graph = random_graph(8, 10)
loaded["after_graph"] = heavy()
print(json.dumps({
    "loaded": loaded,
    "linkage": result.linkage.tolist(),
    "edges": sorted(graph.edges()),
}))
"""


def _run(code: str, *args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_command_layers_import_without_scipy_or_networkx():
    assert _run(IMPORT_ONLY) == []


def test_scipy_and_networkx_load_on_first_use():
    out = _run(ON_DEMAND)
    assert out["loaded"] == {
        "start": [],
        "after_dendrogram": ["scipy"],
        "after_graph": ["networkx", "scipy"],
    }
    expected = build_dendrogram([
        BenchmarkFeatures("a", np.array([0.0, 1.0, 2.0])),
        BenchmarkFeatures("b", np.array([1.0, 0.5, 0.0])),
    ])
    assert out["linkage"] == expected.linkage.tolist()
    assert out["edges"] == [list(e) for e in sorted(random_graph(8, 10).edges())]


WARM_LOAD = """
import json, sys
from repro.engine.cache import DiskCache
outcome = DiskCache(sys.argv[1]).get(sys.argv[2])
print(json.dumps({
    "tracker": type(outcome.tracker).__name__,
    "commands": outcome.tracker.total_command_count,
    "vector_engine": sorted(
        m for m in ("repro.perf.vector", "repro.perf.plans")
        if m in sys.modules
    ),
}))
"""


def test_cached_vector_outcome_loads_without_vector_engine(tmp_path):
    # A vectorized cell's cached outcome holds plain totals, so a warm
    # ``figure``/``suite`` unpickles it without the pricing engine.
    from repro.arch import resolve_backend
    from repro.engine import CellSpec, DiskCache, cell_cache_key
    from repro.engine.cells import run_cell

    spec = CellSpec(
        "vecadd", resolve_backend("fulcrum").device_type, num_ranks=2,
        paper_scale=False, functional=False, vector=True,
    )
    outcome = run_cell(spec)
    assert outcome.telemetry.vector is True
    key = cell_cache_key(spec)
    DiskCache(tmp_path).put(key, outcome)
    out = _run(WARM_LOAD, str(tmp_path), key)
    assert out == {
        "tracker": "StatsTracker",
        "commands": outcome.tracker.total_command_count,
        "vector_engine": [],
    }
