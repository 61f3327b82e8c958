"""Start-up guard: no third-party package but numpy, and lazy engines.

The Figure 1 dendrogram (Ward linkage, ``maxclust`` cut) and the graph
kernels (G(n, m) draws, triangle counts) are plain Python, so neither
importing the CLI nor running those paths may load scipy or networkx,
which stay test oracles only.  Likewise a warm run that only reads
cached cells must not load the vector pricing engine, and a warm
``figure``/``suite`` (or ``tables``, or ``--help``) must not load numpy
or the simulator at all.  Each check runs in a fresh interpreter
because the pytest process has usually loaded these modules already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

from repro.analysis.clustering import build_dendrogram
from repro.analysis.features import BenchmarkFeatures
from repro.workloads.graphs import count_triangles_reference, random_graph

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

ON_USE = PRELUDE + """
import numpy as np
from repro.analysis.clustering import build_dendrogram
from repro.analysis.features import BenchmarkFeatures
from repro.workloads.graphs import count_triangles_reference, random_graph
result = build_dendrogram([
    BenchmarkFeatures("a", np.array([0.0, 1.0, 2.0])),
    BenchmarkFeatures("b", np.array([1.0, 0.5, 0.0])),
    BenchmarkFeatures("c", np.array([0.5, 0.5, 2.0])),
])
clusters = result.cluster_of(2)
graph = random_graph(8, 10)
print(json.dumps({
    "loaded": heavy(),
    "linkage": result.linkage.tolist(),
    "clusters": clusters,
    "edges": graph.edges(),
    "triangles": count_triangles_reference(graph),
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


def test_clustering_and_graphs_load_neither_package():
    out = _run(ON_USE)
    assert out["loaded"] == []
    expected = build_dendrogram([
        BenchmarkFeatures("a", np.array([0.0, 1.0, 2.0])),
        BenchmarkFeatures("b", np.array([1.0, 0.5, 0.0])),
        BenchmarkFeatures("c", np.array([0.5, 0.5, 2.0])),
    ])
    assert out["linkage"] == expected.linkage.tolist()
    assert out["clusters"] == expected.cluster_of(2)
    graph = random_graph(8, 10)
    assert out["edges"] == [list(e) for e in graph.edges()]
    assert out["triangles"] == count_triangles_reference(graph)


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


#: What a warm command must leave unloaded (docs/PERFORMANCE.md, "Start-up").
SIMULATOR = ("numpy", "repro.core.device", "repro.perf", "repro.microcode")

CLI = """
import json, sys
from repro.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({
    "code": code,
    "loaded": sorted(m for m in %r if m in sys.modules),
}))
""" % (SIMULATOR,)


def _cli(cache_dir, *argv: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_VECTOR_CHECK", None)
    # Serial: the cold fill must simulate in this process to load it all.
    env.pop("REPRO_JOBS", None)
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_warm_commands_load_neither_numpy_nor_the_simulator(tmp_path):
    # Fill the cache cold: that run simulates, so it loads everything.
    cold = _cli(tmp_path, "suite")
    assert cold["code"] == 0
    assert "repro.core.device" in cold["loaded"]
    for argv in (["--help"], ["tables"], ["figure", "7"], ["suite"]):
        assert _cli(tmp_path, *argv) == {"code": 0, "loaded": []}, argv


def test_simulator_names_still_import_from_the_package():
    out = _run(
        PRELUDE + """
from repro import PimDevice
from repro.core import PimDevice as CorePimDevice, PimObject, ResourceManager
from repro.perf import FulcrumPerfModel
print(json.dumps([
    PimDevice is CorePimDevice,
    PimDevice.__module__,
    PimObject.__module__,
    ResourceManager.__module__,
    FulcrumPerfModel.__module__,
]))
"""
    )
    assert out == [
        True, "repro.core.device", "repro.core.object",
        "repro.core.resource", "repro.perf.fulcrum",
    ]
