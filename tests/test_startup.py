"""Start-up guard: scipy and networkx load only where they are used.

Only the Figure 1 dendrogram (Ward linkage) needs scipy and only the
graph kernels need networkx, so importing the CLI and the command
layers must not pay for either.  Each check runs in a fresh interpreter
because the pytest process has usually loaded both packages already.
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


def _run(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
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
