"""Work budgets: how many times a command runs its costliest steps.

:func:`repro.perf.plans.compile_plan` is the only place a vectorized
cell or a sweep runs a benchmark's Python issue loop, and its recording
serves every target.  So a command records each (benchmark, params) at
most once, however many devices, rank counts or geometry groups it
prices.  A sweep also evaluates cost tables once per geometry group and
integer-knob sub-group, whatever its benchmarks, and folds a snapshot
only for the results it keeps.  The counts are deterministic, unlike
wall-clock time; each command runs in a fresh interpreter so no earlier
test's recordings are reused.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: Runs ``repro`` with ``compile_plan``, ``ArchBackend.cost_table`` and
#: ``PlanTotals.snapshot`` counted; prints the benchmark of every
#: compile, the other two counts, the exit code and the last stdout line.
COUNTED = """
import contextlib, io, json, sys
import repro.perf.plans as plans
from repro.arch.base import ArchBackend
from repro.cli import main

calls = []
counts = {"cost_tables": 0, "snapshots": 0}
compile_plan = plans.compile_plan
cost_table = ArchBackend.cost_table
snapshot = plans.PlanTotals.snapshot

def counted(spec):
    calls.append(spec.benchmark_key)
    return compile_plan(spec)

def counted_table(self, pipeline, shapes):
    counts["cost_tables"] += 1
    return cost_table(self, pipeline, shapes)

def counted_snapshot(self, row):
    counts["snapshots"] += 1
    return snapshot(self, row)

plans.compile_plan = counted
ArchBackend.cost_table = counted_table
plans.PlanTotals.snapshot = counted_snapshot
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
lines = out.getvalue().splitlines() or [""]
print(json.dumps(
    {"code": code, "calls": calls, "last": lines[-1], **counts}
))
"""

#: The CI ``dse-smoke`` sweep: 24 points over 4 geometry groups.
DSE_SMOKE = {
    "name": "ci-smoke",
    "base": "bank",
    "benchmarks": ["vecadd", "kmeans", "histogram", "aes-enc"],
    "num_ranks": 2,
    "axes": {
        "banks_per_rank": [32, 64],
        "pe_width_bits": [64, 128],
        "pe_freq_mhz": [125, 164, 250],
        "alu_op_pj": [0.5, 2.0],
    },
}


def _counted(cache_dir, *args: str) -> dict:
    env = dict(os.environ)
    for name in ("REPRO_JOBS", "REPRO_VECTOR_CHECK"):
        env.pop(name, None)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", COUNTED, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cold_figure_12_records_each_benchmark_once(tmp_path):
    """216 cells (18 benchmarks x 3 devices x 4 rank counts), <= 18
    recordings: one per benchmark, none repeated."""
    run = _counted(tmp_path / "cache", "figure", "12", "--jobs", "1")
    assert run["code"] == 0
    assert len(run["calls"]) == len(set(run["calls"])) <= 18


def test_sweep_records_each_benchmark_once_and_warm_never(tmp_path):
    spec = tmp_path / "dse-smoke.json"
    spec.write_text(json.dumps(DSE_SMOKE))
    args = ("dse", "run", "--spec", str(spec), "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"))
    cold = _counted(tmp_path / "cache", *args)
    assert cold["code"] == 0
    assert sorted(cold["calls"]) == sorted(DSE_SMOKE["benchmarks"])
    assert "plan cache: 0 hit(s), 4 compile(s)" in cold["last"]
    warm = _counted(tmp_path / "cache", *args)
    assert warm["code"] == 0
    assert warm["calls"] == []
    assert "plan cache: 4 hit(s), 0 compile(s)" in warm["last"]


def test_sweep_prices_each_geometry_group_once(tmp_path):
    """A cold, unchecked sweep evaluates one cost table per geometry x
    integer-knob sub-group -- 2 geometries x 2 ALU widths, however many
    benchmarks -- and folds one snapshot per benchmark (its sample
    result): every other cell is read as columns."""
    spec = tmp_path / "dse-smoke.json"
    spec.write_text(json.dumps(DSE_SMOKE))
    run = _counted(tmp_path / "cache", "dse", "run", "--spec", str(spec),
                   "--jobs", "1", "--no-cache")
    assert run["code"] == 0
    assert "96 cell(s) batch-priced" in run["last"]
    assert run["cost_tables"] == 4
    assert run["snapshots"] <= len(DSE_SMOKE["benchmarks"])
