"""Program costs come from one census per program, and never change.

``fixtures/program_costs.json`` holds the bit-serial tally and the
analog translation of every program ``repro suite`` and one perfbench
``serve-mixed`` block build, as the per-op walks computed them before
programs were priced from their census (``make_program_costs.py``
regenerates it).
"""

import collections
import dataclasses
import json
import pathlib

import pytest

from repro.arch import resolve_backend
from repro.engine import CellSpec, run_cells
from repro.microcode import analog
from repro.microcode.analog import AnalogCost, translate_program
from repro.microcode.isa import KINDS, cost_of
from repro.microcode.programs import get_program

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "program_costs.json"
ENTRIES = json.loads(FIXTURE.read_text())


def _program(entry):
    return get_program(entry["name"], entry["bits"], entry["param"])


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=lambda e: f"{e['name']}.{e['bits']}.{e['param']}"
)
def test_costs_match_the_fixture(entry):
    program = _program(entry)
    assert dataclasses.asdict(program.cost) == entry["cost"]
    assert dataclasses.asdict(translate_program(program)) == entry["analog"]


def test_census_agrees_with_a_walk_of_the_ops():
    for entry in ENTRIES:
        program = _program(entry)
        kinds = collections.Counter(op.kind for op in program.ops)
        assert program.census == tuple(kinds[kind] for kind in KINDS)
        assert program.cost == cost_of(program.ops)
        folded = AnalogCost()
        for op in program.ops:
            folded = folded + analog._EXPANSIONS[op.kind]
        assert translate_program(program) == folded


def test_served_analog_cells_expand_each_program_once(monkeypatch):
    # A serve-mixed-like list: five analog benchmarks at two rank counts,
    # priced twice in one process (each cell builds a fresh device, so
    # its cost memo starts empty and misses on every command shape).
    device = resolve_backend("analog").device_type
    specs = [
        CellSpec(benchmark_key=bench, device_type=device, num_ranks=ranks,
                 vector=vector)
        for bench in ("vecadd", "gemv", "kmeans", "histogram", "radixsort")
        for ranks in (8, 12)
        for vector in (False, True)
    ]
    expanded = collections.Counter()
    expand = analog.expand_census

    def spy(census):
        expanded[census] += 1
        return expand(census)

    monkeypatch.setattr(analog, "_TRANSLATIONS", {})
    monkeypatch.setattr(analog, "expand_census", spy)
    for _ in range(2):
        execution = run_cells(specs, jobs=1, use_cache=False)
        assert execution.ok
    assert expanded
    assert set(expanded.values()) == {1}
