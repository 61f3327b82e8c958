"""Write ``fixtures/program_costs.json``: the cost of every program in use.

Runs ``repro suite``'s cells and the distinct cells of one perfbench
``serve-mixed`` block (seed 1, block 2) in this process, records every
``(name, bits, param)`` the microprogram library is asked for, and
writes each program's :class:`~repro.microcode.isa.MicroProgramCost`
and :class:`~repro.microcode.analog.AnalogCost`, which
``test_program_costs.py`` compares against.  Run from the repo root::

    PYTHONPATH=src python tests/microcode/make_program_costs.py

Regenerate only for a deliberate change to a program's op counts.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "program_costs.json"


def _serve_specs():
    sys.path.insert(0, str(HERE.parents[1] / "perfbench"))
    from inputs import serve_blocks

    from repro.serve.protocol import CellRequest

    requests = {json.dumps(r, sort_keys=True) for r in serve_blocks(1)[2]}
    return [CellRequest.from_json(r.encode()).to_spec() for r in sorted(requests)]


def main() -> None:
    from repro.engine import run_cells
    from repro.experiments.runner import run_suite
    from repro.microcode import programs
    from repro.microcode.analog import translate_program

    keys = set()
    build = programs._cached

    def recording(name, bits, extra=None):
        keys.add((name, bits, None if extra is None else extra[0]))
        return build(name, bits, extra)

    programs._cached = recording
    try:
        run_suite(use_cache=False, jobs=1)
        run_cells(_serve_specs(), jobs=1, use_cache=False)
    finally:
        programs._cached = build

    def order(key):
        name, bits, param = key
        return name, bits, -1 if param is None else param

    entries = []
    for name, bits, param in sorted(keys, key=order):
        program = programs.get_program(name, bits, param)
        entries.append({
            "name": name,
            "bits": bits,
            "param": param,
            "cost": dataclasses.asdict(program.cost),
            "analog": dataclasses.asdict(translate_program(program)),
        })
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    FIXTURE.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {len(entries)} programs to {FIXTURE}")


if __name__ == "__main__":
    main()
