"""Direct engine results for the cells a serve run asked for.

Usage::

    python3 perfbench/serve_reference.py CELLS.json OUT.json

``CELLS.json`` holds a list of request bodies (``benchmark``,
``device``, ``ranks`` and optionally ``vector``).  Every cell is run
once through :func:`repro.engine.run_cells` with the result cache off,
and ``OUT.json`` maps each body's canonical text to the bytes a served
reply must equal: the service's documented wire form of that outcome.
"""

from __future__ import annotations

import json
import sys


def reference_replies(cells: "list[dict]") -> "dict[str, str]":
    from repro.arch import resolve_backend
    from repro.engine import CellSpec, run_cells
    from repro.serve.protocol import canonical_json, result_payload

    specs = [
        CellSpec(
            benchmark_key=cell["benchmark"],
            device_type=resolve_backend(cell["device"]).device_type,
            num_ranks=cell["ranks"],
            paper_scale=True,
            functional=False,
            vector=cell.get("vector", False),
        )
        for cell in cells
    ]
    execution = run_cells(specs, use_cache=False)
    replies = {}
    for cell, spec in zip(cells, specs):
        outcome = execution.outcome(spec)
        key = json.dumps(cell, sort_keys=True)
        replies[key] = (
            canonical_json(result_payload(spec, outcome)).decode("utf-8")
            if outcome.ok else ""
        )
    return replies


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        requested = json.load(fh)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(reference_replies(requested), fh)
