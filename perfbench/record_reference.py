"""Record the outputs the benchmark's correctness checks compare against.

Usage, from the root of a checkout of the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

Writes ``reference/paper_stdout.json`` (a digest of each paper command's
stdout) and ``reference/dse_points.json`` (a digest of every design
point any seed's sweep can contain, and the benchmark classes of the
sweep's per-class winner table).  Later commits must reproduce these
outputs exactly.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

import checks
import inputs
import procs

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    work = ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    programs = procs.Programs(ROOT, work)
    try:
        paper = {}
        cache = work / "cache"
        for command in inputs.PAPER_COMMANDS:
            done = programs.run(programs.repro(*command), cache)
            if done.returncode != 0:
                raise SystemExit(f"repro {' '.join(command)} failed")
            paper[checks.command_key(command)] = checks.digest(done.stdout)
        spec_path, report = work / "pool.json", work / "report.json"
        spec_path.write_text(json.dumps(inputs.dse_spec(inputs.CLOCK_POOL)))
        done = programs.run(
            programs.repro("dse", "run", "--spec", str(spec_path),
                           "--report", str(report)),
            work / "dse-cache")
        if done.returncode != 0:
            raise SystemExit("the reference sweep failed")
        payload = json.loads(report.read_text())
        classes = {
            bench: int(name.removeprefix("class-"))
            for name, row in payload["winners"]["per_class"].items()
            for bench in row["benchmarks"]
        }
        points = {p["id"]: checks.point_digest(p) for p in payload["points"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(checks.PAPER_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(paper, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(checks.DSE_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"classes": classes, "points": points}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(paper)} commands and {len(points)} design points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
