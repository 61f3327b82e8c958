"""Output checks: every result the benchmark times is also verified.

* Paper commands: each command's stdout must hash to the digest recorded
  for it (``reference/paper_stdout.json``).
* DSE sweeps: every point of the ``--report`` JSON must hash to the
  digest recorded for that point id (``reference/dse_points.json``,
  which covers every clock value a seed can pick).  The frontier and
  winner tables depend on which points a seed picked, so they are
  recomputed here from the verified points, and the printed summary is
  re-rendered from them and compared line by line.
* Serve replies are compared byte for byte with a direct engine run
  (``serve_reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import re

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"
PAPER_REFERENCE = REFERENCE_DIR / "paper_stdout.json"
DSE_REFERENCE = REFERENCE_DIR / "dse_points.json"

#: ``dse run``'s timing line; the counts after it are host-side detail.
SWEEP_TIMING = re.compile(
    rb"^(\d+) point\(s\) in [0-9.]+ s \(([0-9.]+) points/s\)", re.MULTILINE
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_key(command: "tuple[str, ...]") -> str:
    return " ".join(command)


def load_json(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def point_digest(entry: dict) -> str:
    """Digest of one report point, without its set-dependent frontier flag."""
    body = {k: v for k, v in entry.items() if k != "on_frontier"}
    return digest(json.dumps(body, sort_keys=True).encode("utf-8"))


def _dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _objectives(entry: dict) -> "tuple[float, float, float]":
    m = entry["metrics"]
    return (m["latency_ns"], m["energy_nj"], m["area_proxy"])


def frontier_problems(points: "list[dict]", frontier: "list[str]") -> "list[str]":
    """A claimed frontier is right iff no member is dominated and every
    other point is dominated by a member (then it is the whole
    non-dominated set).  Members must be listed in point order."""
    problems = []
    members = set(frontier)
    ordered = [p["id"] for p in points if p["id"] in members]
    if ordered != list(frontier):
        problems.append("frontier is not the member points in report order")
    front = [p for p in points if p["id"] in members]
    for p in front:
        if any(_dominates(_objectives(q), _objectives(p)) for q in points):
            problems.append(f"frontier point {p['id']} is dominated")
    for p in points:
        if p["id"] not in members and not any(
            _dominates(_objectives(q), _objectives(p)) for q in front
        ):
            problems.append(f"point {p['id']} is missing from the frontier")
        if p["on_frontier"] != (p["id"] in members):
            problems.append(f"point {p['id']} has a wrong on_frontier flag")
    return problems


def _gmean(values) -> float:
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def expected_winners(points: "list[dict]", benchmarks: "list[str]",
                     classes: "dict[str, int]") -> dict:
    per_benchmark = {}
    for bench in benchmarks:
        rows = [p for p in points if not p["failed"] and bench in p["per_benchmark"]]
        if not rows:
            continue
        fastest = min(rows, key=lambda p: p["per_benchmark"][bench]["latency_ns"])
        leanest = min(rows, key=lambda p: p["per_benchmark"][bench]["energy_nj"])
        per_benchmark[bench] = {
            "fastest": {
                "id": fastest["id"], "base": fastest["base"],
                "latency_ns": fastest["per_benchmark"][bench]["latency_ns"],
            },
            "most_efficient": {
                "id": leanest["id"], "base": leanest["base"],
                "energy_nj": leanest["per_benchmark"][bench]["energy_nj"],
            },
        }
    per_class = {}
    for cluster in sorted(set(classes.values())):
        members = sorted(b for b, c in classes.items() if c == cluster)
        best = min(
            (
                _gmean(p["per_benchmark"][b]["latency_ns"] for b in members),
                p["base"], p["id"],
            )
            for p in points if not p["failed"]
        )
        per_class[f"class-{cluster}"] = {
            "benchmarks": members,
            "winning_base": best[1],
            "winning_point": best[2],
            "gmean_latency_ns": best[0],
        }
    return {"per_benchmark": per_benchmark, "per_class": per_class}


def expected_summary(payload: dict) -> str:
    """``dse run``'s printed summary of a cold, serial sweep."""
    points = {p["id"]: p for p in payload["points"]}
    spec = payload["spec"]
    cells = payload["num_points"] * len(spec["benchmarks"])
    lines = [
        f"Sweep {spec['name']!r}: {payload['num_points']} design points "
        f"x {len(spec['benchmarks'])} benchmark(s), "
        f"{len(payload['frontier'])} on the Pareto frontier "
        f"(0 cached, {cells} simulated, jobs=1)",
        "",
        "Pareto frontier (minimize latency, energy, area):",
        f"  {'point':<28} {'base':<10} {'latency_ns':>14} "
        f"{'energy_nj':>14} {'area':>10}",
    ]
    for point_id in payload["frontier"]:
        m = points[point_id]["metrics"]
        lines.append(
            f"  {point_id:<28} {points[point_id]['base']:<10} "
            f"{m['latency_ns']:>14.1f} {m['energy_nj']:>14.1f} "
            f"{m['area_proxy']:>10.0f}"
        )
    winners = payload["winners"]
    lines += ["", "Per-benchmark winners:"]
    for bench in spec["benchmarks"]:
        row = winners["per_benchmark"][bench]
        fastest, leanest = row["fastest"], row["most_efficient"]
        lines.append(
            f"  {bench:<12} fastest {fastest['id']} ({fastest['base']}); "
            f"most efficient {leanest['id']} ({leanest['base']})"
        )
    lines += ["", "Architecture class vs benchmark class:"]
    for name, row in winners["per_class"].items():
        lines.append(
            f"  {name} [{', '.join(row['benchmarks'])}]: "
            f"{row['winning_base']} wins (point {row['winning_point']}, "
            f"gmean latency {row['gmean_latency_ns']:.1f} ns)"
        )
    return "\n".join(lines) + "\n"


def dse_problems(stdout: bytes, report: bytes, spec: dict, reference: dict
                 ) -> "list[str]":
    """Everything wrong with one cold ``dse run --report`` of ``spec``."""
    try:
        payload = json.loads(report)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    points = payload.get("points", [])
    expected_count = 1
    for values in spec["axes"].values():
        expected_count *= len(values)
    expected_count *= len(spec["bases"])
    if payload.get("num_points") != expected_count or len(points) != expected_count:
        return [f"report holds {len(points)} points, expected {expected_count}"]
    if payload.get("num_failed") != 0:
        problems.append(f"{payload.get('num_failed')} points failed")
    recorded = reference["points"]
    for entry in points:
        if recorded.get(entry.get("id")) != point_digest(entry):
            problems.append(f"point {entry.get('id')} differs from the reference")
    if problems:
        return problems[:10]
    problems += frontier_problems(points, payload["frontier"])
    winners = expected_winners(points, spec["benchmarks"], reference["classes"])
    if payload["winners"] != winners:
        problems.append("winner tables differ from the verified points")
    if not stdout.startswith(expected_summary(payload).encode("utf-8")):
        problems.append("printed summary differs from the report")
    match = SWEEP_TIMING.search(stdout)
    if match is None or int(match.group(1)) != expected_count:
        problems.append("timing line missing or wrong point count")
    return problems[:10]


def sweep_points_per_s(stdout: bytes) -> float:
    """The design points per second ``dse run`` printed."""
    match = SWEEP_TIMING.search(stdout)
    if match is None:
        raise ValueError("dse run printed no timing line")
    return float(match.group(2))
