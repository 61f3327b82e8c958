"""The DSE output checks recompute what depends on the seed's points."""

import checks


def _point(pid, latency, energy, area, on_frontier):
    return {
        "id": pid, "base": "bank", "failed": False, "on_frontier": on_frontier,
        "metrics": {"latency_ns": latency, "energy_nj": energy, "area_proxy": area},
        "per_benchmark": {"b": {"latency_ns": latency, "energy_nj": energy}},
    }


POINTS = [
    _point("p0", 4.0, 1.0, 1.0, True),
    _point("p1", 1.0, 4.0, 1.0, True),
    _point("p2", 4.0, 4.0, 1.0, False),   # dominated by p0 and p1
    _point("p3", 1.0, 4.0, 1.0, True),    # ties p1: both stay
]


def test_frontier_accepts_the_non_dominated_set_in_order():
    assert checks.frontier_problems(POINTS, ["p0", "p1", "p3"]) == []


def test_frontier_catches_missing_extra_and_misordered_members():
    assert checks.frontier_problems(POINTS, ["p0", "p1"])        # p3 missing
    assert checks.frontier_problems(POINTS, ["p0", "p1", "p2", "p3"])
    assert checks.frontier_problems(POINTS, ["p1", "p0", "p3"])


def test_winners_take_the_first_minimum():
    winners = checks.expected_winners(POINTS, ["b"], {"b": 1})
    assert winners["per_benchmark"]["b"]["fastest"]["id"] == "p1"
    assert winners["per_benchmark"]["b"]["most_efficient"]["id"] == "p0"
    assert winners["per_class"]["class-1"]["winning_point"] == "p1"


def test_point_digest_ignores_only_the_frontier_flag():
    moved = dict(POINTS[0], on_frontier=False)
    assert checks.point_digest(moved) == checks.point_digest(POINTS[0])
    changed = dict(POINTS[0], base="fulcrum")
    assert checks.point_digest(changed) != checks.point_digest(POINTS[0])


def test_sweep_timing_line():
    out = b"...\n720 point(s) in 3.21 s (224 points/s); plan cache: 0 hit(s)\n"
    assert checks.sweep_points_per_s(out) == 224.0
