"""Load-generator internals: percentiles, request mix, BENCH schema."""

from __future__ import annotations

import json
import random

import pytest

from repro.serve.loadgen import (
    SHED_CODES,
    LegReport,
    LoadLeg,
    bench_payload,
    format_reports,
    percentile,
)
from repro.serve.loadgen import _request_body


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_single_value_is_every_percentile(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert percentile([4.2], q) == 4.2

    def test_nearest_rank(self):
        values = [float(n) for n in range(1, 101)]  # 1..100 ascending
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 51.0  # round(0.5 * 99) = 50
        assert percentile(values, 1.0) == 100.0
        assert percentile(values, 0.95) == 95.0

    def test_monotone_in_q(self):
        values = sorted(random.Random(7).random() for _ in range(33))
        samples = [percentile(values, q / 20) for q in range(21)]
        assert samples == sorted(samples)
        assert samples[0] == values[0] and samples[-1] == values[-1]

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestRequestMix:
    def test_duplicate_ratio_one_always_names_the_hot_cell(self):
        leg = LoadLeg(name="x", duplicate_ratio=1.0, ranks=32)
        rng = random.Random(0)
        bodies = {_request_body(leg, rng) for _ in range(50)}
        assert len(bodies) == 1
        assert json.loads(bodies.pop())["ranks"] == 32

    def test_duplicate_ratio_zero_draws_from_the_distinct_pool(self):
        leg = LoadLeg(
            name="x", duplicate_ratio=0.0, ranks=32, distinct_cells=4
        )
        rng = random.Random(0)
        ranks = {
            json.loads(_request_body(leg, rng))["ranks"] for _ in range(200)
        }
        # The pool is ranks+1 .. ranks+distinct_cells; never the hot cell.
        assert ranks == {33, 34, 35, 36}

    def test_deadline_rides_along_when_set(self):
        leg = LoadLeg(name="x", deadline_s=2.5, duplicate_ratio=1.0)
        body = json.loads(_request_body(leg, random.Random(0)))
        assert body["deadline_s"] == 2.5
        leg = LoadLeg(name="x", duplicate_ratio=1.0)
        assert "deadline_s" not in json.loads(
            _request_body(leg, random.Random(0))
        )

    def test_mix_is_seed_deterministic(self):
        leg = LoadLeg(name="x", duplicate_ratio=0.5, seed=3)
        first = [_request_body(leg, random.Random(99)) for _ in range(20)]
        second = [_request_body(leg, random.Random(99)) for _ in range(20)]
        assert first == second


def _report(**overrides) -> LegReport:
    fields = dict(
        name="serve-warm-dup", duration_s=4.0, sent=100, ok=90, shed=8,
        failed=2, p50_s=0.010, p95_s=0.050, p99_s=0.090,
        achieved_qps=22.5, shed_rate=0.08, coalesce_rate=0.41,
        cache_hit_count=30, max_queue_depth=5,
        codes={"OK": 90, "ERR_OVERLOAD": 8, "ERR_INTERNAL": 2},
    )
    fields.update(overrides)
    return LegReport(**fields)


class TestBenchSchema:
    def test_run_dict_follows_the_bench_schema(self):
        # The serving payload keeps the archived BENCH_PR*.json layout:
        # ``schema: 1`` and one ``runs`` entry per leg.
        payload = bench_payload([_report()])
        assert payload["schema"] == 1
        (run,) = payload["runs"]
        assert run["run"] == "serve-warm-dup"
        assert run["commands_per_s"] == 22.5
        assert run["commands_simulated"] == 90
        assert run["coalesce_rate"] == 0.41
        assert run["max_queue_depth"] == 5

    def test_payload_is_json_serializable(self):
        text = json.dumps(bench_payload([_report(), _report(name="b")]))
        assert json.loads(text)["runs"][1]["run"] == "b"

    def test_format_lists_every_leg(self):
        text = format_reports([_report(), _report(name="serve-overload")])
        assert "serve-warm-dup" in text and "serve-overload" in text
        assert "maxdepth" in text

    def test_shed_codes_cover_the_refusal_taxonomy(self):
        from repro.serve.protocol import (
            ERR_CIRCUIT_OPEN,
            ERR_DRAINING,
            ERR_OVERLOAD,
            ERR_QUOTA,
        )

        assert SHED_CODES == {
            ERR_OVERLOAD, ERR_QUOTA, ERR_DRAINING, ERR_CIRCUIT_OPEN,
        }
