"""run_sweep end to end: hygiene, determinism, metrics, and reports.

The sweeps here are deliberately tiny (two bank-level points, paper
vecadd) so the whole file runs in seconds; the 1000-point scale path is
exercised by the CLI smoke and the acceptance sweep, not the unit
suite.
"""

import pytest

from repro.arch import iter_backends, resolve_backend
from repro.dse import (
    PointMetrics,
    PointOutcome,
    SweepResult,
    SweepSpec,
    area_proxy,
    benchmark_classes,
    benchmark_winners,
    class_winners,
    format_sweep,
    pe_width_bits,
    render_json,
    run_sweep,
    sweep_payload,
)

_RAW = {
    "name": "unit",
    "base": "bank",
    "benchmarks": ["vecadd"],
    "num_ranks": 2,
    "axes": {"banks_per_rank": [32, 64]},
}


def _spec(**overrides) -> SweepSpec:
    raw = dict(_RAW)
    raw.update(overrides)
    return SweepSpec.from_dict(raw)


@pytest.fixture(scope="module")
def swept():
    """One evaluated two-point sweep, shared by the read-only tests."""
    return run_sweep(_spec(), jobs=1, use_cache=False)


class TestExecution:
    def test_registry_size_unchanged_after_sweep(self):
        before = len(iter_backends())
        run_sweep(_spec(), jobs=1, use_cache=False)
        assert len(iter_backends()) == before

    def test_every_point_succeeds_with_metrics(self, swept):
        assert len(swept.outcomes) == 2
        for outcome in swept.outcomes:
            assert not outcome.failed
            assert outcome.metrics.latency_ns > 0
            assert outcome.metrics.energy_nj > 0
            assert outcome.metrics.area_proxy > 0
            assert set(outcome.per_benchmark) == {"vecadd"}

    def test_sample_results_and_commands(self, swept):
        assert set(swept.sample_results) == {"vecadd"}
        for outcome in swept.outcomes:
            assert outcome.per_benchmark["vecadd"]["commands"] > 0

    def test_frontier_is_subset_of_points(self, swept):
        ids = {o.point.point_id for o in swept.outcomes}
        assert swept.frontier_ids
        assert set(swept.frontier_ids) <= ids
        assert [o.point.point_id for o in swept.frontier] == list(
            swept.frontier_ids
        )

    def test_more_banks_is_faster_but_fatter(self, swept):
        small, big = swept.outcomes
        assert big.metrics.latency_ns < small.metrics.latency_ns
        assert big.metrics.area_proxy > small.metrics.area_proxy
        # A genuine trade-off: both designs survive to the frontier.
        assert len(swept.frontier_ids) == 2

    def test_vector_and_scalar_metrics_agree(self, swept):
        scalar = run_sweep(_spec(), jobs=1, use_cache=False, vector=False)
        for v, s in zip(swept.outcomes, scalar.outcomes):
            assert v.metrics == s.metrics

    def test_report_byte_identical_across_jobs(self):
        one = run_sweep(_spec(), jobs=1, use_cache=False)
        two = run_sweep(_spec(), jobs=2, use_cache=False)
        assert render_json(sweep_payload(one)) == render_json(
            sweep_payload(two)
        )


class TestAreaProxy:
    def test_bank_scope_uses_alu_width(self):
        config = resolve_backend("bank").make_config(num_ranks=2)
        assert pe_width_bits(config) == config.arch.bank_alu_bits
        expected = config.dram.geometry.num_banks * config.arch.bank_alu_bits
        assert area_proxy(config) == float(expected)

    def test_subarray_group_scope_uses_fulcrum_width(self):
        config = resolve_backend("fulcrum").make_config(num_ranks=2)
        assert pe_width_bits(config) == config.arch.fulcrum_alu_bits

    def test_bit_serial_scope_uses_subarray_columns(self):
        config = resolve_backend("bitserial").make_config(num_ranks=2)
        assert pe_width_bits(config) == config.dram.geometry.cols_per_subarray


def _failed_result(swept: SweepResult) -> SweepResult:
    """The swept fixture plus one synthetic failed point."""
    from repro.dse import SweepPoint

    point = SweepPoint(base="bank", knobs=(("banks_per_rank", 128),))
    bad = PointOutcome(
        point=point, backend_id=point.point_id,
        metrics=None, per_benchmark={},
        errors={"vecadd": "ERR_CONFIG: synthetic failure"},
    )
    return SweepResult(
        spec=swept.spec,
        outcomes=list(swept.outcomes) + [bad],
        frontier_ids=swept.frontier_ids,
        cache_hits=swept.cache_hits,
        cache_misses=swept.cache_misses,
        jobs=swept.jobs,
        sample_results=swept.sample_results,
    )


class TestReport:
    def test_payload_shape(self, swept):
        payload = sweep_payload(swept)
        assert payload["schema"] == 1
        assert payload["num_points"] == 2
        assert payload["num_failed"] == 0
        assert payload["spec"] == swept.spec.to_dict()
        assert payload["frontier"] == list(swept.frontier_ids)
        for entry in payload["points"]:
            assert entry["failed"] is False
            assert "metrics" in entry and "errors" not in entry
            assert entry["on_frontier"] == (
                entry["id"] in swept.frontier_ids
            )

    def test_failed_point_reported_not_fronted(self, swept):
        payload = sweep_payload(_failed_result(swept))
        assert payload["num_failed"] == 1
        entry = payload["points"][-1]
        assert entry["failed"] is True
        assert "metrics" not in entry
        assert entry["errors"] == {"vecadd": "ERR_CONFIG: synthetic failure"}
        assert entry["on_frontier"] is False

    def test_format_sweep_lists_failures(self, swept):
        text = format_sweep(_failed_result(swept))
        assert "Failed points (1):" in text
        assert "synthetic failure" in text

    def test_benchmark_winners(self, swept):
        winners = benchmark_winners(swept)
        ids = {o.point.point_id for o in swept.outcomes}
        row = winners["vecadd"]
        assert row["fastest"]["id"] in ids
        assert row["most_efficient"]["id"] in ids
        assert row["fastest"]["base"] == "bank"

    def test_failed_points_never_win(self, swept):
        assert benchmark_winners(_failed_result(swept)) == benchmark_winners(
            swept
        )

    def test_single_benchmark_classes_trivially(self, swept):
        assert benchmark_classes(swept) == {"vecadd": 1}
        winners = class_winners(swept)
        assert set(winners) == {"class-1"}
        assert winners["class-1"]["benchmarks"] == ["vecadd"]
        assert winners["class-1"]["winning_base"] == "bank"

    def test_multi_benchmark_class_winners(self):
        spec = _spec(benchmarks=["vecadd", "gemv"])
        result = run_sweep(spec, jobs=1, use_cache=False)
        classes = benchmark_classes(result)
        assert set(classes) == {"vecadd", "gemv"}
        winners = class_winners(result)
        assert winners
        covered = set()
        for row in winners.values():
            assert row["winning_base"] == "bank"
            assert row["gmean_latency_ns"] > 0
            covered.update(row["benchmarks"])
        assert covered == {"vecadd", "gemv"}

    def test_render_json_is_sorted_and_newline_terminated(self, swept):
        text = render_json(sweep_payload(swept))
        assert text.endswith("}\n")
        assert text.index('"frontier"') < text.index('"points"')


class TestCaching:
    def test_second_run_is_all_hits(self, tmp_path):
        """Plan hits: the warm sweep compiles nothing and re-synthesizes
        every cell from the stored plans."""
        spec = _spec()
        cold = run_sweep(spec, jobs=1, cache_dir=tmp_path)
        warm = run_sweep(spec, jobs=1, cache_dir=tmp_path)
        assert cold.cache_misses == 2 and cold.cache_hits == 0
        assert cold.plan_misses == 2 and cold.plan_hits == 0
        assert warm.plan_hits == 2 and warm.plan_misses == 0
        assert warm.cache_hits == 0 and warm.batched_cells == 2
        for a, b in zip(cold.outcomes, warm.outcomes):
            assert a.metrics == b.metrics
        assert isinstance(warm.outcomes[0].metrics, PointMetrics)
        assert render_json(sweep_payload(cold)) == render_json(
            sweep_payload(warm)
        )
