"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _normalize_figure, build_parser, main
from repro.obs import validate_chrome_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "vecadd"])
        assert args.benchmark == "vecadd"
        assert args.target == "fulcrum"
        assert args.ranks == 4
        assert not args.paper_scale
        assert args.trace is None

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "vecadd"])
        assert args.benchmark == "vecadd"
        assert args.trace is None
        assert args.metrics is None
        assert args.top == 10

    def test_vector_flags(self):
        for command in (["run", "vecadd"], ["suite"], ["figure", "9"]):
            args = build_parser().parse_args(command)
            assert not args.vector_check
            assert not hasattr(args, "vector")
            args = build_parser().parse_args(command + ["--vector-check"])
            assert args.vector_check
        # profile has no --vector-check: observed runs always take the
        # scalar path, so there is no vectorized run to cross-check.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "vecadd", "--vector-check"])

    @pytest.mark.parametrize("command", [
        ["run", "vecadd"], ["suite"], ["figure", "9"], ["profile", "vecadd"],
    ])
    def test_removed_vector_flag_is_rejected(self, command, capsys):
        # Vector pricing is the default, so --vector is gone; it must not
        # be prefix-matched to --vector-check either.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--vector"])
        assert exc.value.code == 2
        assert "--vector" in capsys.readouterr().err


class TestRemovedBenchServe:
    """``bench-serve`` is gone; perfbench ``serve-mixed`` measures serving."""

    SERVE_DEFAULTS = {
        "host": None, "port": 0, "socket": None, "workers": 2,
        "queue_limit": 64, "quota_rps": None, "quota_burst": None,
        "deadline": 30.0, "cell_timeout": 60.0, "max_retries": 2,
        "cache_dir": None, "no_cache": False, "drain_grace": 20.0,
        "chaos_rate": 0.0, "chaos_hang_rate": 0.0, "chaos_hang_s": 120.0,
        "chaos_seed": 0, "openmetrics": None,
    }

    def test_bench_serve_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench-serve"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "bench-serve" in err

    def test_top_level_help_does_not_list_it(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "serve" in out
        assert "bench-serve" not in out

    def test_serve_flags_are_unchanged(self, capsys):
        args = vars(build_parser().parse_args(["serve"]))
        assert args.pop("func").__name__ == "cmd_serve"
        assert args.pop("command") == "serve"
        assert args == self.SERVE_DEFAULTS
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for dest in self.SERVE_DEFAULTS:
            assert f"--{dest.replace('_', '-')}" in out
        for gone in ("--duration", "--qps", "--overload-queue-limit"):
            assert gone not in out


class TestFigureNormalization:
    # Regression: lstrip("fig") strips characters, so "figure 7" became
    # "ure 7" and "Figure 6a" was unrecognized.
    @pytest.mark.parametrize("raw,expected", [
        ("7", "7"),
        ("fig7", "7"),
        ("fig. 7", "7"),
        ("Fig. 6a", "6a"),
        ("figure 7", "7"),
        ("Figure 10b", "10b"),
        ("FIGURE 12", "12"),
    ])
    def test_prefix_stripping(self, raw, expected):
        assert _normalize_figure(raw) == expected


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vecadd" in out
        assert "prefixsum" in out  # extension kernels listed too

    def test_run_functional(self, capsys):
        assert main(["run", "vecadd", "--target", "bitserial"]) == 0
        out = capsys.readouterr().out
        assert "Functional verification: PASSED" in out
        assert "PIM Command Stats" in out
        assert "Speedup vs CPU" in out

    def test_run_announces_before_report(self, capsys):
        # The header must precede the stats so long runs don't look hung.
        assert main(["run", "vecadd"]) == 0
        out = capsys.readouterr().out
        assert out.index("Running Vector Addition") < out.index(
            "PIM Command Stats"
        )

    def test_run_with_trace(self, capsys, tmp_path):
        path = str(tmp_path / "run.json")
        assert main(["run", "vecadd", "--trace", path]) == 0
        assert "Chrome trace written" in capsys.readouterr().out
        validate_chrome_trace(json.load(open(path)))

    def test_profile_writes_trace_and_metrics(self, capsys, tmp_path):
        trace_path = str(tmp_path / "t.json")
        metrics_path = str(tmp_path / "m.jsonl")
        assert main([
            "profile", "vecadd", "--target", "fulcrum",
            "--trace", trace_path, "--metrics", metrics_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "Hottest command signatures" in out
        assert "add.int32.h" in out
        payload = validate_chrome_trace(json.load(open(trace_path)))
        begins = [e["name"] for e in payload["traceEvents"] if e["ph"] == "B"]
        for phase in ("phase:load", "phase:kernel", "phase:readback"):
            assert phase in begins
        commands = [
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "command"
        ]
        assert len(commands) >= 1
        records = [json.loads(line) for line in open(metrics_path)]
        names = {r["name"] for r in records}
        assert "commands.issued" in names
        assert "cmd.add.int32.h.latency_ns" in names

    def test_profile_without_trace_still_reports(self, capsys):
        assert main(["profile", "vecadd", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Hottest command signatures (top 3" in out
        assert "Simulated time" in out

    def test_run_vector_paper_scale(self, capsys):
        from repro.obs.telemetry import clear_telemetry_log, telemetry_log

        clear_telemetry_log()
        assert main([
            "run", "vecadd", "--paper-scale", "--ranks", "32", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "(32 ranks, paper-scale analytic)\n" in out
        assert "Speedup vs CPU" in out
        assert [cell.vector for cell in telemetry_log()] == [True]

    def test_run_functional_stays_scalar_without_note(self, capsys):
        from repro.obs.telemetry import clear_telemetry_log, telemetry_log

        clear_telemetry_log()
        assert main(["run", "vecadd", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "Running Vector Addition on Fulcrum (4 ranks, functional)\n\n"
            "Functional verification: PASSED"
        )
        assert "vector" not in out
        assert [cell.vector for cell in telemetry_log()] == [False]

    def test_run_vector_check_sets_env_and_passes(self, capsys):
        import os

        from repro.engine.cells import VECTOR_CHECK_ENV

        before = os.environ.pop(VECTOR_CHECK_ENV, None)
        try:
            assert main([
                "run", "vecadd", "--paper-scale", "--ranks", "32",
                "--no-cache", "--vector-check",
            ]) == 0
            assert os.environ.get(VECTOR_CHECK_ENV) == "1"
        finally:
            os.environ.pop(VECTOR_CHECK_ENV, None)
            if before is not None:
                os.environ[VECTOR_CHECK_ENV] = before

    def test_profile_profiles_scalar_path_without_note(self, capsys):
        from repro.obs.telemetry import clear_telemetry_log, telemetry_log

        clear_telemetry_log()
        assert main([
            "profile", "vecadd", "--paper-scale", "--ranks", "32", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Profiling Vector Addition on Fulcrum")
        assert "ignored by profile" not in out
        assert [cell.vector for cell in telemetry_log()] == [False]

    def test_run_extension_kernel(self, capsys):
        assert main(["run", "stringmatch", "--target", "bank"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_run_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["run", "bogus"])

    def test_run_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["run", "vecadd", "--target", "gpu"])

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "AMD EPYC 9124" in out

    def test_figure_unknown(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])

    def test_figure_12_name_resolution(self, capsys):
        # Exercise only the dispatch path cheaply via figure 6a at 1 rank
        # equivalence is covered elsewhere; here check the parse/dispatch.
        args = build_parser().parse_args(["figure", "6a"])
        assert args.figure == "6a"


class TestEngineFlags:
    def test_run_engine_defaults(self):
        args = build_parser().parse_args(["run", "vecadd"])
        assert args.jobs is None
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_suite_engine_flags(self):
        args = build_parser().parse_args(
            ["suite", "--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True

    def test_figure_takes_jobs(self):
        args = build_parser().parse_args(["figure", "7", "--jobs", "2"])
        assert args.jobs == 2

    def test_warm_run_announces_cache_hit(self, capsys, tmp_path):
        cmd = ["run", "vecadd", "--cache-dir", str(tmp_path)]
        assert main(cmd) == 0
        cold = capsys.readouterr().out
        assert "persistent cache" not in cold
        assert main(cmd) == 0
        warm = capsys.readouterr().out
        assert "Result served from the persistent cache" in warm
        # The warm report is the same report, not a degraded summary.
        assert "PIM Command Stats" in warm

    def test_no_cache_suppresses_hit(self, capsys, tmp_path):
        cmd = ["run", "vecadd", "--cache-dir", str(tmp_path)]
        assert main(cmd) == 0
        capsys.readouterr()
        assert main(cmd + ["--no-cache"]) == 0
        assert "persistent cache" not in capsys.readouterr().out


class TestResilienceFlags:
    def test_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args([
            "run", "vecadd", "--cell-timeout", "5",
            "--max-retries", "2", "--fail-fast",
        ])
        assert args.cell_timeout == 5.0
        assert args.max_retries == 2
        assert args.fail_fast is True

    def test_resilience_defaults_do_nothing(self):
        args = build_parser().parse_args(["suite"])
        assert args.cell_timeout is None
        assert args.max_retries is None
        assert args.fail_fast is False

    def test_bad_policy_is_a_clean_exit(self):
        with pytest.raises(SystemExit):
            main(["run", "vecadd", "--no-cache", "--max-retries", "-1"])

    def test_failed_cell_exits_nonzero_with_summary(self, capsys):
        # Paper-scale vecadd needs more rows than 4 ranks offer; the run
        # must degrade to a failure table on stderr and a non-zero exit,
        # not a traceback.
        rc = main(["run", "vecadd", "--no-cache", "--paper-scale",
                   "--ranks", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cell(s) failed" in err
        assert "PimAllocationError" in err


class TestFigureFailures:
    """A failed cell ends ``repro figure`` with the failure table on
    stderr and exit code 1, never a traceback."""

    @pytest.fixture
    def failing_cells(self, monkeypatch, tmp_path):
        import repro.engine.engine as engine
        import repro.experiments.runner as runner
        from repro.core.errors import PimAllocationError

        def run_cell(spec, **_kwargs):
            raise PimAllocationError(f"injected: {spec.benchmark_key}")

        # A fresh disk cache and in-process tier, so every cell runs.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner, "_CACHE", {})
        monkeypatch.setattr(engine, "run_cell", run_cell)

    @pytest.mark.parametrize("figure", ["7", "8", "9", "10a", "10b", "11"])
    def test_suite_figures_render_gaps(self, figure, failing_cells, capsys):
        assert main(["figure", figure]) == 1
        out, err = capsys.readouterr()
        assert "(failed)" in out
        assert "cell(s) failed" in err
        assert "PimAllocationError: injected: vecadd" in err

    @pytest.mark.parametrize("figure", ["1", "12", "13"])
    def test_combined_figures_end_with_failure_table(
        self, figure, failing_cells, capsys
    ):
        assert main(["figure", figure]) == 1
        err = capsys.readouterr().err
        assert "cell(s) failed" in err
        assert "PimAllocationError: injected: vecadd" in err


class TestCampaignCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.benchmarks == []
        assert args.seed == 0
        assert args.json is None

    def test_campaign_runs_and_reports(self, capsys, tmp_path):
        out_path = str(tmp_path / "campaign.json")
        rc = main(["campaign", "vecadd", "--seed", "7", "--json", out_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault campaign (seed=7" in out
        assert "summary:" in out
        payload = json.load(open(out_path))
        assert payload["seed"] == 7
        assert len(payload["cells"]) == 4  # one per default fault config


class TestCacheSubcommand:
    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_info_empty(self, capsys, tmp_path):
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "Entries         : 0" in out

    def test_clear_removes_entries(self, capsys, tmp_path):
        assert main(["run", "vecadd", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "Entries         : 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "Removed 1 cached result(s)" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "Entries         : 0" in capsys.readouterr().out


class TestArchSubcommand:
    def test_arch_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["arch"])

    def test_list_shows_every_backend_with_table2_params(self, capsys):
        from repro.arch import iter_backends

        assert main(["arch", "list"]) == 0
        out = capsys.readouterr().out
        for backend in iter_backends():
            assert backend.id in out
        # Table II columns for the paper devices.
        assert "131,072" in out  # bit-serial cores at 32 ranks
        assert "vertical" in out
        assert "yes" in out  # AP support column

    def test_list_verbose_shows_stamp_sources(self, capsys):
        assert main(["arch", "list", "-v"]) == 0
        out = capsys.readouterr().out
        assert "perf/fulcrum.py" in out

    def test_run_accepts_device_alias_and_plugin_name(self, capsys):
        assert main(["run", "vecadd", "--device", "ddr5", "--ranks", "2"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_unknown_device_error_lists_registry_names(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "vecadd", "--device", "gpu"])
        message = str(exc_info.value)
        assert "gpu" in message
        assert "fulcrum" in message
        assert "ddr5-bank" in message
        assert "repro arch list" in message


class TestTelemetryReporting:
    def test_run_report_written(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["run", "vecadd", "--no-cache",
                     "--report", str(report_path)]) == 0
        assert "Run report written" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        assert report["environment"]["python"]
        assert report["metrics"]["telemetry.cells"]["value"] >= 1.0
        assert any(c["benchmark"] == "vecadd" for c in report["cells"])
        # Metrics are snapshot in sorted-name order (byte-stable).
        names = list(report["metrics"])
        assert names == sorted(names)

    def test_profile_prints_memo_hit_rate(self, capsys):
        assert main(["profile", "vecadd", "--no-cache"]) == 0
        assert "Cost-memo hit rate" in capsys.readouterr().out

    def test_profile_openmetrics_exposition(self, capsys, tmp_path):
        path = tmp_path / "metrics.txt"
        assert main(["profile", "vecadd", "--no-cache",
                     "--openmetrics", str(path)]) == 0
        text = path.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_commands_issued_total" in text

    def test_suite_report_covers_every_cell(self, tmp_path):
        report_path = tmp_path / "suite.json"
        assert main(["suite", "--no-cache",
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        benchmarks = {c["benchmark"] for c in report["cells"]}
        assert "vecadd" in benchmarks and len(benchmarks) > 1

    def test_cache_info_reports_lifetime_usage(self, capsys, tmp_path):
        assert main(["run", "vecadd", "--cache-dir", str(tmp_path)]) == 0
        assert main(["run", "vecadd", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path), "-v"]) == 0
        out = capsys.readouterr().out
        assert "1 hits, 1 misses, 1 writes" in out
        assert "hit rate" in out
        assert "age" in out  # verbose per-entry table


class TestDseSubcommand:
    SPEC = {
        "name": "cli-unit",
        "base": "bank",
        "benchmarks": ["vecadd"],
        "num_ranks": 2,
        "axes": {"banks_per_rank": [32, 64]},
    }

    def _spec_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_dse_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse"])

    def test_run_takes_the_shared_engine_flags(self):
        spec = "sweep.json"
        args = build_parser().parse_args(["dse", "run", "--spec", spec])
        assert (args.jobs, args.cache_dir, args.no_cache) == (None, None, False)
        assert (args.cell_timeout, args.max_retries) == (None, None)
        assert (args.fail_fast, args.report) == (False, None)
        args = build_parser().parse_args([
            "dse", "run", "--spec", spec, "--jobs", "2", "--cache-dir", "D",
            "--no-cache", "--cell-timeout", "1.5", "--max-retries", "3",
            "--fail-fast", "--report", "r.json",
        ])
        assert (args.jobs, args.cache_dir, args.no_cache) == (2, "D", True)
        assert (args.cell_timeout, args.max_retries) == (1.5, 3)
        assert (args.fail_fast, args.report) == (True, "r.json")

    def test_run_report_help_names_the_sweep_report(self, capsys):
        with pytest.raises(SystemExit):
            main(["dse", "run", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "write the byte-stable sweep report" in out
        assert "JSON run report" not in out

    def test_list_enumerates_points_without_running(self, capsys, tmp_path):
        assert main(["dse", "list", "--spec", self._spec_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 design point(s)" in out
        assert "banks_per_rank=32" in out and "banks_per_rank=64" in out
        assert out.count("bank@") == 2

    def test_run_prints_frontier_and_writes_report(self, capsys, tmp_path):
        report = tmp_path / "frontier.json"
        assert main(["dse", "run", "--spec", self._spec_file(tmp_path),
                     "--no-cache", "--jobs", "1",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "Per-benchmark winners:" in out
        payload = json.loads(report.read_text())
        assert payload["schema"] == 1
        assert payload["num_points"] == 2
        assert payload["num_failed"] == 0
        assert payload["frontier"]

    def test_run_vector_check_probe_passes(self, capsys, tmp_path,
                                           monkeypatch):
        from repro.engine.cells import VECTOR_CHECK_ENV

        # The flag exports the env var; monkeypatch restores it.
        monkeypatch.setenv(VECTOR_CHECK_ENV, "")
        assert main(["dse", "run", "--spec", self._spec_file(tmp_path),
                     "--no-cache", "--jobs", "1", "--vector-check"]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s) batch-priced" in out
        assert ("Vector check passed: 2 batch-priced cell(s) bit-identical "
                "to the scalar oracle") in out

    def test_run_vector_check_lists_mismatch_and_exits_1(
        self, capsys, tmp_path, monkeypatch
    ):
        import dataclasses

        from repro.arch.base import ArchBackend
        from repro.engine.cells import VECTOR_CHECK_ENV

        original = ArchBackend.cost_table

        def perturbed(self, pipeline, shapes):
            table = original(self, pipeline, shapes)
            return dataclasses.replace(
                table, latency_ns=table.latency_ns * (1.0 + 1e-9)
            )

        monkeypatch.setattr(ArchBackend, "cost_table", perturbed)
        monkeypatch.setenv(VECTOR_CHECK_ENV, "")
        assert main(["dse", "run", "--spec", self._spec_file(tmp_path),
                     "--no-cache", "--vector-check"]) == 1
        out = capsys.readouterr().out
        assert "Failed points (2):" in out
        assert "VectorEquivalenceError" in out
        assert "].latency_ns:" in out
        assert "Vector check passed" not in out

    def test_run_vector_check_excludes_no_vector(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["dse", "run", "--spec", self._spec_file(tmp_path),
                  "--no-vector", "--vector-check"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-batch", "--batch-check"])
    def test_removed_batch_flags_exit_2(self, flag, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["dse", "run", "--spec", self._spec_file(tmp_path), flag])
        assert exc.value.code == 2

    def test_frontier_reads_saved_report(self, capsys, tmp_path):
        report = tmp_path / "frontier.json"
        assert main(["dse", "run", "--spec", self._spec_file(tmp_path),
                     "--no-cache", "--report", str(report)]) == 0
        capsys.readouterr()
        assert main(["dse", "frontier", str(report)]) == 0
        out = capsys.readouterr().out
        assert "on the Pareto frontier" in out
        assert "latency_ns" in out

    def _cached_run(self, tmp_path, cache, *extra):
        return main(["dse", "run", "--spec", self._spec_file(tmp_path),
                     "--jobs", "1", "--cache-dir", str(cache), *extra])

    def test_warm_sweep_reprices_from_plans(self, capsys, tmp_path):
        """A cached sweep stores one plan per geometry group and no
        cell; the warm rerun compiles nothing and writes the same
        report byte for byte."""
        cache = tmp_path / "cache"
        reports = [tmp_path / "cold.json", tmp_path / "warm.json"]
        for report in reports:
            assert self._cached_run(
                tmp_path, cache, "--report", str(report)
            ) == 0
        out = capsys.readouterr().out
        assert "plan cache: 0 hit(s), 2 compile(s)" in out
        assert "plan cache: 2 hit(s), 0 compile(s)" in out
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert not list((cache / "cells").rglob("*.pkl"))

    def test_cache_info_counts_sweep_plans(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert self._cached_run(tmp_path, cache) == 0
        plans = list((cache / "plans").rglob("*.pkl"))
        assert len(plans) == 2
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        size = sum(path.stat().st_size for path in plans)
        assert "Entries         : 2" in out
        assert f"Size            : {size / 1024:.1f} KiB" in out

    def test_bad_spec_exits_with_coded_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "axes": {"warp": [1]}}))
        with pytest.raises(SystemExit, match="warp"):
            main(["dse", "run", "--spec", str(path)])

    def test_nan_clock_exits_with_coded_message(self, tmp_path):
        path = tmp_path / "nan.json"
        spec = dict(self.SPEC, axes={"pe_freq_mhz": [200.0, float("nan")]})
        path.write_text(json.dumps(spec))  # json writes (and reads) NaN
        with pytest.raises(SystemExit) as exc:
            main(["dse", "run", "--spec", str(path), "--no-cache"])
        assert exc.value.code != 0
        assert "'pe_freq_mhz' needs a finite number, got nan" in str(
            exc.value.code
        )

    def test_missing_report_exits_with_message(self):
        with pytest.raises(SystemExit, match="cannot read sweep report"):
            main(["dse", "frontier", "/nonexistent/frontier.json"])

    def test_arch_list_marks_transient_backends(self, capsys):
        from repro.arch import (
            derive_backend,
            register_backend,
            unregister_backend,
        )

        # Derived backends resolve unregistered; only one registered by
        # hand is listed.
        backend = register_backend(
            derive_backend("bank", {"banks_per_rank": 64})
        )
        try:
            assert main(["arch", "list"]) == 0
        finally:
            unregister_backend(backend.id)
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith(backend.id))
        assert " * " in f" {line} " or line.split()[1] == "*"
        assert "bank" in line.split()  # origin column names the base
        assert "transient parametric backend" in out

    def test_arch_list_hides_transient_note_without_transients(self, capsys):
        assert main(["arch", "list"]) == 0
        out = capsys.readouterr().out
        assert "transient parametric backend" not in out
