"""Tests for the persistent, content-addressed result store."""

import pickle

import pytest

from repro.config.device import PimDeviceType
from repro.engine import CellSpec, DiskCache, cell_cache_key, default_cache_dir
from repro.engine.cells import run_cell

SPEC = CellSpec(
    "vecadd", PimDeviceType.FULCRUM, num_ranks=4,
    paper_scale=False, functional=True,
)


@pytest.fixture(scope="module")
def outcome():
    return run_cell(SPEC)


class TestCacheKey:
    def test_deterministic(self):
        assert cell_cache_key(SPEC) == cell_cache_key(SPEC)

    def test_config_field_changes_key(self):
        import dataclasses

        wider = dataclasses.replace(SPEC, num_ranks=8)
        geometry = dataclasses.replace(
            SPEC, geometry_overrides=(("gdl_width_bits", 256),)
        )
        keys = {cell_cache_key(SPEC), cell_cache_key(wider),
                cell_cache_key(geometry)}
        assert len(keys) == 3

    def test_mode_flags_change_key(self):
        import dataclasses

        analytic = dataclasses.replace(SPEC, functional=False)
        lax = dataclasses.replace(SPEC, enforce_capacity=False)
        keys = {cell_cache_key(SPEC), cell_cache_key(analytic),
                cell_cache_key(lax)}
        assert len(keys) == 3

    def test_model_version_changes_key(self, monkeypatch):
        from repro.engine import version

        before = cell_cache_key(SPEC)
        monkeypatch.setattr(version, "CACHE_SCHEMA", version.CACHE_SCHEMA + 1)
        assert cell_cache_key(SPEC) != before


class TestDiskCache:
    def test_roundtrip_across_instances(self, tmp_path, outcome):
        # Two DiskCache objects over one root model a process restart.
        key = cell_cache_key(SPEC)
        DiskCache(tmp_path).put(key, outcome)
        loaded = DiskCache(tmp_path).get(key)
        assert loaded is not None
        assert loaded.result.to_dict() == outcome.result.to_dict()
        assert loaded.sim_dur_ns == outcome.sim_dur_ns
        assert loaded.tracker.total_command_count == (
            outcome.tracker.total_command_count
        )

    def test_missing_entry_is_none(self, tmp_path):
        assert DiskCache(tmp_path).get("0" * 64) is None

    def test_events_never_persisted(self, tmp_path):
        recorded = run_cell(SPEC, record_events=True)
        assert recorded.events  # sanity: the run really was observed
        cache = DiskCache(tmp_path)
        cache.put("a" * 64, recorded)
        assert cache.get("a" * 64).events is None
        # the in-memory outcome is untouched
        assert recorded.events is not None

    def test_corrupted_entry_warns_and_deletes(self, tmp_path, outcome):
        cache = DiskCache(tmp_path)
        key = cell_cache_key(SPEC)
        cache.put(key, outcome)
        cache.path_for(key).write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="corrupted cache entry"):
            assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_wrong_payload_type_warns(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache.path_for("b" * 64)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "an outcome"}))
        with pytest.warns(RuntimeWarning):
            assert cache.get("b" * 64) is None

    def test_clear_and_stats(self, tmp_path, outcome):
        cache = DiskCache(tmp_path)
        for fake in ("c" * 64, "d" * 64):
            cache.put(fake, outcome)
        entries, size = cache.stats()
        assert entries == 2 and size > 0
        assert cache.clear() == 2
        assert cache.stats() == (0, 0)
        assert cache.clear() == 0  # idempotent on an empty store

    def test_stats_skips_entries_deleted_mid_scan(
        self, tmp_path, outcome, monkeypatch
    ):
        # Another process may unlink a (corrupt) entry between the
        # directory scan and the stat: stats() counts what is left.
        import pathlib

        cache = DiskCache(tmp_path)
        cache.put("c" * 64, outcome)
        size = cache.path_for("c" * 64).stat().st_size
        vanished = cache.path_for("f" * 64)
        rglob = pathlib.Path.rglob

        def racing_rglob(self, pattern):
            yield from rglob(self, pattern)
            yield vanished

        monkeypatch.setattr(pathlib.Path, "rglob", racing_rglob)
        assert cache.stats() == (1, size)

    def test_no_temp_files_left_behind(self, tmp_path, outcome):
        cache = DiskCache(tmp_path)
        cache.put("e" * 64, outcome)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert leftovers == []


class TestCacheDirResolution:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "via-env"))
        assert default_cache_dir() == tmp_path / "via-env"
        assert DiskCache().root == tmp_path / "via-env"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"

    def test_explicit_argument_wins(self, tmp_path):
        assert DiskCache(tmp_path / "explicit").root == tmp_path / "explicit"
