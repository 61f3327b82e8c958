"""The usage ledger and the plan store survive concurrent writers.

``DiskCache.flush_usage`` read-modify-writes ``usage.json``; a serve
process and a CLI run sharing a cache directory race on it.  The
advisory ``_UsageLock`` serializes those merges -- these tests pin
both halves of that contract: no increment is lost under two-process
contention, and the wait stays bounded (a dead peer degrades the flush
to best-effort instead of wedging it).  Two sweeps sharing a cache
directory also race on one pricing-plan entry; temp-file + rename
writes mean a reader never sees a torn plan.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.engine.cache import DiskCache, _UsageLock

fcntl = pytest.importorskip("fcntl", reason="advisory locking is POSIX-only")

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

ROUNDS = 150

#: One contending writer: tally a miss, flush, repeat.  Every round is
#: a full read-modify-write of the shared ledger, so two copies running
#: back-to-back hammer the lock window ~300 times.
WRITER = textwrap.dedent("""
    import sys, time

    from repro.engine.cache import DiskCache

    root, rounds, start_at = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    cache = DiskCache(root)
    time.sleep(max(0.0, start_at - time.time()))  # aligned start
    for index in range(rounds):
        cache.get("%064d" % index)  # absent entry -> one session miss
        cache.flush_usage()
    print("done")
""")


def _race(script: str, root) -> None:
    """Run two copies of ``script`` on ``root`` from an aligned start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start_at = time.time() + 1.0
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script,
             str(root), str(ROUNDS), str(start_at)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        assert stdout.strip() == "done"


class TestTwoProcessStress:
    def test_no_increment_lost_under_contention(self, tmp_path):
        _race(WRITER, tmp_path)
        ledger = DiskCache(tmp_path).usage()
        assert ledger["misses"] == 2 * ROUNDS
        assert ledger["hits"] == 0
        # The ledger itself stays a well-formed single document.
        with open(tmp_path / "usage.json", encoding="utf-8") as fh:
            assert json.load(fh)["schema"] == 1


#: One plan-store writer/reader: store one of seven recordings (each a
#: distinct size) under the shared key, read the key back, repeat.  Any
#: corrupt-entry warning is an error, and every recording read must be
#: one some round wrote.
PLAN_RACER = textwrap.dedent("""
    import sys, time, warnings

    from repro.engine.cache import DiskCache
    from repro.perf.record import Recorder

    warnings.simplefilter("error", RuntimeWarning)
    SIZE = 20000  # ~320 KB pickles: a wide window for a torn write
    root, rounds, start_at = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    cache = DiskCache(root)
    key = "%064d" % 0
    plans = []
    for size in range(SIZE, SIZE + 7):
        recorder = Recorder()
        for entry in range(size):
            recorder.record_host(float(entry), 1.0)
        plans.append(recorder.recording("host", "host"))
    time.sleep(max(0.0, start_at - time.time()))  # aligned start
    for index in range(rounds):
        cache.put_plan(key, plans[index % len(plans)])
        read = cache.get_plan(key)
        assert read is not None
        assert SIZE <= len(read.host_time) < SIZE + 7, len(read.host_time)
        assert read.host_time[-1] == len(read.host_time) - 1
    print("done")
""")


class TestPlanStoreStress:
    """Two sweeps sharing one plan key: atomic writes, whole reads."""

    def test_readers_never_see_a_torn_plan(self, tmp_path):
        _race(PLAN_RACER, tmp_path)
        assert DiskCache(tmp_path).get_plan("%064d" % 0) is not None


class TestBoundedWait:
    def test_lock_acquires_when_free(self, tmp_path):
        with _UsageLock(tmp_path / "usage.lock") as lock:
            assert lock.held
        assert not lock.held  # released on exit

    def test_contended_lock_gives_up_within_the_bound(self, tmp_path):
        path = tmp_path / "usage.lock"
        holder = open(path, "ab")
        try:
            fcntl.flock(holder, fcntl.LOCK_EX)
            began = time.monotonic()
            with _UsageLock(path, wait_s=0.2) as lock:
                waited = time.monotonic() - began
                assert not lock.held
            assert 0.2 <= waited < 2.0
        finally:
            holder.close()

    def test_flush_usage_degrades_to_best_effort(self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_module

        cache = DiskCache(tmp_path)
        cache.get("0" * 64)  # one session miss to flush
        monkeypatch.setattr(
            cache_module, "_UsageLock",
            lambda path: _UsageLock(path, wait_s=0.1),
        )
        holder = open(cache.usage_lock_path, "ab")
        try:
            fcntl.flock(holder, fcntl.LOCK_EX)
            totals = cache.flush_usage()
        finally:
            holder.close()
        # The unlocked fallback still merged and wrote the ledger.
        assert totals["misses"] == 1
        assert DiskCache(tmp_path).usage()["misses"] == 1

    def test_reentry_resets_state(self, tmp_path):
        lock = _UsageLock(tmp_path / "usage.lock")
        with lock:
            assert lock.held
        with lock:
            assert lock.held
        assert lock._fh is None
