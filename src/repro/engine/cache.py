"""Persistent, content-addressed result store for experiment cells.

Each entry is one :class:`~repro.engine.cells.CellOutcome`, stored under
a SHA-256 key derived from *everything that determines the numbers*:

* the resolved device configuration (every DRAM geometry/timing field
  and architecture parameter, not just the preset name),
* the benchmark key plus its fully-merged parameter dict (so paper-scale
  and functional-scale runs are distinct entries),
* the execution mode flags (functional, enforce_capacity),
* the :func:`repro.engine.version.model_version` stamp, which hashes
  the model source files the cell depends on.

Because the key is content-addressed there is no invalidation protocol:
editing a perf model changes the stamp, which changes the key, and the
stale entry is simply never looked up again (``repro cache clear``
reclaims the space).  A corrupted or truncated entry is treated as a
miss: the engine warns, deletes the file, and re-simulates.

The store root resolves, in order: an explicit ``cache_dir`` argument,
the ``REPRO_CACHE_DIR`` environment variable, then
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import time
import typing
import warnings

from repro.engine.cells import CellOutcome, CellSpec
from repro.engine.version import model_version, vector_stamp

try:  # pragma: no cover - fcntl is POSIX-only
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - e.g. Windows
    _fcntl = None

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: How long :meth:`DiskCache.flush_usage` waits for the ledger lock
#: before falling back to an unlocked best-effort write.
USAGE_LOCK_WAIT_S = 2.0

#: Polling interval while waiting for the ledger lock.
_USAGE_LOCK_POLL_S = 0.01


class _UsageLock:
    """Advisory ``fcntl`` lock on the usage ledger, with a bounded wait.

    A serve process and a CLI run racing on the same cache directory
    both read-modify-write ``usage.json``; without mutual exclusion one
    side's increments are silently lost (or, worse, a reader observes a
    torn rename window).  The lock file sits *next to* the ledger so the
    atomic-rename protocol on the ledger itself is unchanged.

    The wait is bounded (``USAGE_LOCK_WAIT_S``): a peer that died while
    holding nothing more than an advisory lock must not wedge telemetry
    flushes forever, so on timeout -- or on platforms without ``fcntl``
    -- the caller proceeds unlocked, degrading to the historical
    best-effort behaviour.  ``held`` reports which mode was used.
    """

    def __init__(self, path: pathlib.Path, wait_s: float = USAGE_LOCK_WAIT_S):
        self.path = path
        self.wait_s = wait_s
        self.held = False
        self._fh: "typing.IO[bytes] | None" = None

    def __enter__(self) -> "_UsageLock":
        if _fcntl is None:
            return self
        try:
            self._fh = open(self.path, "ab")
        except OSError:
            return self
        deadline = time.monotonic() + self.wait_s
        while True:
            try:
                _fcntl.flock(self._fh, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
                self.held = True
                return self
            except OSError:
                if time.monotonic() >= deadline:
                    self._fh.close()
                    self._fh = None
                    return self
                time.sleep(_USAGE_LOCK_POLL_S)

    def __exit__(self, *exc_info: object) -> None:
        if self._fh is not None:
            try:
                if self.held:
                    _fcntl.flock(self._fh, _fcntl.LOCK_UN)
            finally:
                self._fh.close()
                self._fh = None
        self.held = False


def default_cache_dir() -> pathlib.Path:
    """Resolve the cache root from the environment."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg).expanduser() if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def _canonical(value: typing.Any) -> typing.Any:
    """JSON-stable form of key material (enums by value, dicts sorted)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "value"):  # enums
        return value.value
    return repr(value)


#: Memoized cell keys, keyed on ``(spec, model_version, vector_stamp)``.
#: A spec is frozen and its config/params derive from it alone, so the
#: only inputs that can change within a process are the stamps -- which
#: are part of the memo key, so schema bumps and source edits still
#: produce fresh keys.  Bounded: a sweep touches thousands of specs.
_KEY_MEMO: "dict[typing.Hashable, str]" = {}
_KEY_MEMO_MAX = 8192


def cell_cache_key(spec: CellSpec) -> str:
    """Content hash identifying one cell's result on disk.

    The documented cache-key contract (docs/PERFORMANCE.md) is exactly
    the ``material`` dict below.
    """
    stamp = model_version(spec.device_type, spec.benchmark_key)
    vec = vector_stamp() if spec.vector else None
    memo_key = (spec, stamp, vec)
    cached = _KEY_MEMO.get(memo_key)
    if cached is not None:
        return cached
    config = spec.device_config()
    bench = spec.make_benchmark()
    material = {
        "model_version": stamp,
        "benchmark": spec.benchmark_key,
        "params": _canonical(bench.params),
        "device_config": _canonical(config),
        "functional": spec.functional,
        "enforce_capacity": spec.enforce_capacity,
    }
    if spec.fault_plan is not None:
        # Only present when set, so fault-free keys (the overwhelmingly
        # common case) are unchanged from the pre-fault-injection format.
        material["fault_plan"] = _canonical(spec.fault_plan)
    if spec.vector:
        # Same only-when-set rule: scalar keys are unchanged from the
        # pre-vector format, and vectorized cells carry the vector
        # engine's own source digest so the two paths never share an
        # entry (docs/VECTORIZATION.md "cache-stamp versioning").
        material["vector"] = vec
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(blob.encode()).hexdigest()
    if len(_KEY_MEMO) < _KEY_MEMO_MAX:
        _KEY_MEMO[memo_key] = key
    return key


class DiskCache:
    """File-per-entry pickle store under a cache root.

    Entries live at ``<root>/cells/<key[:2]>/<key>.pkl`` (the two-char
    fan-out keeps directories small on full-sweep workloads); a sweep's
    benchmark recordings at ``<root>/plans/<key[:2]>/<key>.pkl``.  Writes
    are atomic (temp file + rename) so a crashed or parallel run never
    leaves a half-written entry behind for the next reader.
    """

    #: Usage-ledger fields accumulated per session and merged on flush.
    USAGE_FIELDS = ("hits", "misses", "writes", "corrupt")

    def __init__(self, root: "str | os.PathLike | None" = None) -> None:
        self.root = pathlib.Path(root).expanduser() if root else default_cache_dir()
        self._session_usage = dict.fromkeys(self.USAGE_FIELDS, 0)

    @property
    def cells_dir(self) -> pathlib.Path:
        return self.root / "cells"

    @property
    def plans_dir(self) -> pathlib.Path:
        """Root of the sweep's plan store (:mod:`repro.perf.plans`).

        It holds benchmark recordings, each laid out into a pricing
        plan per geometry group.  They live beside the cell entries but
        in their own namespace, so a recording key can never collide
        with (or poison) a cell key.
        """
        return self.root / "plans"

    @property
    def usage_path(self) -> pathlib.Path:
        return self.root / "usage.json"

    @property
    def usage_lock_path(self) -> pathlib.Path:
        return self.root / "usage.lock"

    def path_for(self, key: str) -> pathlib.Path:
        return self.cells_dir / key[:2] / f"{key}.pkl"

    def plan_path_for(self, key: str) -> pathlib.Path:
        return self.plans_dir / key[:2] / f"{key}.pkl"

    def _load(
        self, path: pathlib.Path, expected: type, what: str, fallback: str
    ) -> "typing.Any | None":
        """Unpickle one entry; a corrupted one warns, is deleted, and
        reads as ``None``."""
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
            if not isinstance(value, expected):
                raise pickle.UnpicklingError(
                    f"expected {expected.__name__}, "
                    f"found {type(value).__name__}"
                )
            return value
        except Exception as exc:  # noqa: BLE001 - any corruption degrades to a miss
            from repro.obs.metrics import global_registry

            global_registry().counter("cache.corrupt_entries").inc()
            warnings.warn(
                f"corrupted {what} entry at {path}: "
                f"{type(exc).__name__}: {exc}; {fallback}",
                RuntimeWarning,
                stacklevel=3,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None

    @staticmethod
    def _store(path: pathlib.Path, value: typing.Any) -> None:
        """Atomically pickle one entry (temp file + rename)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    def get_plan(self, key: str) -> "typing.Any | None":
        """Load a persisted :class:`~repro.perf.record.Recording`.

        The sweep's plan store holds one recording per (benchmark,
        params), keyed by :func:`repro.perf.plans.recording_key`.  Same
        degradation contract as :meth:`get`: a corrupted entry warns, is
        deleted, and reads as a miss (the sweep recompiles).
        """
        from repro.perf.record import Recording

        path = self.plan_path_for(key)
        if not path.exists():
            return None
        return self._load(path, Recording, "plan", "recompiling")

    def put_plan(self, key: str, recording: "typing.Any") -> None:
        """Atomically persist one benchmark recording."""
        self._store(self.plan_path_for(key), recording)

    def _count(self, field: str) -> None:
        """Tally one usage event (global registry + session ledger)."""
        from repro.obs.metrics import global_registry

        global_registry().counter(f"cache.{field}").inc()
        self._session_usage[field] += 1

    def get(self, key: str) -> "CellOutcome | None":
        """Load an entry; a corrupted one warns, is deleted, and misses."""
        path = self.path_for(key)
        if not path.exists():
            self._count("misses")
            return None
        outcome = self._load(path, CellOutcome, "cache", "re-simulating")
        if outcome is None:
            self._session_usage["corrupt"] += 1
        else:
            self._count("hits")
        return outcome

    def put(self, key: str, outcome: CellOutcome) -> None:
        """Atomically persist an entry (event streams are stripped)."""
        self._store(self.path_for(key), outcome.without_events())
        self._count("writes")

    def usage(self) -> "dict[str, int]":
        """Lifetime usage counters from the on-disk ledger (all zero when
        absent or unreadable)."""
        totals = dict.fromkeys(self.USAGE_FIELDS, 0)
        try:
            with open(self.usage_path, "r", encoding="utf-8") as fh:
                stored = json.load(fh)
            for field in self.USAGE_FIELDS:
                totals[field] = int(stored.get(field, 0))
        except (OSError, ValueError):
            pass
        return totals

    def flush_usage(self) -> "dict[str, int]":
        """Merge this session's tallies into the lifetime ledger.

        The read-modify-write runs under an advisory ``fcntl`` lock
        (:class:`_UsageLock`) so a serve process and a CLI run racing on
        the same cache directory serialize their merges instead of each
        losing the other's increments.  The lock wait is bounded: on
        timeout (or where ``fcntl`` does not exist) the write degrades
        to the historical best-effort behaviour -- telemetry may lose an
        increment, the file is never corrupted (writes stay atomic:
        temp + rename).  Returns the merged totals; the session tallies
        reset.  The engine calls this once per ``run_cells``.
        """
        if not any(self._session_usage.values()):
            return self.usage()
        session = self._session_usage
        self._session_usage = dict.fromkeys(self.USAGE_FIELDS, 0)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:  # read-only cache roots lose telemetry, not results
            totals = self.usage()
            for field in self.USAGE_FIELDS:
                totals[field] += session[field]
            return totals
        with _UsageLock(self.usage_lock_path):
            totals = self.usage()
            for field in self.USAGE_FIELDS:
                totals[field] += session[field]
            try:
                tmp = self.usage_path.with_suffix(f".tmp.{os.getpid()}")
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(dict(totals, schema=1), fh)
                os.replace(tmp, self.usage_path)
            except OSError:
                pass
        return totals

    def _entry_paths(self) -> "list[pathlib.Path]":
        """Every stored entry file: cells, then plans."""
        return [
            path
            for root in (self.cells_dir, self.plans_dir)
            for path in sorted(root.rglob("*.pkl"))
        ]

    def entries(self) -> "list[tuple[str, int, float]]":
        """Every stored cell and plan as ``(key, bytes, mtime)``, by key."""
        found = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:  # racing delete
                continue
            found.append((path.stem, stat.st_size, stat.st_mtime))
        return sorted(found)

    def clear(self) -> int:
        """Delete every entry (cells and plans); returns how many."""
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> "tuple[int, int]":
        """(entry count, total bytes) currently stored."""
        entries = self.entries()  # skips files a racing delete removed
        return len(entries), sum(size for _key, size, _mtime in entries)
