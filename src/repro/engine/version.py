"""Model-version stamps: what ties a cached result to the code that made it.

A disk-cached :class:`~repro.engine.cells.CellOutcome` is only valid
while the model code that produced it is unchanged.  Rather than caching
blindly (stale results after an edit) or hashing the whole tree (every
edit flushes everything), each cell's cache key embeds a *stamp* built
from exactly the source files that can change that cell's numbers:

* a **common** group every cell depends on -- configs, the device core,
  energy models, host/baseline models, data-movement, workload
  generators, and the shared benchmark plumbing;
* a **per-device** group -- the sources the architecture's backend
  declares via :attr:`repro.arch.ArchBackend.stamp_sources` (the perf
  model, plus the microcode library for the bit-serial variants, whose
  costs come from microprogram lengths);
* a **per-benchmark** group -- the module defining the benchmark class.

Editing ``perf/fulcrum.py`` therefore invalidates Fulcrum cells and
nothing else; editing ``bench/vecadd.py`` invalidates vecadd cells only.
``CACHE_SCHEMA`` is the manual escape hatch: bump it to flush every
entry at once (e.g. when the cached payload layout changes).

The full contract is documented in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import pathlib
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import DeviceTypeLike

#: Payload/layout version of the on-disk cache.  Bumping it invalidates
#: every cached entry regardless of source hashes.
CACHE_SCHEMA = 1

#: Root of the ``repro`` package (source files are hashed relative to it).
_REPRO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Package directories whose every ``*.py`` feeds the common stamp.
_COMMON_PACKAGES = (
    "config", "core", "energy", "host", "baselines", "workloads",
)

#: Individual files in the common stamp: shared model plumbing that is
#: not architecture- or benchmark-specific.
_COMMON_FILES = (
    "perf/__init__.py",
    "perf/base.py",
    "perf/datamovement.py",
    "bench/common.py",
    "bench/optimized.py",
    "bench/aes_reference.py",
)

def _iter_source_files(entry: str) -> "list[pathlib.Path]":
    """Resolve one group entry (file or package dir) to sorted files."""
    path = _REPRO_ROOT / entry
    if path.is_dir():
        return sorted(path.glob("*.py"))
    if path.is_file():
        return [path]
    # A curated file that no longer exists is a schema change in itself:
    # fold its absence into the digest rather than failing.
    return []


@functools.lru_cache(maxsize=None)
def _digest_entries(entries: "tuple[str, ...]") -> str:
    """SHA-256 over the (relative path, contents) of every listed source.

    An entry containing ``=`` is a *pseudo-entry* -- literal content a
    backend wants folded into its stamp rather than a file to read.
    Parametric backends (``repro.arch.parametric``) use this to stamp
    ``knobs=<digest>``, giving every generated design point its own
    model version.  Real source paths never contain ``=``, so every
    hand-written backend's digest is byte-identical to before
    pseudo-entries existed.
    """
    sha = hashlib.sha256()
    for entry in entries:
        if "=" in entry:
            sha.update(entry.encode())
            sha.update(b"\0")
            continue
        for path in _iter_source_files(entry):
            sha.update(str(path.relative_to(_REPRO_ROOT)).encode())
            sha.update(b"\0")
            sha.update(path.read_bytes())
            sha.update(b"\0")
    return sha.hexdigest()


@functools.lru_cache(maxsize=None)
def _benchmark_source(benchmark_key: str) -> str:
    """Relative path of the module defining a benchmark class."""
    from repro.engine.cells import resolve_benchmark_class

    cls = resolve_benchmark_class(benchmark_key)
    path = pathlib.Path(inspect.getfile(cls)).resolve()
    try:
        return str(path.relative_to(_REPRO_ROOT))
    except ValueError:  # class defined outside repro (user extension)
        return str(path)


def model_version(device_type: "DeviceTypeLike", benchmark_key: str) -> str:
    """The stamp embedded in one cell's cache key.

    Format: ``schema-common-device-bench`` with 12-hex-digit digests, so
    a cache-miss diagnosis can see *which* group moved.  The per-device
    group comes from the architecture backend's declared
    ``stamp_sources``, so a plug-in backend's cells are invalidated by
    edits to *its* sources and nothing else.
    """
    from repro.arch.registry import arch_for

    common = _digest_entries(_COMMON_PACKAGES + _COMMON_FILES)
    device = _digest_entries(arch_for(device_type).stamp_entries())
    bench = _digest_entries((_benchmark_source(benchmark_key),))
    return (
        f"{CACHE_SCHEMA}-{common[:12]}-{device[:12]}-{bench[:12]}"
    )


def vector_stamp() -> str:
    """Digest of the vectorized pricing engine's own sources.

    Covers the histogram tracker (``perf/vector.py``) and the shared
    pricer and plan layout (``perf/plans.py``).  The sweep pricer
    (``dse/batch.py``) is not covered: it persists nothing whose content
    it decides.  Folded into the cache key only for ``vector=True``
    cells, and into every pricing-plan key: editing either file
    invalidates exactly the vectorized entries and the plans (scalar
    keys never contain it).
    Vectorized and scalar results never share a cache entry even though
    their totals are byte-identical by contract -- a belt-and-braces
    guard so a vector bug cannot poison scalar results, or vice versa.
    """
    return _digest_entries(("perf/vector.py", "perf/plans.py"))[:12]


def clear_stamp_caches() -> None:
    """Drop memoized digests (tests use this after simulating an edit)."""
    _digest_entries.cache_clear()
    _benchmark_source.cache_clear()
