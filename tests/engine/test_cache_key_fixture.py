"""Cache keys for the paper architectures are byte-identical to PR 3.

``tests/engine/fixtures/cache_keys_pr3.json`` was generated *before* the
architecture-registry refactor, with ``_digest_entries`` replaced by a
fake that hashes the entry tuple itself instead of file contents.  That
pins everything about the key *schema* -- the canonical material dict,
the stamp format, and the exact stamp-source tuples each device
declares -- while staying independent of incidental source edits.

If this test fails, cached results from before the refactor would be
silently invalidated (or worse, mis-shared).  Regenerate the fixture
only for a deliberate, documented schema change (and bump
``CACHE_SCHEMA`` when the payload layout moves too).
"""

import hashlib
import json
import pathlib

import pytest

import repro.engine.version as version_module
from repro.config.device import PimDeviceType
from repro.engine import CellSpec, cell_cache_key, model_version

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cache_keys_pr3.json"

PAPER_DEVICES = (
    PimDeviceType.BITSIMD_V_AP,
    PimDeviceType.FULCRUM,
    PimDeviceType.BANK_LEVEL,
)
BENCHMARKS = ("vecadd", "gemv", "histogram")


def fake_digest(entries):
    """Digest the entry tuple itself, not file contents (schema-only)."""
    return hashlib.sha256(repr(tuple(entries)).encode()).hexdigest()


@pytest.fixture
def schema_digests(monkeypatch):
    monkeypatch.setattr(version_module, "_digest_entries", fake_digest)


def _current_keys() -> dict:
    keys = {}
    for device_type in PAPER_DEVICES:
        for bench in BENCHMARKS:
            spec = CellSpec(benchmark_key=bench, device_type=device_type)
            keys[f"{device_type.value}:{bench}:32:paper"] = cell_cache_key(spec)
        functional = CellSpec(
            benchmark_key="vecadd",
            device_type=device_type,
            num_ranks=4,
            paper_scale=False,
            functional=True,
        )
        keys[f"{device_type.value}:vecadd:4:functional"] = cell_cache_key(
            functional
        )
        keys[f"stamp:{device_type.value}:vecadd"] = model_version(
            device_type, "vecadd"
        )
    return keys


def test_fixture_covers_all_fifteen_keys():
    fixture = json.loads(FIXTURE.read_text())
    assert len(fixture) == 15
    assert set(fixture) == set(_keys_expected())


def _keys_expected():
    names = []
    for device_type in PAPER_DEVICES:
        names += [
            f"{device_type.value}:{bench}:32:paper" for bench in BENCHMARKS
        ]
        names.append(f"{device_type.value}:vecadd:4:functional")
        names.append(f"stamp:{device_type.value}:vecadd")
    return names


def test_cache_keys_byte_identical_to_pr3(schema_digests):
    fixture = json.loads(FIXTURE.read_text())
    current = _current_keys()
    mismatched = {
        name: (fixture[name], current[name])
        for name in fixture
        if current.get(name) != fixture[name]
    }
    assert not mismatched, (
        "cache keys drifted from the pre-refactor fixture "
        f"(old, new): {mismatched}"
    )


def test_stamp_schema_unchanged(schema_digests):
    """The stamp keeps its schema-common-device-bench shape and the
    builtin backends keep the exact stamp-source tuples of PR 3."""
    for device_type in PAPER_DEVICES:
        stamp = model_version(device_type, "vecadd")
        parts = stamp.split("-")
        assert parts[0] == str(version_module.CACHE_SCHEMA)
        assert len(parts) == 4
        assert all(len(p) == 12 for p in parts[1:])
    # Distinct per-device digests: no two paper devices share a stamp.
    digests = {
        model_version(d, "vecadd").split("-")[2] for d in PAPER_DEVICES
    }
    assert len(digests) == len(PAPER_DEVICES)


def test_handwritten_stamp_entries_never_contain_pseudo_entries():
    """The byte-identity guarantee for hand-written backends rests on
    real source paths never containing ``=`` (the pseudo-entry marker
    parametric knob digests use).  Pin it for every non-transient
    backend."""
    from repro.arch import iter_backends

    for backend in iter_backends():
        if getattr(backend, "transient", False):
            continue
        assert not any("=" in entry for entry in backend.stamp_entries()), (
            f"{backend.id} stamp entries contain '='; hand-written keys "
            "would collide with the pseudo-entry namespace"
        )


class TestParametricKeys:
    """Cache-key soundness of derived (transient parametric) backends.

    The knob content enters the key twice -- via the ParametricDeviceType
    dataclass fields in the config material and via the ``knobs=<digest>``
    stamp pseudo-entry -- so distinct knob dicts can never share a key
    and key-order/numeric-spelling variants of the same dict always do.
    """

    def _key_for(self, backend) -> str:
        spec = CellSpec(
            benchmark_key="vecadd", device_type=backend.device_type
        )
        return cell_cache_key(spec)

    def test_distinct_knob_dicts_get_distinct_keys(self, schema_digests):
        from repro.arch import derive_backend

        variants = [
            derive_backend("bank", {"banks_per_rank": banks})
            for banks in (16, 32, 64, 128)
        ]
        keys = {self._key_for(backend) for backend in variants}
        assert len(keys) == len(variants)

    def test_dict_order_variants_share_one_key(self, schema_digests):
        from repro.arch import derive_backend

        a = derive_backend(
            "bank", {"pe_width_bits": 128, "pe_freq_mhz": 250}
        )
        b = derive_backend(
            "bank", {"pe_freq_mhz": 250.0, "bank_alu_bits": 128}
        )
        assert self._key_for(a) == self._key_for(b)

    def test_parametric_stamp_differs_from_base(self, schema_digests):
        from repro.arch import derive_backend

        backend = derive_backend("bank", {"banks_per_rank": 64})
        derived = model_version(backend.device_type, "vecadd")
        base = model_version(PimDeviceType.BANK_LEVEL, "vecadd")
        # Same schema and common/bench digests; the device digest
        # (position 2) must differ -- the knob pseudo-entry moved it.
        assert derived.split("-")[2] != base.split("-")[2]
        assert derived.split("-")[1] == base.split("-")[1]
        assert derived.split("-")[3] == base.split("-")[3]
