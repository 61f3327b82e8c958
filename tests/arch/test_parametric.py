"""Parametric backends: identity, the backend contract, and hygiene.

The tentpole claim of the DSE layer is that a derived backend is a
full citizen of the registry -- same contract as a hand-written one --
for *any* valid knob dict.  The property-style suite below drives ~20
seeded-random knob dicts across the word-ALU and bit-serial bases and
asserts the PR 4 contract on every derived point: every command kind
prices to finite non-negative cost fields, no undeclared counter is
ever emitted, the energy model prices every point, and every stamp
entry resolves (file on disk, or a literal pseudo-entry).  Alongside:
cache-key uniqueness across distinct knob dicts, key equality across
dict key orderings, and the registry-hygiene helpers.
"""

import math
import pathlib
import random

import pytest

from repro.arch import (
    ParametricBackend,
    arch_for,
    derive_backend,
    is_registered,
    iter_backends,
    resolve_backend,
    temporary_backend,
    unregister_backend,
)
from repro.arch.base import COST_COUNTERS
from repro.arch.parametric import (
    ParametricDeviceType,
    backend_for_device_type,
    knob_digest,
    normalize_knobs,
)
from repro.config.device import PimAllocType, PimArchParams
from repro.config.power import PowerConfig
from repro.core.commands import PimCmdKind
from repro.core.errors import PimConfigError, PimStatus
from repro.core.layout import plan_layout
from repro.energy.model import EnergyModel
from repro.perf.base import CommandArgs

NUM_ELEMENTS = 50_000
BITS = 32

#: Knob pools the random dicts draw from.  Geometry values respect the
#: DramGeometry constraints (banks divisible by chips_per_rank=8);
#: arch values stay inside PimArchParams' validated sets.
_GEOMETRY_POOL = {
    "banks_per_rank": (16, 32, 64, 128),
    "subarrays_per_bank": (16, 32, 64),
    "cols_per_subarray": (4096, 8192, 16384),
    "gdl_width_bits": (64, 128, 256),
    "num_channels": (1, 2),
}
_WORD_POOL = {
    "pe_width_bits": (32, 64),
    "pe_freq_mhz": (100.0, 164.0, 250.0),
    "alu_op_pj": (0.05, 0.1, 0.2),
}
_BITSERIAL_POOL = {
    "bitserial_num_registers": (2, 4, 8),
    "alu_op_pj": (0.05, 0.1, 0.2),
}

_BASES = ("fulcrum", "bank", "ddr5-bank", "bitserial")


def _random_cases(count: int = 20):
    """Seeded-random (base, knob dict) pairs, distinct by construction."""
    rng = random.Random(0xD5E)
    cases = []
    seen = set()
    while len(cases) < count:
        base = rng.choice(_BASES)
        pool = dict(_GEOMETRY_POOL)
        pool.update(
            _BITSERIAL_POOL if base == "bitserial" else _WORD_POOL
        )
        names = rng.sample(sorted(pool), rng.randint(1, 3))
        knobs = {name: rng.choice(pool[name]) for name in names}
        backend = derive_backend(base, knobs)
        key = (base, backend.knobs)
        if key in seen:
            continue
        seen.add(key)
        cases.append((base, knobs, backend))
    return cases


CASES = _random_cases()


@pytest.fixture(autouse=True, scope="module")
def _registry_restored():
    """Unwind arch_for self-heal registrations this module provokes.

    Pricing a derived config resolves its ParametricDeviceType through
    ``arch_for``, whose self-heal path registers the backend (so worker
    processes can resolve pickled types).  That is by design inside a
    sweep -- run_sweep unwinds its own registrations -- but here the
    contract tests price 20 derived configs directly, so restore the
    registry for the rest of the session."""
    before = {backend.id for backend in iter_backends()}
    yield
    for backend in list(iter_backends()):
        if backend.id not in before:
            unregister_backend(backend.id)


def _args_for(kind: PimCmdKind, config) -> CommandArgs:
    """Well-formed CommandArgs honoring the command's arity."""
    spec = kind.spec
    layout = plan_layout(
        config, NUM_ELEMENTS, BITS, PimAllocType.AUTO, enforce_capacity=False
    )
    bool_layout = plan_layout(
        config, NUM_ELEMENTS, 1, PimAllocType.AUTO, enforce_capacity=False
    )
    inputs = tuple([layout] * spec.num_vector_inputs)
    if kind is PimCmdKind.SELECT:  # condition mask first
        inputs = (bool_layout,) + inputs[1:]
    dest = None if spec.produces_scalar else layout
    scalar = 3 if spec.has_scalar else None
    return CommandArgs(
        kind=kind, bits=BITS, inputs=inputs, dest=dest, scalar=scalar
    )


@pytest.mark.parametrize(
    "base,knobs,backend", CASES,
    ids=[b.id for _, _, b in CASES],
)
class TestRandomKnobContract:
    """The PR 4 backend contract holds for every random derived point."""

    def test_every_command_costs_and_prices(self, base, knobs, backend):
        config = backend.make_config(num_ranks=2)
        model = backend.make_perf_model(config)
        energy_model = EnergyModel(config)
        for kind in PimCmdKind:
            cost = model.cost_of(_args_for(kind, config))
            for field in ("latency_ns",) + COST_COUNTERS:
                value = getattr(cost, field)
                assert math.isfinite(value), (
                    f"{backend.id} {kind.name} {field} not finite: {value}"
                )
                assert value >= 0, (
                    f"{backend.id} {kind.name} {field} negative: {value}"
                )
            emitted = {
                counter for counter in COST_COUNTERS
                if getattr(cost, counter) > 0
            }
            undeclared = emitted - set(backend.cost_counters)
            assert not undeclared, (
                f"{backend.id} emitted undeclared {sorted(undeclared)} "
                f"for {kind.name}"
            )
            energy = energy_model.command_energy(cost)
            assert math.isfinite(energy.execution_nj)
            assert energy.execution_nj >= 0

    def test_energy_pricing_positive(self, base, knobs, backend):
        assert backend.alu_op_pj(PowerConfig()) > 0

    def test_stamp_entries_resolvable(self, base, knobs, backend):
        import repro

        root = pathlib.Path(repro.__file__).resolve().parent
        entries = backend.stamp_entries()
        assert entries[-1] == f"knobs={backend.knob_digest}"
        for entry in entries:
            if "=" in entry:
                continue
            assert (root / entry).exists(), (
                f"{backend.id} stamp source {entry!r} missing"
            )

    def test_identity_matches_base_and_digest(self, base, knobs, backend):
        assert backend.transient is True
        assert backend.origin == resolve_backend(base).id
        assert backend.id.startswith(f"{backend.origin}@")
        assert backend.device_type.base_id == backend.origin
        assert backend.device_type.knobs == backend.knobs


class TestContentAddressedIdentity:
    def test_distinct_knob_dicts_get_distinct_ids_and_stamps(self):
        ids = [b.id for _, _, b in CASES]
        assert len(set(ids)) == len(ids)
        digests = [b.knob_digest for _, _, b in CASES]
        # Digests may repeat across *bases* sharing a knob tuple; the
        # (base, digest) pair -- the backend id -- never does, and every
        # distinct knob tuple on one base gets a distinct digest.
        by_base_digest = {(b.origin, d) for (_, _, b), d in zip(CASES, digests)}
        assert len(by_base_digest) == len(CASES)

    def test_key_order_and_numeric_spelling_are_canonical(self):
        a = derive_backend(
            "bank", {"pe_width_bits": 128, "pe_freq_mhz": 250}
        )
        b = derive_backend(
            "bank", {"pe_freq_mhz": 250.0, "bank_alu_bits": 128}
        )
        assert a.id == b.id
        assert a.device_type == b.device_type
        assert a.stamp_entries() == b.stamp_entries()

    def test_normalize_rejects_unknown_bool_and_fractional_int(self):
        bank = resolve_backend("bank")
        with pytest.raises(PimConfigError) as exc_info:
            normalize_knobs(bank, {"warp_drive": 9})
        assert exc_info.value.status is PimStatus.ERR_CONFIG
        assert "warp_drive" in str(exc_info.value)
        with pytest.raises(PimConfigError):
            normalize_knobs(bank, {"banks_per_rank": True})
        with pytest.raises(PimConfigError):
            normalize_knobs(bank, {"banks_per_rank": 32.5})

    def test_alias_conflict_detected(self):
        with pytest.raises(PimConfigError):
            derive_backend(
                "bank", {"pe_width_bits": 64, "bank_alu_bits": 128}
            )

    def test_pe_alias_rejected_on_bit_serial_base(self):
        with pytest.raises(PimConfigError) as exc_info:
            derive_backend("bitserial", {"pe_width_bits": 64})
        assert "bit-serial" in str(exc_info.value)

    def test_invalid_knob_value_is_coded_at_derive_time(self):
        # 48 is outside PimArchParams' validated ALU widths: the bare
        # ValueError must surface as a coded config error immediately.
        with pytest.raises(PimConfigError) as exc_info:
            derive_backend("bank", {"bank_alu_bits": 48})
        assert exc_info.value.status is PimStatus.ERR_CONFIG

    def test_knob_digest_is_pure_content(self):
        knobs = (("bank_alu_bits", 128), ("banks_per_rank", 64))
        assert knob_digest(knobs) == knob_digest(tuple(knobs))
        assert knob_digest(knobs) != knob_digest(knobs[:1])


class TestKnobRanges:
    """Every knob is finite; clocks are positive, energies non-negative."""

    @pytest.mark.parametrize("knobs,needle", [
        ({"pe_freq_mhz": math.nan}, "finite"),
        ({"pe_freq_mhz": math.inf}, "finite"),
        ({"pe_freq_mhz": 0}, "positive"),
        ({"bank_alu_freq_mhz": -164.0}, "positive"),
        ({"alu_op_pj": -5.0}, "non-negative"),
        ({"alu_op_pj": math.nan}, "finite"),
        ({"banks_per_rank": math.inf}, "finite"),
    ])
    def test_normalize_rejects_out_of_range_values(self, knobs, needle):
        ((name, value),) = knobs.items()
        with pytest.raises(PimConfigError) as exc_info:
            normalize_knobs(resolve_backend("bank"), knobs)
        assert exc_info.value.status is PimStatus.ERR_CONFIG
        message = str(exc_info.value)
        assert needle in message
        assert repr(name) in message and repr(value) in message

    def test_zero_energy_is_valid_and_negative_is_not(self):
        bank = resolve_backend("bank")
        assert normalize_knobs(bank, {"alu_op_pj": 0}) == (("alu_op_pj", 0.0),)
        with pytest.raises(PimConfigError, match="alu_op_pj"):
            normalize_knobs(bank, {"alu_op_pj": -1e-9})

    @pytest.mark.parametrize("field", ["fulcrum_alu_freq_mhz",
                                       "bank_alu_freq_mhz"])
    @pytest.mark.parametrize("freq", [0.0, -164.0, math.nan, math.inf])
    def test_hand_built_arch_rejects_bad_clocks(self, field, freq):
        with pytest.raises(ValueError, match=field):
            PimArchParams(**{field: freq})

    @pytest.mark.parametrize("name", [
        "bitserial_num_registers", "fulcrum_num_walkers",
        "fulcrum_subarrays_per_core", "bank_num_walkers",
    ])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_are_rejected(self, name, value):
        # No cost model reads the register and walker counts, so a
        # sweep over invalid ones would price distinct point ids alike.
        with pytest.raises(PimConfigError) as exc_info:
            normalize_knobs(resolve_backend("bank"), {name: value})
        assert exc_info.value.status is PimStatus.ERR_CONFIG
        message = str(exc_info.value)
        assert ">= 1" in message
        assert repr(name) in message and repr(value) in message
        with pytest.raises(PimConfigError, match=name):
            derive_backend("bitserial", {name: value})
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
            PimArchParams(**{name: value})

    def test_count_of_one_is_valid(self):
        backend = derive_backend("bank", {"bank_num_walkers": 1})
        assert backend.make_config(num_ranks=2).arch.bank_num_walkers == 1

    def test_array_clocks_are_checked_elementwise(self):
        import numpy as np

        arch = PimArchParams(bank_alu_freq_mhz=np.array([100.0, 250.0]))
        assert arch.bank_cycle_ns.tolist() == [1e3 / 100.0, 1e3 / 250.0]
        with pytest.raises(ValueError, match="bank_alu_freq_mhz"):
            PimArchParams(bank_alu_freq_mhz=np.array([100.0, 0.0]))


class TestDerivedConfig:
    def test_geometry_and_arch_knobs_land_in_config(self):
        backend = derive_backend("bank", {
            "banks_per_rank": 64, "pe_width_bits": 128, "pe_freq_mhz": 250,
        })
        config = backend.make_config(num_ranks=4)
        assert config.dram.geometry.banks_per_rank == 64
        assert config.arch.bank_alu_bits == 128
        assert config.arch.bank_alu_freq_mhz == 250.0
        assert config.device_type is backend.device_type

    def test_caller_geometry_override_wins(self):
        backend = derive_backend("bank", {"banks_per_rank": 64})
        config = backend.make_config(num_ranks=2, banks_per_rank=16)
        assert config.dram.geometry.banks_per_rank == 16

    def test_energy_knob_overrides_pricing(self):
        base = resolve_backend("bank")
        hot = derive_backend("bank", {"alu_op_pj": 0.5})
        power = PowerConfig()
        assert hot.alu_op_pj(power) == 0.5
        assert hot.alu_op_pj(power) != base.alu_op_pj(power)

    def test_cannot_derive_from_transient(self):
        first = derive_backend("bank", {"banks_per_rank": 64})
        with pytest.raises(PimConfigError):
            ParametricBackend(first, {"banks_per_rank": 128})


class TestRegistryHygiene:
    def test_temporary_backend_restores_size(self):
        backend = derive_backend("bank", {"banks_per_rank": 64})
        before = len(iter_backends())
        with temporary_backend(backend):
            assert is_registered(backend.id)
            assert resolve_backend(backend.id) is backend
            assert len(iter_backends()) == before + 1
        assert not is_registered(backend.id)
        assert len(iter_backends()) == before

    def test_temporary_backend_first_owner_wins(self):
        backend = derive_backend("bank", {"banks_per_rank": 64})
        twin = derive_backend("bank", {"banks_per_rank": 64})
        with temporary_backend(backend):
            with temporary_backend(twin) as active:
                # Same id already registered: the outer owner stays.
                assert active is backend
            assert is_registered(backend.id)
        assert not is_registered(backend.id)

    def test_arch_for_self_heals_unregistered_parametric_type(self):
        backend = derive_backend("bank", {"banks_per_rank": 64})
        assert not is_registered(backend.id)
        try:
            healed = arch_for(backend.device_type)
            assert healed.id == backend.id
            assert healed.device_type == backend.device_type
            assert is_registered(backend.id)
        finally:
            unregister_backend(backend.id)

    def test_backend_for_device_type_round_trips(self):
        backend = derive_backend("fulcrum", {
            "pe_width_bits": 64, "subarrays_per_bank": 16,
        })
        rebuilt = backend_for_device_type(backend.device_type)
        assert rebuilt.id == backend.id
        assert rebuilt.device_type == backend.device_type
        assert rebuilt.stamp_entries() == backend.stamp_entries()

    def test_parametric_type_survives_pickle(self):
        import pickle

        backend = derive_backend("bank", {"banks_per_rank": 64})
        clone = pickle.loads(pickle.dumps(backend.device_type))
        assert clone == backend.device_type
        assert isinstance(clone, ParametricDeviceType)
        assert backend_for_device_type(clone).id == backend.id
