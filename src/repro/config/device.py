"""PIM device types, data types, and the device configuration record.

These mirror PIMeval's ``PIM_DEVICE_*`` simulation targets and
``PIM_INT*`` data types, restricted to the digital architectures the paper
evaluates: subarray-level bit-serial (DRAM-AP / BITSIMD_V_AP), subarray-level
bit-parallel (Fulcrum), and bank-level bit-parallel.
"""

from __future__ import annotations

import dataclasses
import enum
import math

from repro.config.dram import DramSpec


#: Where an architecture's processing elements sit.  The traits below
#: (and :class:`DeviceConfig`'s core/row arithmetic) dispatch on this
#: declarative scope instead of on enum identity, so plug-in device
#: types (:class:`ArchDeviceType`) participate in the same arithmetic.
CORE_SCOPE_SUBARRAY = "subarray"
CORE_SCOPE_SUBARRAY_GROUP = "subarray-group"
CORE_SCOPE_BANK = "bank"

_CORE_SCOPES = (
    CORE_SCOPE_SUBARRAY, CORE_SCOPE_SUBARRAY_GROUP, CORE_SCOPE_BANK
)


class PimDeviceType(enum.Enum):
    """The three digital PIM architectures of the paper, plus the analog
    bit-serial (TRA) variant PIMeval is being extended with (Section IX).

    Architectures beyond these four are *not* added here: a plug-in
    backend declares an :class:`ArchDeviceType` instead and registers
    through :mod:`repro.arch`, so a new variant never edits this enum.
    """

    BITSIMD_V_AP = "bit-serial"
    FULCRUM = "fulcrum"
    BANK_LEVEL = "bank-level"
    ANALOG_BITSIMD_V = "analog-bit-serial"

    @property
    def display_name(self) -> str:
        """Label used in the paper's figures."""
        return _DISPLAY_NAMES[self]

    @property
    def core_scope(self) -> str:
        """DRAM structure each processing element is attached to."""
        return _CORE_SCOPE[self]

    @property
    def is_bit_serial(self) -> bool:
        return self in (
            PimDeviceType.BITSIMD_V_AP, PimDeviceType.ANALOG_BITSIMD_V
        )

    @property
    def is_analog(self) -> bool:
        """Whether compute uses charge sharing (TRA) rather than logic."""
        return self is PimDeviceType.ANALOG_BITSIMD_V

    @property
    def is_subarray_level(self) -> bool:
        return self.core_scope != CORE_SCOPE_BANK

    @property
    def in_paper_evaluation(self) -> bool:
        """Whether the variant appears in the paper's figures."""
        return self is not PimDeviceType.ANALOG_BITSIMD_V


_DISPLAY_NAMES = {
    PimDeviceType.BITSIMD_V_AP: "Bit-Serial",
    PimDeviceType.FULCRUM: "Fulcrum",
    PimDeviceType.BANK_LEVEL: "Bank-level",
    PimDeviceType.ANALOG_BITSIMD_V: "Analog Bit-Serial",
}

_CORE_SCOPE = {
    PimDeviceType.BITSIMD_V_AP: CORE_SCOPE_SUBARRAY,
    PimDeviceType.FULCRUM: CORE_SCOPE_SUBARRAY_GROUP,
    PimDeviceType.BANK_LEVEL: CORE_SCOPE_BANK,
    PimDeviceType.ANALOG_BITSIMD_V: CORE_SCOPE_SUBARRAY,
}


@dataclasses.dataclass(frozen=True)
class ArchDeviceType:
    """A plug-in device type: the enum-member surface, minus the enum.

    Backends registered through :mod:`repro.arch` that model an
    architecture outside the paper's four declare one of these instead
    of extending :class:`PimDeviceType` -- the whole point of the
    registry is that a new variant touches no shared module.  Instances
    are frozen (hashable: usable as suite-result and cache-spec keys)
    and picklable, so they travel to engine worker processes.

    ``value``/``name`` mirror the enum member attributes every consumer
    already reads (``value`` is the stable string identity; ``name`` the
    uppercase report label); the trait fields mirror the enum
    properties.
    """

    value: str
    name: str
    display_name: str
    core_scope: str = CORE_SCOPE_BANK
    bit_serial: bool = False
    analog: bool = False
    paper_evaluation: bool = False

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("a device type needs a non-empty value")
        if self.core_scope not in _CORE_SCOPES:
            raise ValueError(
                f"core_scope must be one of {_CORE_SCOPES}, "
                f"got {self.core_scope!r}"
            )

    @property
    def is_bit_serial(self) -> bool:
        return self.bit_serial

    @property
    def is_analog(self) -> bool:
        return self.analog

    @property
    def is_subarray_level(self) -> bool:
        return self.core_scope != CORE_SCOPE_BANK

    @property
    def in_paper_evaluation(self) -> bool:
        return self.paper_evaluation


class PimDataType(enum.Enum):
    """Element data types supported by the PIM API."""

    INT8 = ("int8", 8, True)
    INT16 = ("int16", 16, True)
    INT32 = ("int32", 32, True)
    INT64 = ("int64", 64, True)
    UINT8 = ("uint8", 8, False)
    UINT16 = ("uint16", 16, False)
    UINT32 = ("uint32", 32, False)
    UINT64 = ("uint64", 64, False)
    BOOL = ("bool", 1, False)

    def __init__(self, numpy_name: str, bits: int, signed: bool) -> None:
        self.numpy_name = numpy_name
        self.bits = bits
        self.signed = signed

    @property
    def bytes(self) -> int:
        """Storage size in bytes (bool is packed one element per byte)."""
        return max(1, self.bits // 8)

    @classmethod
    def from_bits(cls, bits: int, signed: bool = True) -> "PimDataType":
        """Look up the integer type with the given width."""
        for dtype in cls:
            if dtype.bits == bits and dtype.signed == signed and dtype is not cls.BOOL:
                return dtype
        if bits == 1:
            return cls.BOOL
        raise ValueError(f"no PIM data type with {bits} bits (signed={signed})")


class PimAllocType(enum.Enum):
    """Allocation strategies, mirroring PIMeval's ``PIM_ALLOC_*``.

    ``AUTO`` picks the layout native to the simulation target: vertical for
    bit-serial devices and horizontal for bit-parallel ones.
    """

    AUTO = "auto"
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


@dataclasses.dataclass(frozen=True)
class PimArchParams:
    """Architecture-specific processing-element parameters (Table II)."""

    # Fulcrum: ALU word width, clock, subarrays aggregated per core.
    fulcrum_alu_bits: int = 32
    fulcrum_alu_freq_mhz: float = 164.0
    fulcrum_subarrays_per_core: int = 2
    # Bank-level: ALPU width and clock; GDL width lives in DramGeometry.
    bank_alu_bits: int = 64
    bank_alu_freq_mhz: float = 164.0

    def __post_init__(self) -> None:
        if self.fulcrum_alu_bits not in (32, 64):
            raise ValueError("Fulcrum ALU must be 32 or 64 bits wide")
        if self.bank_alu_bits not in (32, 64, 128):
            raise ValueError("bank-level ALPU must be 32, 64, or 128 bits wide")
        count = self.fulcrum_subarrays_per_core
        if count < 1:
            raise ValueError(
                f"fulcrum_subarrays_per_core must be >= 1, got {count!r}"
            )
        for field in dataclasses.fields(self):
            if field.type != "float":
                continue
            # The float fields are the clocks: each a float, or a
            # float64 array when a sweep prices a vector of design
            # points at once (repro.perf.plans).
            freq = getattr(self, field.name)
            valid = (freq > 0) & (freq < math.inf)
            if not (valid.all() if hasattr(valid, "all") else valid):
                raise ValueError(
                    f"{field.name} must be a positive finite clock, "
                    f"got {freq!r}"
                )

    @property
    def fulcrum_cycle_ns(self) -> float:
        return 1e3 / self.fulcrum_alu_freq_mhz

    @property
    def bank_cycle_ns(self) -> float:
        return 1e3 / self.bank_alu_freq_mhz


@dataclasses.dataclass(frozen=True)
class DeviceConfig:
    """Complete description of a simulated PIM device.

    ``device_type`` is a :class:`PimDeviceType` member for the paper's
    architectures or an :class:`ArchDeviceType` for plug-in backends;
    either way all dispatch below reads declarative traits
    (``core_scope``, ``is_bit_serial``), never enum identity.
    """

    device_type: "PimDeviceType | ArchDeviceType" = PimDeviceType.BITSIMD_V_AP
    dram: DramSpec = dataclasses.field(default_factory=DramSpec)
    arch: PimArchParams = dataclasses.field(default_factory=PimArchParams)

    @property
    def num_cores(self) -> int:
        """Number of PIM cores the device exposes.

        Subarray scope: one core per subarray.  Subarray-group scope
        (Fulcrum): one core per ``fulcrum_subarrays_per_core``
        subarrays.  Bank scope: one core per bank.
        """
        geometry = self.dram.geometry
        scope = self.device_type.core_scope
        if scope == CORE_SCOPE_SUBARRAY:
            return geometry.num_subarrays
        if scope == CORE_SCOPE_SUBARRAY_GROUP:
            return geometry.num_subarrays // self.arch.fulcrum_subarrays_per_core
        return geometry.num_banks

    @property
    def rows_per_core(self) -> int:
        geometry = self.dram.geometry
        scope = self.device_type.core_scope
        if scope == CORE_SCOPE_SUBARRAY:
            return geometry.rows_per_subarray
        if scope == CORE_SCOPE_SUBARRAY_GROUP:
            return geometry.rows_per_subarray * self.arch.fulcrum_subarrays_per_core
        return geometry.rows_per_subarray * geometry.subarrays_per_bank

    @property
    def cols_per_core(self) -> int:
        return self.dram.geometry.cols_per_subarray

    @property
    def native_layout(self) -> PimAllocType:
        """Layout chosen by ``PIM_ALLOC_AUTO`` on this device."""
        if self.device_type.is_bit_serial:
            return PimAllocType.VERTICAL
        return PimAllocType.HORIZONTAL

    @property
    def label(self) -> str:
        """Short human label for this configuration (trace process names)."""
        return (
            f"{self.device_type.display_name} "
            f"x{self.dram.geometry.num_ranks} ranks"
        )

    def with_geometry(self, **overrides: int) -> "DeviceConfig":
        """Copy of this config with modified DRAM geometry (for sweeps)."""
        geometry = self.dram.geometry.scaled(**overrides)
        return dataclasses.replace(
            self, dram=dataclasses.replace(self.dram, geometry=geometry)
        )
