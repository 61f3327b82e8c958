"""Parametric architecture backends: architectures as *data*, not modules.

Every hand-written backend (:mod:`repro.arch.builtin`, ``ddr5``,
``upmem``) is one Python module registered at import time.  That is the
right shape for an architecture someone modeled by hand -- and the wrong
shape for design-space exploration, where :mod:`repro.dse` wants to
evaluate *thousands* of hypothetical Table II variants.  This module
makes a backend **derivable**: :func:`derive_backend` takes a base
backend plus a dict of knob overrides and stamps out a transient,
fully registry-conformant :class:`ParametricBackend`.

Three design points keep the generated points sound:

* **Identity is content-addressed.**  The knob dict is normalized
  (aliases resolved, values coerced to their declared numeric type,
  entries sorted by name) and digested; the digest names the backend
  (``bank@1f2e3d4c5b6a``) and its :class:`ParametricDeviceType`.  Two
  dicts with the same knobs in any key order derive the *same* backend;
  any differing knob derives a different one.

* **Cache keys stay sound.**  The device type carries ``base_id`` and
  the canonical knob tuple as dataclass fields, so the engine's
  canonical cache-key material expands them automatically, and
  :meth:`ParametricBackend.stamp_entries` appends this module plus a
  ``knobs=<digest>`` pseudo-entry to the base backend's stamp sources
  (``repro.engine.version`` hashes pseudo-entries literally).  Derived
  points can therefore share the DiskCache with hand-written backends
  without any risk of key collision -- and hand-written backends' keys
  are byte-identical to before this module existed, because their stamp
  tuples and canonical material are untouched
  (``tests/engine/test_cache_key_fixture.py``).

* **Workers self-heal.**  A :class:`ParametricDeviceType` pickles inside
  a :class:`~repro.engine.cells.CellSpec` and travels to engine worker
  processes, where no sweep ever registered anything.
  :func:`repro.arch.registry.arch_for` detects the type on a registry
  miss and re-derives the backend from ``base_id`` + ``knobs`` via
  :func:`backend_for_device_type`, so a parametric cell runs anywhere a
  builtin cell runs.

See ``docs/DSE.md`` for the knob schema and the sweep layer built on
top.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import typing
import weakref

from repro.arch.base import ArchBackend
from repro.config.device import (
    ArchDeviceType,
    CORE_SCOPE_BANK,
    CORE_SCOPE_SUBARRAY_GROUP,
    DeviceConfig,
)
from repro.core.errors import PimConfigError

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.power import PowerConfig
    from repro.perf.base import CommandArgs, PerfModel

#: Geometry knobs (DRAM organization; ``repro.config.dram.DramGeometry``
#: fields).  All integers.
GEOMETRY_KNOBS = (
    "num_ranks",
    "num_channels",
    "banks_per_rank",
    "subarrays_per_bank",
    "rows_per_subarray",
    "cols_per_subarray",
    "gdl_width_bits",
    "chips_per_rank",
)

#: Processing-element knobs (``repro.config.device.PimArchParams``
#: fields), name -> numeric type.
ARCH_KNOBS = {
    "bitserial_num_registers": int,
    "fulcrum_alu_bits": int,
    "fulcrum_alu_freq_mhz": float,
    "fulcrum_num_walkers": int,
    "fulcrum_subarrays_per_core": int,
    "bank_alu_bits": int,
    "bank_alu_freq_mhz": float,
    "bank_num_walkers": int,
}

#: Energy knobs: overrides applied at the backend's pricing hooks, not
#: inside :mod:`repro.config.power` (the hooks are the registry-routed
#: seam; see :meth:`repro.arch.base.ArchBackend.alu_op_pj`).
ENERGY_KNOBS = {
    "alu_op_pj": float,
}

#: Scope-generic aliases: ``pe_width_bits``/``pe_freq_mhz`` resolve to
#: the base architecture's own width/clock field, so one sweep spec can
#: sweep "the PE" across word-ALU bases without naming each field.
PE_ALIASES = ("pe_width_bits", "pe_freq_mhz")

#: Every acceptable knob spelling, for validation errors.
KNOB_NAMES = tuple(
    sorted(GEOMETRY_KNOBS) + sorted(ARCH_KNOBS) + sorted(ENERGY_KNOBS)
    + list(PE_ALIASES)
)


def _resolve_alias(name: str, base: ArchBackend) -> str:
    """Map a ``pe_*`` alias to the base architecture's concrete field."""
    scope = base.device_type.core_scope
    if base.device_type.is_bit_serial:
        raise PimConfigError(
            f"knob {name!r} has no meaning on bit-serial base "
            f"{base.id!r} (its PEs are 1-bit sense-amp lanes); sweep "
            "bitserial_num_registers or a geometry knob instead",
            knob=name, base=base.id,
        )
    if scope == CORE_SCOPE_SUBARRAY_GROUP:
        return (
            "fulcrum_alu_bits" if name == "pe_width_bits"
            else "fulcrum_alu_freq_mhz"
        )
    if scope == CORE_SCOPE_BANK:
        return (
            "bank_alu_bits" if name == "pe_width_bits"
            else "bank_alu_freq_mhz"
        )
    raise PimConfigError(  # pragma: no cover - no such scope today
        f"knob {name!r} is not defined for core scope {scope!r}",
        knob=name, base=base.id,
    )


def normalize_knobs(
    base: ArchBackend, knobs: "typing.Mapping[str, object]"
) -> "tuple[tuple[str, object], ...]":
    """Validate and canonicalize a knob dict against a base backend.

    Returns the canonical knob tuple: aliases resolved, values coerced
    to their declared numeric type, entries sorted by name.  Every value
    must be a finite number; clocks (the float processing-element knobs)
    must be positive and ``alu_op_pj`` non-negative, so no point can
    price to a NaN, infinite, or negative cost, and the integer
    processing-element knobs (register, walker and subarray counts, ALU
    widths) must be at least 1.  Two dicts that differ only in key order
    (or in ``250`` vs ``250.0`` for a float knob) normalize to the
    identical tuple -- the property the content-addressed identity below
    relies on.
    """
    normalized: "dict[str, object]" = {}
    for name, value in knobs.items():
        key = str(name)
        if key in PE_ALIASES:
            key = _resolve_alias(key, base)
        if key in GEOMETRY_KNOBS:
            kind: type = int
        elif key in ARCH_KNOBS:
            kind = ARCH_KNOBS[key]
        elif key in ENERGY_KNOBS:
            kind = ENERGY_KNOBS[key]
        else:
            raise PimConfigError(
                f"unknown architecture knob {name!r}; "
                f"known knobs: {', '.join(KNOB_NAMES)}",
                knob=str(name), known=list(KNOB_NAMES),
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PimConfigError(
                f"knob {name!r} needs a number, got {value!r}",
                knob=str(name), value=repr(value),
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise PimConfigError(
                f"knob {name!r} needs a finite number, got {value!r}",
                knob=str(name), value=repr(value),
            )
        if key in ARCH_KNOBS and kind is float and value <= 0:
            raise PimConfigError(
                f"knob {name!r} is a clock and must be positive, "
                f"got {value!r}",
                knob=str(name), value=repr(value),
            )
        if key in ENERGY_KNOBS and value < 0:
            raise PimConfigError(
                f"knob {name!r} is an energy and must be non-negative, "
                f"got {value!r}",
                knob=str(name), value=repr(value),
            )
        if kind is int and float(value) != int(value):
            raise PimConfigError(
                f"knob {name!r} needs an integer, got {value!r}",
                knob=str(name), value=repr(value),
            )
        if key in ARCH_KNOBS and kind is int and value < 1:
            raise PimConfigError(
                f"knob {name!r} counts or sizes hardware and must be "
                f">= 1, got {value!r}",
                knob=str(name), value=repr(value),
            )
        if key in normalized and normalized[key] != kind(value):
            raise PimConfigError(
                f"knob {name!r} conflicts with an earlier value for "
                f"{key!r} ({normalized[key]!r} vs {value!r})",
                knob=str(name), field=key,
            )
        normalized[key] = kind(value)
    return tuple(sorted(normalized.items()))


#: Per-base memo of geometry-merged configs, shared by every derived
#: variant: the points of one sweep geometry group all splice identical
#: geometry into the same base, so the expensive preset construction
#: runs once per group and each point only pays its own arch/type
#: replace.  Weakly keyed so an unregistered base releases its configs.
_BASE_CONFIG_MEMO: "weakref.WeakKeyDictionary[ArchBackend, dict]" = (
    weakref.WeakKeyDictionary()
)


@functools.lru_cache(maxsize=4096)
def knob_digest(knobs: "tuple[tuple[str, object], ...]") -> str:
    """SHA-256 over the canonical knob tuple (full hex digest).

    Memoized: a sweep reads each point's content id many times
    (``SweepPoint.point_id`` is a property) and the digest of an
    immutable tuple never changes.
    """
    return hashlib.sha256(repr(tuple(knobs)).encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class ParametricDeviceType(ArchDeviceType):
    """Device type of a derived backend: base identity + knob content.

    ``base_id`` and ``knobs`` are dataclass fields on purpose: the
    engine's canonical cache-key material expands dataclasses field by
    field, so a parametric device config keys the cache on the base it
    came from *and* every knob value, with no cache-layer special
    casing.  Instances are frozen/hashable/picklable like any
    :class:`~repro.config.device.ArchDeviceType`, which is what lets
    them ride a ``CellSpec`` into a fresh worker process and be
    re-derived there (:func:`backend_for_device_type`).
    """

    base_id: str = ""
    knobs: "tuple[tuple[str, object], ...]" = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.base_id:
            raise ValueError("a parametric device type needs a base_id")


class ParametricBackend(ArchBackend):
    """A transient backend derived from a base backend plus knobs.

    Everything behavioral delegates to the base backend -- perf-model
    factory, vectorized cost table, cost-memo keying, capability flags
    -- while :meth:`make_config` splices the knob overrides into the
    base's Table II configuration and re-types it with this backend's
    :class:`ParametricDeviceType`.  The base's perf models dispatch on
    declarative device traits (core scope, bit-serial), never on enum
    identity, so they price the derived config exactly as they would a
    hand-edited preset.
    """

    transient = True

    def __init__(
        self,
        base: ArchBackend,
        knobs: "typing.Mapping[str, object]",
        canonical: bool = False,
    ) -> None:
        if getattr(base, "transient", False):
            raise PimConfigError(
                f"cannot derive from transient backend {base.id!r}; "
                "derive from its base instead",
                base=base.id,
            )
        self._base = base
        # ``canonical=True`` asserts ``knobs`` is already the exact
        # tuple :func:`normalize_knobs` returns for this base (the
        # sweep layer normalizes every point once at spec-compile
        # time); re-normalizing a thousand-point sweep's knobs twice
        # is measurable.  Arbitrary callers keep the validating path.
        self._knobs = (
            tuple(knobs)  # type: ignore[arg-type]
            if canonical
            else normalize_knobs(base, knobs)
        )
        self.knob_digest = knob_digest(self._knobs)
        tag = self.knob_digest[:12]
        base_type = base.device_type
        self.id = f"{base.id}@{tag}"
        self.aliases = ()
        self.origin = base.id
        self.device_type = ParametricDeviceType(
            value=f"{base_type.value}@{tag}",
            name=f"{getattr(base_type, 'name', base.id.upper())}@{tag}",
            display_name=f"{base_type.display_name} @{tag[:8]}",
            core_scope=base_type.core_scope,
            bit_serial=base_type.is_bit_serial,
            analog=base_type.is_analog,
            paper_evaluation=False,
            base_id=base.id,
            knobs=self._knobs,
        )
        self.cost_counters = base.cost_counters
        self.stamp_sources = tuple(base.stamp_sources) + ("arch/parametric.py",)
        self.uses_microcode = base.uses_microcode
        self.supports_functional = base.supports_functional
        self._geometry_knobs = {
            k: v for k, v in self._knobs if k in GEOMETRY_KNOBS
        }
        self._arch_knobs = {k: v for k, v in self._knobs if k in ARCH_KNOBS}
        self._energy_knobs = {
            k: v for k, v in self._knobs if k in ENERGY_KNOBS
        }
        # Derived configs are frozen and deterministic per (num_ranks,
        # overrides), so they are memoized: a sweep touches each point's
        # config several times (derive-time validation, plan grouping,
        # the area proxy) and re-splicing it is pure waste.
        self._config_memo: "dict[typing.Hashable, DeviceConfig]" = {}
        # Surface invalid combinations (ALU widths outside the model's
        # validated set, geometry constraint violations) at derive time
        # as coded config errors, not as bare ValueErrors mid-sweep.
        try:
            self.make_config(num_ranks=2)
        except PimConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise PimConfigError(
                f"invalid knobs for base {base.id!r}: {exc}",
                base=base.id, knobs=dict(self._knobs),
            ) from exc

    @property
    def description(self) -> str:  # type: ignore[override]
        """One-line ``repro arch list`` text, formatted on demand.

        A property rather than an ``__init__`` assignment: sweeps derive
        thousands of transient backends whose description is never read,
        so the knob formatting is deferred to the rare display path.
        """
        knob_text = ", ".join(f"{k}={v}" for k, v in self._knobs)
        return f"parametric {self._base.id} variant ({knob_text})"

    @property
    def base(self) -> ArchBackend:
        """The hand-written backend this one was derived from."""
        return self._base

    @property
    def knobs(self) -> "tuple[tuple[str, object], ...]":
        """The canonical (sorted, normalized) knob tuple."""
        return self._knobs

    # -- configuration --------------------------------------------------------

    def make_config(
        self, num_ranks: int = 32, **geometry_overrides: int
    ) -> DeviceConfig:
        memo_key = (num_ranks, tuple(sorted(geometry_overrides.items())))
        cached = self._config_memo.get(memo_key)
        if cached is not None:
            return cached
        # Knob geometry first, caller overrides second: an explicit
        # per-cell override (the Figure 6/12 sweeps) wins over the
        # derived architecture's own geometry.
        merged = dict(self._geometry_knobs)
        merged.update(geometry_overrides)
        base_memo = _BASE_CONFIG_MEMO.setdefault(self._base, {})
        base_key = (num_ranks, tuple(sorted(merged.items())))
        config = base_memo.get(base_key)
        if config is None:
            config = self._base.make_config(num_ranks, **merged)
            if len(base_memo) < 512:
                base_memo[base_key] = config
        arch = config.arch
        if self._arch_knobs:
            arch = dataclasses.replace(arch, **self._arch_knobs)
        config = dataclasses.replace(
            config, device_type=self.device_type, arch=arch
        )
        self._config_memo[memo_key] = config
        return config

    def compute_freq_mhz(self, config: DeviceConfig) -> "float | None":
        return self._base.compute_freq_mhz(config)

    # -- performance ----------------------------------------------------------

    def make_perf_model(self, config: DeviceConfig) -> "PerfModel":
        return self._base.make_perf_model(config)

    def cost_table(self, pipeline, shapes):
        return self._base.cost_table(pipeline, shapes)

    def cost_memo_param(self, args: "CommandArgs") -> typing.Hashable:
        return self._base.cost_memo_param(args)

    # -- energy ---------------------------------------------------------------

    def alu_op_pj(self, power: "PowerConfig") -> float:
        override = self._energy_knobs.get("alu_op_pj")
        if override is not None:
            return float(override)
        return self._base.alu_op_pj(power)

    # -- caching --------------------------------------------------------------

    def stamp_entries(self) -> "tuple[str, ...]":
        """Base stamp sources + this module + the knob-content digest.

        The ``knobs=<digest>`` entry is a *pseudo-entry*: it names no
        file, and ``repro.engine.version._digest_entries`` folds the
        string itself into the hash.  Distinct knob dicts therefore get
        distinct model-version stamps (and distinct vector-cell keys,
        which embed the stamp), while an edit to the base's perf model
        or to this module still invalidates every derived point.
        """
        return (
            self._base.stamp_entries()
            + ("arch/parametric.py", f"knobs={self.knob_digest}")
        )


def derive_backend(
    base: "ArchBackend | str", knobs: "typing.Mapping[str, object]"
) -> ParametricBackend:
    """Derive a transient backend from a base backend (or its name)."""
    from repro.arch.registry import resolve_backend

    backend = resolve_backend(base) if isinstance(base, str) else base
    return ParametricBackend(backend, knobs)


def backend_for_device_type(
    device_type: ParametricDeviceType,
) -> ParametricBackend:
    """Re-derive the backend a :class:`ParametricDeviceType` describes.

    This is the worker-side half of the self-healing contract: a cell
    spec carrying a parametric device type lands in a process where the
    sweep never registered anything, ``arch_for`` misses, and this
    function rebuilds the identical backend from the type's own
    ``base_id`` + ``knobs`` content.
    """
    backend = derive_backend(device_type.base_id, dict(device_type.knobs))
    if backend.device_type != device_type:  # pragma: no cover - defensive
        raise PimConfigError(
            f"device type {device_type.value!r} does not round-trip "
            f"through derivation (got {backend.device_type.value!r}); "
            "was it built by a different repro version?",
            device_type=device_type.value,
        )
    return backend
