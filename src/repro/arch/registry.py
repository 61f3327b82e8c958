"""The architecture registry: name/device-type -> backend resolution.

Every layer that used to switch on ``PimDeviceType`` now funnels through
the two lookups here: :func:`arch_for` (from a config or device-type
object, e.g. the perf-model factory and the energy pricer) and
:func:`resolve_backend` (from a user-supplied name, e.g. the CLI).
Both raise :class:`~repro.core.errors.PimConfigError` -- the
``PimStatus``-coded error the resilience layer already classifies --
carrying the offending name and the valid choices in their context.

Two orderings coexist on purpose.  :func:`iter_backends` and
:func:`backend_names` return backends sorted by id, so ``repro arch
list`` is byte-stable no matter what order modules registered in.
:func:`paper_backends`, :func:`suite_device_order`, and
:func:`default_backend` keep
*registration* order, which :mod:`repro.arch.builtin` arranges to be the
paper's figure order (bit-serial, Fulcrum, bank-level) -- suite tables
and figures must not reorder when a plug-in registers an
``analog``-sorting backend.

Derived backends (:mod:`repro.arch.parametric`) are values, not
registrations: :func:`arch_for` resolves a
:class:`~repro.arch.parametric.ParametricDeviceType` that misses the
registry through :func:`~repro.arch.parametric.backend_for_device_type`
(the live backend of an equal type, else a fresh derivation) and leaves
the registry untouched, so sweeps, engine workers and a long-lived
``repro serve`` process never grow it.  A caller may still register a
derived backend by hand; ``repro arch list`` marks it transient.
"""

from __future__ import annotations

from repro.arch.base import ArchBackend, DeviceTypeLike
from repro.config.device import DeviceConfig
from repro.core.errors import PimConfigError

#: Registered backends by canonical id, in registration order.
_BACKENDS: "dict[str, ArchBackend]" = {}
#: Same backends keyed by every name (id + aliases), lowercased.
_BY_NAME: "dict[str, ArchBackend]" = {}
#: Same backends keyed by their device-type object.
_BY_DEVICE_TYPE: "dict[DeviceTypeLike, ArchBackend]" = {}


def register_backend(backend: ArchBackend, replace: bool = False) -> ArchBackend:
    """Add a backend to the registry; returns it (decorator-friendly).

    ``replace=True`` swaps an existing registration (tests use it);
    otherwise an id, alias, or device-type collision raises.
    """
    if not backend.id:
        raise PimConfigError("a backend needs a non-empty id")
    if not replace:
        for name in backend.names():
            if name.lower() in _BY_NAME:
                raise PimConfigError(
                    f"backend name {name!r} is already registered",
                    name=name, registered=sorted(_BACKENDS),
                )
        if backend.device_type in _BY_DEVICE_TYPE:
            raise PimConfigError(
                f"device type {backend.device_type} already has a backend",
                device_type=getattr(backend.device_type, "value", None),
            )
    _BACKENDS[backend.id] = backend
    for name in backend.names():
        _BY_NAME[name.lower()] = backend
    _BY_DEVICE_TYPE[backend.device_type] = backend
    return backend


def unregister_backend(backend_id: str) -> None:
    """Remove a backend (primarily for test isolation)."""
    backend = _BACKENDS.pop(backend_id, None)
    if backend is None:
        return
    for name in backend.names():
        _BY_NAME.pop(name.lower(), None)
    _BY_DEVICE_TYPE.pop(backend.device_type, None)


def iter_backends() -> "tuple[ArchBackend, ...]":
    """All registered backends, sorted by id (byte-stable listings)."""
    return tuple(sorted(_BACKENDS.values(), key=lambda b: b.id))


def paper_backends() -> "tuple[ArchBackend, ...]":
    """The backends evaluated in the paper's figures, in figure order."""
    return tuple(b for b in _BACKENDS.values() if b.in_paper_evaluation)


def backend_names(include_aliases: bool = False) -> "list[str]":
    """Valid ``--target`` spellings (canonical ids, optionally aliases)."""
    if include_aliases:
        return sorted(_BY_NAME)
    return sorted(_BACKENDS)


def resolve_backend(name: str) -> ArchBackend:
    """Look a backend up by id or alias (case-insensitive)."""
    backend = _BY_NAME.get(str(name).lower())
    if backend is None:
        raise PimConfigError(
            f"unknown architecture {name!r}; "
            f"valid names: {', '.join(sorted(_BY_NAME))}",
            name=str(name), valid=sorted(_BY_NAME),
        )
    return backend


def arch_for(target: "DeviceConfig | DeviceTypeLike | str") -> ArchBackend:
    """The backend behind a device config, device type, or name.

    This is the single dispatch point the perf/energy/engine layers
    resolve through.  A parametric device type carries its own
    derivation recipe, so it resolves without being registered; any
    other unregistered device type is a configuration error, never a
    silent default.
    """
    if isinstance(target, str):
        return resolve_backend(target)
    device_type = (
        target.device_type if isinstance(target, DeviceConfig) else target
    )
    try:
        backend = _BY_DEVICE_TYPE.get(device_type)
    except TypeError:  # unhashable stand-in
        backend = None
    if backend is None:
        from repro.arch.parametric import (
            ParametricDeviceType,
            backend_for_device_type,
        )

        if isinstance(device_type, ParametricDeviceType):
            return backend_for_device_type(device_type)
        raise PimConfigError(
            f"no architecture backend registered for device type "
            f"{getattr(device_type, 'value', device_type)!r}; "
            f"registered: {', '.join(_BACKENDS)}",
            device_type=str(getattr(device_type, "value", device_type)),
            registered=list(_BACKENDS),
        )
    return backend


def device_type_for(name: str) -> DeviceTypeLike:
    """Shorthand: the device-type object behind a backend name."""
    return resolve_backend(name).device_type


def default_backend() -> ArchBackend:
    """The first *registered* backend (the artifact's default target).

    Deliberately registration order, not the sorted listing order: the
    builtins register bit-serial first, and the default target must not
    drift when a caller registers an alphabetically-earlier backend.
    """
    if not _BACKENDS:
        raise PimConfigError("no architecture backends are registered")
    return next(iter(_BACKENDS.values()))


def suite_device_order() -> "tuple[DeviceTypeLike, ...]":
    """Figure order of the paper-evaluated device types."""
    return tuple(b.device_type for b in paper_backends())
