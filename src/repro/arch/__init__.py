"""repro.arch: the registry that makes PIM architectures pluggable.

One :class:`~repro.arch.base.ArchBackend` object per architecture
bundles its device type, Table II preset, perf-model factory, energy
pricing, capabilities, and cache-stamp sources; every layer that used
to hardcode ``if device_type is ...`` now resolves through
:func:`arch_for` / :func:`resolve_backend`.  Adding an architecture is
one module plus one registration line below -- see
``docs/ARCHITECTURES.md`` for the walkthrough, and
:mod:`repro.arch.ddr5` / :mod:`repro.arch.upmem` for working examples.

Quick start::

    from repro.arch import iter_backends, resolve_backend

    for backend in iter_backends():
        print(backend.id, backend.display_name)
    config = resolve_backend("fulcrum").make_config(num_ranks=32)
"""

from repro.arch.base import COST_COUNTERS, ArchBackend, DeviceTypeLike
from repro.arch.builtin import (
    AnalogBitSerialBackend,
    BankLevelBackend,
    BitSerialBackend,
    FulcrumBackend,
    register_builtin_backends,
)
from repro.arch.parametric import (
    ParametricBackend,
    ParametricDeviceType,
    derive_backend,
)
from repro.arch.registry import (
    arch_for,
    backend_names,
    default_backend,
    device_type_for,
    iter_backends,
    paper_backends,
    register_backend,
    resolve_backend,
    suite_device_order,
    unregister_backend,
)

# Registration order is display/figure order: the paper's three digital
# variants first, then the analog extension, then the plug-in variants.
register_builtin_backends()

# Plug-in variants: each is one self-contained module and one line here.
from repro.arch.ddr5 import Ddr5BankBackend  # noqa: E402

register_backend(Ddr5BankBackend())

from repro.arch.upmem import UpmemBackend  # noqa: E402

register_backend(UpmemBackend())


__all__ = [
    "ArchBackend",
    "AnalogBitSerialBackend",
    "BankLevelBackend",
    "BitSerialBackend",
    "COST_COUNTERS",
    "Ddr5BankBackend",
    "DeviceTypeLike",
    "FulcrumBackend",
    "ParametricBackend",
    "ParametricDeviceType",
    "UpmemBackend",
    "arch_for",
    "backend_names",
    "default_backend",
    "derive_backend",
    "device_type_for",
    "iter_backends",
    "paper_backends",
    "register_backend",
    "register_builtin_backends",
    "resolve_backend",
    "suite_device_order",
    "unregister_backend",
]
