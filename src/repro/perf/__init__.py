"""Per-architecture performance models.

:func:`make_perf_model` dispatches through the architecture registry
(:mod:`repro.arch`), so a plug-in backend's model is found exactly like
a built-in one.  An unregistered device type raises a
``PimStatus``-coded :class:`~repro.core.errors.PimConfigError` naming
the type -- never a silent default model.

The per-architecture models load on first use (PEP 562 ``__getattr__``):
each backend imports its own model in ``make_perf_model``, so importing
:mod:`repro.perf.base` does not pull in the microcode tables or numpy.
"""

from repro.config.device import DeviceConfig
from repro.perf.base import CmdCost, CommandArgs, PerfModel
from repro.perf.datamovement import DataMovementModel


def make_perf_model(config: DeviceConfig) -> PerfModel:
    """Instantiate the performance model matching a device configuration."""
    from repro.arch.registry import arch_for

    return arch_for(config).make_perf_model(config)


__all__ = [
    "AnalogBitSerialPerfModel",
    "BankLevelPerfModel",
    "BitSerialPerfModel",
    "CmdCost",
    "CommandArgs",
    "DataMovementModel",
    "FulcrumPerfModel",
    "PerfModel",
    "make_perf_model",
]

#: Lazily loaded model classes -> defining module.
_MODELS = {
    "AnalogBitSerialPerfModel": "repro.perf.analog",
    "BankLevelPerfModel": "repro.perf.banklevel",
    "BitSerialPerfModel": "repro.perf.bitserial",
    "FulcrumPerfModel": "repro.perf.fulcrum",
}


def __getattr__(name: str):
    module = _MODELS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
