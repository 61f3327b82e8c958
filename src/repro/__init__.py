"""repro: a Python reproduction of PIMeval + PIMbench (IISWC 2024).

Public surface:

* :mod:`repro.api` -- the PIM API (Listing 1 style) for writing PIM programs,
* :mod:`repro.config` -- device/DRAM/power configuration and Table II presets,
* :mod:`repro.core` -- the device simulator (objects, commands, stats),
* :mod:`repro.bench` -- the PIMbench suite,
* :mod:`repro.baselines` -- the CPU/GPU roofline baselines,
* :mod:`repro.experiments` -- drivers regenerating every figure and table.
"""

from repro.config.device import (
    DeviceConfig,
    PimAllocType,
    PimDataType,
    PimDeviceType,
)

__version__ = "1.0.0"

__all__ = [
    "DeviceConfig",
    "PimAllocType",
    "PimDataType",
    "PimDeviceType",
    "PimDevice",
    "__version__",
]


def __getattr__(name: str):
    """Load the device simulator (and numpy) on first use (PEP 562).

    A warm ``figure``/``suite``/``tables`` renders cached cells without
    ever building a device, so ``import repro`` must not pay for it.
    """
    if name == "PimDevice":
        from repro.core.device import PimDevice

        return PimDevice
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
