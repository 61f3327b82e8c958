"""repro.faults: seeded, reproducible fault injection for the simulator.

Fault *models* (:mod:`repro.faults.models`) describe the defect; the
*injector* (:mod:`repro.faults.injector`) applies a plan's device
faults to a live :class:`~repro.core.device.PimDevice`; the *campaign*
(:mod:`repro.faults.campaign`) sweeps fault rates across benchmarks and
reports which ones detect the corruption through functional
verification and which are silently masked.

Quick start::

    from repro.faults import FaultPlan, StuckBitFault, FaultCampaign

    plan = FaultPlan(seed=7, faults=(StuckBitFault(bit=3, value=1),))
    device = PimDevice(config, functional=True, faults=plan)

    report = FaultCampaign(benchmarks=("vecadd", "axpy", "gemv")).run()
    print(report.format())

See ``docs/RESILIENCE.md`` for fault-model semantics and seeding rules.
"""

from repro.faults.models import (
    DEVICE_FAULTS,
    ENGINE_FAULTS,
    BitFlipFault,
    DroppedCommandFault,
    FaultModel,
    FaultPlan,
    StuckBitFault,
    WorkerCrashFault,
    WorkerExceptionFault,
    WorkerHangFault,
)

__all__ = [
    "DEVICE_FAULTS",
    "ENGINE_FAULTS",
    "BitFlipFault",
    "CampaignReport",
    "DroppedCommandFault",
    "FaultCampaign",
    "FaultInjector",
    "FaultModel",
    "FaultPlan",
    "StuckBitFault",
    "WorkerCrashFault",
    "WorkerExceptionFault",
    "WorkerHangFault",
]

_CAMPAIGN_NAMES = ("FaultCampaign", "CampaignReport", "CampaignCell")


def __getattr__(name: str):
    # The campaign imports repro.engine, which imports this package for
    # the fault models; loading it lazily keeps the import acyclic.
    if name in _CAMPAIGN_NAMES:
        from repro.faults import campaign

        return getattr(campaign, name)
    # The injector works on numpy arrays; a cell loads it only when its
    # plan carries device faults.
    if name == "FaultInjector":
        from repro.faults.injector import FaultInjector

        return FaultInjector
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
