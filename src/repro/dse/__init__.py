"""Design-space exploration over parametric PIM architectures.

The paper's Table II fixes one design point per architecture class;
this package treats those points as the *origins* of a design space.
A :class:`~repro.dse.spec.SweepSpec` declares knob axes over any
registered base backend, :func:`~repro.dse.sweep.run_sweep` evaluates
the compiled grid through the existing engine (vectorized pricing,
disk cache, process fan-out -- parametric cache keys are sound by
construction), and :mod:`repro.dse.report` extracts the Pareto
frontier over latency, energy, and an area proxy plus the
"which architecture class wins which benchmark class" tables.

Flagship command::

    repro dse run --spec sweep.json --jobs 8 --report frontier.json

See ``docs/DSE.md`` for the sweep-spec schema and the cache-key rules.
"""

from repro.dse.pareto import OBJECTIVES, ParetoPoint, dominates, pareto_frontier
from repro.dse.report import (
    REPORT_SCHEMA,
    benchmark_classes,
    benchmark_winners,
    class_winners,
    format_sweep,
    render_json,
    sweep_payload,
)
from repro.dse.spec import (
    DEFAULT_MAX_POINTS,
    MAX_POINTS_ENV,
    SweepPoint,
    SweepSpec,
    max_points,
)
from repro.dse.sweep import (
    PointMetrics,
    PointOutcome,
    SweepResult,
    area_proxy,
    pe_width_bits,
    run_sweep,
)

__all__ = [
    "OBJECTIVES",
    "ParetoPoint",
    "dominates",
    "pareto_frontier",
    "REPORT_SCHEMA",
    "benchmark_classes",
    "benchmark_winners",
    "class_winners",
    "format_sweep",
    "render_json",
    "sweep_payload",
    "DEFAULT_MAX_POINTS",
    "MAX_POINTS_ENV",
    "SweepPoint",
    "SweepSpec",
    "max_points",
    "PointMetrics",
    "PointOutcome",
    "SweepResult",
    "area_proxy",
    "pe_width_bits",
    "run_sweep",
]
