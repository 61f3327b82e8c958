"""The JSON run report: one archivable artifact per invocation.

``repro run/suite/figure/profile --report out.json`` bundles everything
needed to attribute a run's numbers after the fact:

* an **environment stamp** (interpreter, platform, CPU count, relevant
  ``REPRO_*`` knobs) so two reports are comparable,
* the merged **metrics snapshot** (sorted-name order, the same records
  the OpenMetrics exposition renders), and
* the per-cell **telemetry table** (:mod:`repro.obs.telemetry`), the
  spec-ordered resource accounting that survived the worker processes.

The schema is versioned; consumers should ignore unknown keys.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import typing

from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.telemetry import CellTelemetry, telemetry_log

#: Version of the report payload layout.
REPORT_SCHEMA = 1

#: Environment variables worth stamping into a report (set ones only).
_ENV_KEYS = (
    "REPRO_JOBS",
    "REPRO_CACHE_DIR",
    "REPRO_MAX_RETRIES",
    "REPRO_CELL_TIMEOUT",
    "REPRO_VECTOR_CHECK",
)


def environment_stamp() -> "dict[str, object]":
    """Where and how this process ran (the report's provenance block)."""
    stamp: "dict[str, object]" = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
        "argv": list(sys.argv),
    }
    env = {key: os.environ[key] for key in _ENV_KEYS if key in os.environ}
    if env:
        stamp["env"] = env
    return stamp


def build_run_report(
    registry: "MetricsRegistry | None" = None,
    cells: "typing.Sequence[CellTelemetry] | None" = None,
    extra: "dict[str, object] | None" = None,
) -> "dict[str, object]":
    """Assemble the report payload (defaults to the process-wide state)."""
    registry = registry if registry is not None else global_registry()
    cells = cells if cells is not None else telemetry_log()
    report: "dict[str, object]" = {
        "schema": REPORT_SCHEMA,
        "generated_unix_s": round(time.time(), 3),
        "environment": environment_stamp(),
        "metrics": registry.snapshot(),
        "cells": [cell.to_dict() for cell in cells],
    }
    if extra:
        report["extra"] = dict(extra)
    return report


def write_run_report(
    path: str,
    registry: "MetricsRegistry | None" = None,
    cells: "typing.Sequence[CellTelemetry] | None" = None,
    extra: "dict[str, object] | None" = None,
) -> str:
    """Build and write a report; returns the path written."""
    report = build_run_report(registry=registry, cells=cells, extra=extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path
