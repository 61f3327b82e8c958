"""Shared fixtures for the paper-claim checks.

Each ``test_fig*`` / ``test_table*`` module regenerates one table or
figure of the paper: it calls the corresponding experiment driver once,
prints the regenerated rows/series, and asserts the qualitative shape the
paper reports.  Run with ``pytest benchmarks/ -s`` to see the tables.
Timing is not measured here; ``perfbench/run.py`` is the performance
ledger (docs/PERFORMANCE.md §5).
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Point the persistent result cache at a per-session temp dir.

    A claim must be checked against results this checkout computed, not
    against entries another run left in ``~/.cache/repro``; the checks
    must not litter that directory either.  Within the session the
    figures still share warm entries, as they do for a user.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def paper_suite():
    """The 32-rank paper-scale suite shared by every figure."""
    from repro.experiments import run_suite

    return run_suite(num_ranks=32, paper_scale=True)
