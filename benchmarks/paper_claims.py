"""Output helper for the paper-claim checks.

Kept out of ``conftest.py`` under a name no other test tree uses:
``from conftest import ...`` resolves to whichever ``conftest`` module
pytest imported first, so in one session over ``benchmarks`` and
``perfbench/tests`` it named the wrong file.
"""

from __future__ import annotations


def emit(title: str, body: str) -> None:
    """Print one regenerated table or series under a title banner."""
    print(f"\n=== {title} ===")
    print(body)
