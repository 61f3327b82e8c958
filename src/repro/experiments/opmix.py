"""Figure 8: PIM operation frequency distribution per benchmark.

For each benchmark, the percentage of issued PIM operations falling into
each Figure 8 category (add, sub, mul, bit shift, max, min, or, and, xor,
less, eq, reduction, broadcast, popcount, abs), extracted from the
command trace of one run.  The op mix is architecture-independent (the
same trace runs everywhere), so one device's run suffices.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.features import CATEGORY_ORDER, op_mix_fractions
from repro.core.commands import OpCategory
from repro.experiments.runner import SuiteResults, run_suite


@dataclasses.dataclass(frozen=True)
class OpMixRow:
    """One benchmark's Figure 8 bar.

    A *failed* row marks a benchmark whose bit-serial cell produced no
    result; it has no percentages and renders as a gap.
    """

    benchmark: str
    percentages: "dict[OpCategory, float]"
    failed: bool = False

    def dominant(self) -> OpCategory:
        return max(self.percentages, key=self.percentages.get)


def opmix_table(
    suite: "SuiteResults | None" = None, jobs: "int | None" = None,
) -> "list[OpMixRow]":
    suite = suite or run_suite(num_ranks=32, paper_scale=True, jobs=jobs)
    rows = []
    for key in suite.benchmark_keys():
        if not suite.has_result(key, "bitserial"):
            rows.append(OpMixRow(
                benchmark=suite.benchmarks[key].name, percentages={},
                failed=True,
            ))
            continue
        result = suite.result(key, "bitserial")
        fractions = op_mix_fractions(result)
        rows.append(OpMixRow(
            benchmark=result.benchmark,
            percentages={
                cat: 100.0 * frac
                for cat, frac in zip(CATEGORY_ORDER, fractions)
            },
        ))
    return rows


def format_opmix_table(rows: "list[OpMixRow]") -> str:
    header = f"{'benchmark':<22s}" + "".join(
        f" {cat.value:>9s}" for cat in CATEGORY_ORDER
    )
    lines = [header]
    for row in rows:
        if row.failed:
            cells = "".join(f" {'--':>9s}" for _ in CATEGORY_ORDER)
            lines.append(f"{row.benchmark:<22s}{cells}  (failed)")
            continue
        cells = "".join(
            f" {row.percentages[cat]:>9.1f}" for cat in CATEGORY_ORDER
        )
        lines.append(f"{row.benchmark:<22s}{cells}")
    return "\n".join(lines)
