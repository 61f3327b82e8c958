"""Figure 8: PIM operation frequency distribution."""

from paper_claims import emit

from repro.core.commands import OpCategory
from repro.experiments import format_opmix_table, opmix_table


def test_fig8_opmix(paper_suite):
    rows = opmix_table(paper_suite)
    emit("Figure 8: PIM Operation Mix (%)", format_opmix_table(rows))

    mix = {row.benchmark: row for row in rows}
    assert mix["Vector Addition"].dominant() is OpCategory.ADD
    assert mix["AXPY"].dominant() is OpCategory.MUL  # scaled-add
    assert mix["AES-Encryption"].percentages[OpCategory.XOR] > 30
    assert mix["Histogram"].percentages[OpCategory.EQ] > 30
    assert mix["Histogram"].percentages[OpCategory.REDUCTION] > 30
    assert mix["Linear Regression"].percentages[OpCategory.REDUCTION] > 30
    assert mix["Brightness"].percentages[OpCategory.MIN] > 30
    assert mix["Triangle Count"].percentages[OpCategory.POPCOUNT] > 10
    assert mix["Image Down Sampling"].percentages[OpCategory.ADD] > 30
    assert mix["Image Down Sampling"].percentages[OpCategory.BIT_SHIFT] > 10
