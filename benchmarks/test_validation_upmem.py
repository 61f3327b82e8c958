"""Section V-E: performance-model validation against UPMEM."""

from paper_claims import emit

from repro.upmem import format_validation_table, upmem_validation_table


def test_upmem_validation():
    rows = upmem_validation_table()
    emit("Section V-E: Toy UPMEM Model vs Hardware", format_validation_table(rows))

    by_kernel = {row.kernel: row for row in rows}
    # The paper observed 23% / 35% slowdowns, attributed to tasklets.
    assert abs(by_kernel["Vector Add"].slowdown - 0.23) < 0.02
    assert abs(by_kernel["GEMV"].slowdown - 0.35) < 0.02
