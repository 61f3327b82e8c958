"""Table I: the PIMbench suite inventory."""

from paper_claims import emit

from repro.experiments import format_table1


def test_table1():
    text = format_table1()
    emit("Table I: PIMbench Suite", text)
    assert text.count("\n") >= 18  # header + 18 benchmarks
    assert "1,073,741,824 key-value pairs" in text
