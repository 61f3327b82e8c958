"""Table II: configuration of the evaluated architectures."""

from paper_claims import emit

from repro.experiments import format_table2


def test_table2():
    text = format_table2()
    emit("Table II: Evaluated Architectures", text)
    assert "460.8" in text  # CPU bandwidth
    assert "1935.0" in text  # GPU bandwidth
    assert "131072 PIM cores" in text  # bit-serial at 32 ranks
