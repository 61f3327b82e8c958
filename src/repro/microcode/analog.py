"""Analog bit-serial (TRA) execution: Ambit/SIMDRAM-style compute.

Section IV recounts why the paper models a *digital* bit-serial device:
analog proposals (Ambit [62], SIMDRAM [26]) compute with **triple row
activation** (TRA), which implements only the MAJority function, needs
costly dual-contact cells (DCC) for NOT, and restricts TRA to a small set
of designated compute rows that operands must first be copied into.
PIMeval "is already being extended to support various forms of analog
bit-serial PIM" (Section IX); this module provides that extension:

* a functional TRA-level simulator (rows only -- no lane registers) with
  the AAP row-copy, TRA, and DCC-NOT primitives, used to validate the
  MAJ-based logic constructions, and
* a translator that expands any digital DRAM-AP microprogram into
  analog primitive counts, so the whole PIM API is costed on the analog
  substrate without rewriting the program library.

Construction identities (validated by tests):

* ``AND(a, b)  = MAJ(a, b, 0)``
* ``OR(a, b)   = MAJ(a, b, 1)``
* ``XOR(a, b)  = OR(a, b) AND NOT(AND(a, b))``
* full adder: ``Cout = MAJ(A, B, Cin)`` and
  ``S = MAJ(NOT Cout, MAJ(A, B, NOT Cin), Cin)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.microcode.assembler import MicroProgram
from repro.microcode.isa import KINDS, MicroOpKind


@dataclasses.dataclass(frozen=True)
class AnalogTiming:
    """Latencies of the analog primitives, in nanoseconds.

    AAP (activate-activate-precharge) copies one row to another through
    the row buffer; TRA activates three rows simultaneously, leaving the
    majority value in all three.  Values follow the Ambit-style costs of
    roughly two and one-and-a-half row cycles respectively.
    """

    aap_ns: float = 80.0
    tra_ns: float = 49.0

    def __post_init__(self) -> None:
        if self.aap_ns <= 0 or self.tra_ns <= 0:
            raise ValueError("analog primitive latencies must be positive")


@dataclasses.dataclass(frozen=True)
class AnalogCost:
    """Primitive counts of an analog microprogram."""

    num_aaps: int = 0
    num_tras: int = 0
    num_popcount_rows: int = 0

    def __add__(self, other: "AnalogCost") -> "AnalogCost":
        return AnalogCost(
            num_aaps=self.num_aaps + other.num_aaps,
            num_tras=self.num_tras + other.num_tras,
            num_popcount_rows=self.num_popcount_rows + other.num_popcount_rows,
        )

    def scaled(self, factor: int) -> "AnalogCost":
        return AnalogCost(
            num_aaps=self.num_aaps * factor,
            num_tras=self.num_tras * factor,
            num_popcount_rows=self.num_popcount_rows * factor,
        )

    def latency_ns(self, timing: "AnalogTiming | None" = None,
                   popcount_ns: float = 0.0) -> float:
        timing = timing or AnalogTiming()
        return (
            self.num_aaps * timing.aap_ns
            + self.num_tras * timing.tra_ns
            + self.num_popcount_rows * popcount_ns
        )


#: Expansion of each digital micro-op into analog primitives.
#:
#: Row reads/writes become one AAP (the "register" bit rows of the digital
#: device map onto reserved compute rows).  Two-input gates cost staging
#: copies of both operands plus the constant row, one TRA, and a result
#: copy.  XOR/XNOR compose from AND/OR/NOT; SEL from two ANDs, a NOT, and
#: an OR.  NOT routes through a dual-contact row (copy in, copy out).
_EXPANSIONS = {
    MicroOpKind.READ_ROW: AnalogCost(num_aaps=1),
    MicroOpKind.WRITE_ROW: AnalogCost(num_aaps=1),
    MicroOpKind.SET: AnalogCost(num_aaps=1),  # copy from a constant row
    MicroOpKind.MOVE: AnalogCost(num_aaps=1),
    MicroOpKind.NOT: AnalogCost(num_aaps=2),  # through the DCC row
    MicroOpKind.AND: AnalogCost(num_aaps=4, num_tras=1),
    MicroOpKind.OR: AnalogCost(num_aaps=4, num_tras=1),
    MicroOpKind.XOR: AnalogCost(num_aaps=13, num_tras=3),
    MicroOpKind.XNOR: AnalogCost(num_aaps=15, num_tras=3),
    MicroOpKind.SEL: AnalogCost(num_aaps=14, num_tras=3),
    MicroOpKind.POPCOUNT_ROW: AnalogCost(num_popcount_rows=1),
}


#: Translation of every census priced so far (see :func:`translate_program`).
_TRANSLATIONS: "dict[tuple[int, ...], AnalogCost]" = {}


def expand_census(census: "tuple[int, ...]") -> AnalogCost:
    """Analog primitive counts of a census: Σ count × expansion of its kind."""
    return sum(
        (_EXPANSIONS[kind].scaled(count)
         for kind, count in zip(KINDS, census) if count),
        AnalogCost(),
    )


def translate_program(program: MicroProgram) -> AnalogCost:
    """Expand a digital microprogram into analog primitive counts.

    The translation is a pure function of the program's census, so each
    distinct census is expanded once per process and then read back.
    """
    census = program.census
    cost = _TRANSLATIONS.get(census)
    if cost is None:
        cost = _TRANSLATIONS[census] = expand_census(census)
    return cost


class TraSimulator:
    """Functional simulator of the analog substrate (rows only).

    Rows are boolean lanes; a handful of reserved rows exist: two
    constants (all-0, all-1), one dual-contact pair for NOT, and the
    compute rows TRA operates on.  Used to validate the MAJ-based
    constructions against digital semantics.
    """

    def __init__(self, num_rows: int, num_lanes: int) -> None:
        if num_rows <= 0 or num_lanes <= 0:
            raise ValueError("num_rows and num_lanes must be positive")
        self.rows = np.zeros((num_rows, num_lanes), dtype=bool)
        self.zero_row = np.zeros(num_lanes, dtype=bool)
        self.one_row = np.ones(num_lanes, dtype=bool)
        self.num_aaps = 0
        self.num_tras = 0

    def aap(self, src: int, dst: int) -> None:
        """Row-to-row copy through the row buffer."""
        self.rows[dst] = self.rows[src].copy()
        self.num_aaps += 1

    def aap_constant(self, value: int, dst: int) -> None:
        self.rows[dst] = (self.one_row if value else self.zero_row).copy()
        self.num_aaps += 1

    def tra(self, row_a: int, row_b: int, row_c: int) -> None:
        """Triple row activation: all three rows end up holding MAJ."""
        majority = (
            self.rows[row_a].astype(np.int8)
            + self.rows[row_b]
            + self.rows[row_c]
        ) >= 2
        self.rows[row_a] = majority.copy()
        self.rows[row_b] = majority.copy()
        self.rows[row_c] = majority.copy()
        self.num_tras += 1

    def dcc_not(self, src: int, dst: int) -> None:
        """NOT via the dual-contact cell row (two row cycles)."""
        self.rows[dst] = ~self.rows[src]
        self.num_aaps += 2

    # -- MAJ-based logic constructions (operands in rows a, b; scratch
    # rows t0..t2; result left in t0) --------------------------------------

    def and_rows(self, a: int, b: int, t0: int, t1: int, t2: int) -> None:
        self.aap(a, t0)
        self.aap(b, t1)
        self.aap_constant(0, t2)
        self.tra(t0, t1, t2)

    def or_rows(self, a: int, b: int, t0: int, t1: int, t2: int) -> None:
        self.aap(a, t0)
        self.aap(b, t1)
        self.aap_constant(1, t2)
        self.tra(t0, t1, t2)

    def full_adder_rows(
        self, a: int, b: int, carry: int, scratch: "tuple[int, ...]"
    ) -> None:
        """Computes sum into scratch[0] and the new carry into ``carry``.

        Uses the MAJ identities of the module docstring; needs six scratch
        rows.
        """
        s0, s1, s2, s3, s4, s5 = scratch
        # Cout = MAJ(a, b, cin): stage copies so the operands survive.
        self.aap(a, s0)
        self.aap(b, s1)
        self.aap(carry, s2)
        self.tra(s0, s1, s2)  # s0 holds Cout
        # MAJ(a, b, NOT cin)
        self.aap(a, s1)
        self.aap(b, s3)
        self.dcc_not(carry, s4)
        self.tra(s1, s3, s4)  # s1 holds MAJ(a, b, ~cin)
        # S = MAJ(NOT Cout, MAJ(a,b,~cin), cin)
        self.dcc_not(s0, s5)
        self.aap(carry, s3)
        self.tra(s5, s1, s3)  # s5 (and s1, s3) hold the sum
        # Publish results: carry first (s0 still holds Cout), then the sum.
        self.aap(s0, carry)
        self.aap(s5, scratch[0])
