"""Builder for bit-serial microprograms.

A :class:`MicroProgram` is an ordered micro-op list plus metadata about the
vertically-laid-out operands it touches.  Programs are built against
canonical row bases (operand k's bit i lives at row ``base_k + i``); the
device maps these onto physical rows, which does not change cost.
"""

from __future__ import annotations

import dataclasses

from repro.microcode.isa import (
    MicroOp,
    MicroOpKind,
    MicroProgramCost,
    census_cost,
    census_of,
)


@dataclasses.dataclass(frozen=True)
class Operand:
    """A vertical operand: ``bits`` consecutive rows starting at ``base``."""

    base: int
    bits: int
    signed: bool = True

    def row(self, bit: int) -> int:
        """Physical row of bit ``bit`` (0 = LSB)."""
        if not 0 <= bit < self.bits:
            raise IndexError(f"bit {bit} out of range for {self.bits}-bit operand")
        return self.base + bit

    @property
    def msb_row(self) -> int:
        return self.base + self.bits - 1


@dataclasses.dataclass
class MicroProgram:
    """A named sequence of bit-serial micro-ops.

    Every cost model prices a program from its :attr:`census`, the count
    of its ops by kind, which :meth:`Assembler.done` takes once when the
    program is finished.  Programs are assembled once (and memoized by
    :func:`repro.microcode.programs.get_program`) but costed on every
    cost-memo miss, so neither the tally (:attr:`cost`) nor the analog
    translation walks the op list again.  Code that mutates ``ops``
    directly must reset ``_census`` and ``_cost`` to ``None`` itself.
    """

    name: str
    ops: "list[MicroOp]" = dataclasses.field(default_factory=list)
    num_popcount_results: int = 0
    _census: "tuple[int, ...] | None" = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _cost: "MicroProgramCost | None" = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def census(self) -> "tuple[int, ...]":
        """Op count per kind, in :data:`repro.microcode.isa.KINDS` order."""
        if self._census is None:
            self._census = census_of(self.ops)
        return self._census

    @property
    def cost(self) -> MicroProgramCost:
        if self._cost is None:
            self._cost = census_cost(self.census)
        return self._cost

    def __len__(self) -> int:
        return len(self.ops)


class Assembler:
    """Fluent emitter of micro-ops into a :class:`MicroProgram`."""

    def __init__(self, name: str) -> None:
        self.program = MicroProgram(name=name)
        self._emit = self.program.ops.append

    # -- row ops ---------------------------------------------------------

    def read(self, dst: str, row: int) -> "Assembler":
        """Read a cell row into a lane register."""
        self._emit(MicroOp(MicroOpKind.READ_ROW, dst=dst, row=row))
        return self

    def write(self, src: str, row: int) -> "Assembler":
        """Write a lane register back to a cell row."""
        self._emit(MicroOp(MicroOpKind.WRITE_ROW, srcs=(src,), row=row))
        return self

    # -- logic ops --------------------------------------------------------

    def set(self, dst: str, value: int) -> "Assembler":
        self._emit(MicroOp(MicroOpKind.SET, dst=dst, value=value))
        return self

    def move(self, dst: str, src: str) -> "Assembler":
        self._emit(MicroOp(MicroOpKind.MOVE, dst=dst, srcs=(src,)))
        return self

    def not_(self, dst: str, src: str) -> "Assembler":
        self._emit(MicroOp(MicroOpKind.NOT, dst=dst, srcs=(src,)))
        return self

    def and_(self, dst: str, a: str, b: str) -> "Assembler":
        self._emit(MicroOp(MicroOpKind.AND, dst=dst, srcs=(a, b)))
        return self

    def or_(self, dst: str, a: str, b: str) -> "Assembler":
        self._emit(MicroOp(MicroOpKind.OR, dst=dst, srcs=(a, b)))
        return self

    def xor(self, dst: str, a: str, b: str) -> "Assembler":
        self._emit(MicroOp(MicroOpKind.XOR, dst=dst, srcs=(a, b)))
        return self

    def xnor(self, dst: str, a: str, b: str) -> "Assembler":
        self._emit(MicroOp(MicroOpKind.XNOR, dst=dst, srcs=(a, b)))
        return self

    def sel(self, dst: str, cond: str, if_true: str, if_false: str) -> "Assembler":
        """2:1 mux: dst = if_true when cond else if_false."""
        self._emit(MicroOp(MicroOpKind.SEL, dst=dst, srcs=(cond, if_true, if_false)))
        return self

    # -- special ops ------------------------------------------------------

    def popcount_row(self, src: str) -> "Assembler":
        """Row-wide population count of a register, collected by the controller."""
        self._emit(MicroOp(MicroOpKind.POPCOUNT_ROW, srcs=(src,)))
        self.program.num_popcount_results += 1
        return self

    # -- composite helpers -------------------------------------------------

    def full_adder(self, a: str, b: str, carry: str, sum_dst: str) -> "Assembler":
        """sum_dst = a ^ b ^ carry; carry = majority(a, b, carry).

        Uses the SEL-based majority trick: maj(a,b,c) = c ? (a|b) : (a&b),
        computed with the AP micro-op set.  Destroys ``a`` and ``b``.
        """
        self.xor(sum_dst, a, b)  # partial sum a^b (also the select for carry)
        self.and_(a, a, b)  # a&b (generate)
        self.or_(b, sum_dst, b)  # careful: b now holds (a^b)|b == a|b
        self.sel(b, carry, b, a)  # carry_in ? (a|b) : (a&b) == majority
        self.xor(sum_dst, sum_dst, carry)  # full sum
        self.move(carry, b)
        return self

    def done(self) -> MicroProgram:
        # Count the ops now, at assembly time, so no cost model ever
        # pays for a per-op walk of the finished program.
        program = self.program
        program._census = census_of(program.ops)
        program._cost = None
        return program
