"""Micro-op ISA of the DRAM-AP bit-serial processing element.

Each sense amplifier in a subarray's local row buffer carries a small
digital logic block with four single-bit registers (paper Section IV and
Table II: move/set/and/xnor/mux plus the gates needed for associative
processing).  A micro-op applies simultaneously to all 8192 lanes of the
row buffer; a microprogram is a sequence of micro-ops broadcast by the
memory controller to all subarrays.

Three micro-op classes exist, with distinct costs:

* row ops   -- ``READ_ROW`` / ``WRITE_ROW`` move one bit row between the
               cell array and a lane register (a destructive row activation
               or a write-back; dominates latency and energy),
* logic ops -- ``SET``/``MOVE``/``NOT``/``AND``/``OR``/``XOR``/``XNOR``/
               ``SEL`` operate on lane registers only,
* ``POPCOUNT_ROW`` -- the row-wide population count used for reduction
               sums (Section V-C "special handling"), producing a per-core
               scalar collected by the controller.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import typing


class MicroOpKind(enum.Enum):
    """Kinds of bit-serial micro-operations."""

    READ_ROW = "read_row"
    WRITE_ROW = "write_row"
    SET = "set"
    MOVE = "move"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    XNOR = "xnor"
    SEL = "sel"
    POPCOUNT_ROW = "popcount_row"

    # Members are singletons compared by identity, so hash by identity
    # too: ``Enum.__hash__`` is a Python-level call, and assembly hashes
    # a kind for every op it builds and counts.
    __hash__ = object.__hash__

    @property
    def is_row_op(self) -> bool:
        return self in (MicroOpKind.READ_ROW, MicroOpKind.WRITE_ROW)

    @property
    def is_logic_op(self) -> bool:
        return not self.is_row_op and self is not MicroOpKind.POPCOUNT_ROW

    @property
    def num_sources(self) -> int:
        """Number of register sources the op consumes."""
        return _NUM_SOURCES[self]


_NUM_SOURCES = {
    MicroOpKind.READ_ROW: 0,
    MicroOpKind.WRITE_ROW: 1,
    MicroOpKind.SET: 0,
    MicroOpKind.MOVE: 1,
    MicroOpKind.NOT: 1,
    MicroOpKind.AND: 2,
    MicroOpKind.OR: 2,
    MicroOpKind.XOR: 2,
    MicroOpKind.XNOR: 2,
    MicroOpKind.SEL: 3,
    MicroOpKind.POPCOUNT_ROW: 1,
}

#: Register file of one lane: the sense-amp latch plus four bit registers.
#: "SA" is the row-buffer latch itself; R0..R3 are the extra registers the
#: paper adds for carry/condition bits.
REGISTER_NAMES = ("SA", "R0", "R1", "R2", "R3")


#: Every kind, in declaration order: entry ``i`` of a census counts
#: ``KINDS[i]``.
KINDS = tuple(MicroOpKind)
_REGISTERS = frozenset(REGISTER_NAMES)
_ROW_KINDS = frozenset(kind for kind in KINDS if kind.is_row_op)


class _MicroOpFields(typing.NamedTuple):
    kind: MicroOpKind
    dst: str
    srcs: "tuple[str, ...]"
    row: int
    value: int


class MicroOp(_MicroOpFields):
    """One bit-serial micro-operation.

    ``dst`` is a register name (or, for ``WRITE_ROW``, unused); ``srcs``
    are register names; ``row`` indexes the subarray row for row ops;
    ``value`` is the immediate for ``SET``.  An immutable, slotted
    record, validated at construction against the per-kind tables
    above: programs hold tens of thousands of them.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: MicroOpKind,
        dst: str = "",
        srcs: "tuple[str, ...]" = (),
        row: int = -1,
        value: int = 0,
    ) -> "MicroOp":
        if len(srcs) != _NUM_SOURCES[kind]:
            raise ValueError(
                f"{kind.value} expects {_NUM_SOURCES[kind]} sources, "
                f"got {len(srcs)}"
            )
        if row < 0 and kind in _ROW_KINDS:
            raise ValueError(f"{kind.value} requires a row index")
        if not _REGISTERS.issuperset(srcs) or (dst and dst not in _REGISTERS):
            unknown = next(
                name for name in srcs + (dst,) if name not in _REGISTERS
            )
            raise ValueError(f"unknown register {unknown!r}")
        if kind is MicroOpKind.SET and value not in (0, 1):
            raise ValueError(f"SET immediate must be 0 or 1, got {value}")
        return tuple.__new__(cls, (kind, dst, srcs, row, value))


@dataclasses.dataclass(frozen=True)
class MicroProgramCost:
    """Aggregate cost of a microprogram, the input to the perf model."""

    num_row_reads: int = 0
    num_row_writes: int = 0
    num_logic_ops: int = 0
    num_popcount_rows: int = 0

    @property
    def num_row_ops(self) -> int:
        return self.num_row_reads + self.num_row_writes

    @property
    def total_ops(self) -> int:
        return self.num_row_ops + self.num_logic_ops + self.num_popcount_rows

    def __add__(self, other: "MicroProgramCost") -> "MicroProgramCost":
        return MicroProgramCost(
            num_row_reads=self.num_row_reads + other.num_row_reads,
            num_row_writes=self.num_row_writes + other.num_row_writes,
            num_logic_ops=self.num_logic_ops + other.num_logic_ops,
            num_popcount_rows=self.num_popcount_rows + other.num_popcount_rows,
        )

    def scaled(self, factor: int) -> "MicroProgramCost":
        """Cost of running this program ``factor`` times back-to-back."""
        return MicroProgramCost(
            num_row_reads=self.num_row_reads * factor,
            num_row_writes=self.num_row_writes * factor,
            num_logic_ops=self.num_logic_ops * factor,
            num_popcount_rows=self.num_popcount_rows * factor,
        )


def census_of(ops: "typing.Iterable[MicroOp]") -> "tuple[int, ...]":
    """Count a micro-op sequence by kind, in :data:`KINDS` order.

    A program's census is all any cost model reads: the bit-serial tally
    below and the analog translation
    (:func:`repro.microcode.analog.translate_program`) both price it.
    """
    counts = collections.Counter([op.kind for op in ops])
    return tuple(counts[kind] for kind in KINDS)


def census_cost(census: "tuple[int, ...]") -> MicroProgramCost:
    """Tally the cost classes of a census (see :func:`census_of`)."""
    counts = dict(zip(KINDS, census))
    reads = counts[MicroOpKind.READ_ROW]
    writes = counts[MicroOpKind.WRITE_ROW]
    popcounts = counts[MicroOpKind.POPCOUNT_ROW]
    return MicroProgramCost(
        num_row_reads=reads,
        num_row_writes=writes,
        num_logic_ops=sum(census) - reads - writes - popcounts,
        num_popcount_rows=popcounts,
    )


def cost_of(ops: "list[MicroOp]") -> MicroProgramCost:
    """Tally the cost classes of a micro-op sequence."""
    return census_cost(census_of(ops))
