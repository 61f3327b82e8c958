"""The PIM command set.

High- and low-level PIM operations are abstracted as commands executed on
PIM cores (Section V-A).  Each command kind knows its operand arity, its
ALU cost class on the bit-parallel architectures, and the operation
category used by the paper's operation-mix analysis (Figure 8).
"""

from __future__ import annotations

import dataclasses
import enum


class OpCategory(enum.Enum):
    """Figure 8 legend: operation categories for the mix analysis."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    BIT_SHIFT = "bit shift"
    MAX = "max"
    MIN = "min"
    OR = "or"
    AND = "and"
    XOR = "xor"
    LESS = "less"
    EQ = "eq"
    REDUCTION = "reduction"
    BROADCAST = "broadcast"
    POPCOUNT = "popcount"
    ABS = "abs"


@dataclasses.dataclass(frozen=True)
class CmdSpec:
    """Static properties of one command kind."""

    num_vector_inputs: int
    has_scalar: bool
    produces_bool: bool
    produces_scalar: bool
    category: OpCategory
    microprogram: str  # name in repro.microcode.programs
    alu_cycles: int  # per-element ALU cycles on Fulcrum (32-bit words)
    bank_alu_cycles: int  # per-word cycles on the bank-level ALPU


class PimCmdKind(enum.Enum):
    """All high-level PIM API commands the simulator models."""

    ADD = CmdSpec(2, False, False, False, OpCategory.ADD, "add", 1, 1)
    SUB = CmdSpec(2, False, False, False, OpCategory.SUB, "sub", 1, 1)
    MUL = CmdSpec(2, False, False, False, OpCategory.MUL, "mul", 1, 1)
    AND = CmdSpec(2, False, False, False, OpCategory.AND, "and", 1, 1)
    OR = CmdSpec(2, False, False, False, OpCategory.OR, "or", 1, 1)
    XOR = CmdSpec(2, False, False, False, OpCategory.XOR, "xor", 1, 1)
    XNOR = CmdSpec(2, False, False, False, OpCategory.XOR, "xnor", 1, 1)
    NOT = CmdSpec(1, False, False, False, OpCategory.XOR, "not", 1, 1)
    LT = CmdSpec(2, False, True, False, OpCategory.LESS, "lt", 1, 1)
    GT = CmdSpec(2, False, True, False, OpCategory.LESS, "gt", 1, 1)
    EQ = CmdSpec(2, False, True, False, OpCategory.EQ, "eq", 1, 1)
    NE = CmdSpec(2, False, True, False, OpCategory.EQ, "ne", 1, 1)
    MIN = CmdSpec(2, False, False, False, OpCategory.MIN, "min", 1, 1)
    MAX = CmdSpec(2, False, False, False, OpCategory.MAX, "max", 1, 1)
    ABS = CmdSpec(1, False, False, False, OpCategory.ABS, "abs", 1, 1)
    POPCOUNT = CmdSpec(1, False, False, False, OpCategory.POPCOUNT, "popcount", 12, 1)
    SHIFT_LEFT = CmdSpec(1, True, False, False, OpCategory.BIT_SHIFT, "shift_left", 1, 1)
    SHIFT_RIGHT = CmdSpec(1, True, False, False, OpCategory.BIT_SHIFT, "shift_right", 1, 1)
    ADD_SCALAR = CmdSpec(1, True, False, False, OpCategory.ADD, "add_scalar", 1, 1)
    SUB_SCALAR = CmdSpec(1, True, False, False, OpCategory.SUB, "add_scalar", 1, 1)
    MUL_SCALAR = CmdSpec(1, True, False, False, OpCategory.MUL, "mul_scalar", 1, 1)
    EQ_SCALAR = CmdSpec(1, True, True, False, OpCategory.EQ, "eq_scalar", 1, 1)
    LT_SCALAR = CmdSpec(1, True, True, False, OpCategory.LESS, "lt", 1, 1)
    GT_SCALAR = CmdSpec(1, True, True, False, OpCategory.LESS, "gt", 1, 1)
    MIN_SCALAR = CmdSpec(1, True, False, False, OpCategory.MIN, "min", 1, 1)
    MAX_SCALAR = CmdSpec(1, True, False, False, OpCategory.MAX, "max", 1, 1)
    SAT_ADD_SCALAR = CmdSpec(1, True, False, False, OpCategory.ADD,
                             "sat_add_scalar", 2, 2)
    AND_SCALAR = CmdSpec(1, True, False, False, OpCategory.AND, "and_scalar", 1, 1)
    OR_SCALAR = CmdSpec(1, True, False, False, OpCategory.OR, "or_scalar", 1, 1)
    XOR_SCALAR = CmdSpec(1, True, False, False, OpCategory.XOR, "xor_scalar", 1, 1)
    SCALED_ADD = CmdSpec(2, True, False, False, OpCategory.MUL, "scaled_add", 2, 2)
    SELECT = CmdSpec(3, False, False, False, OpCategory.AND, "select", 1, 1)
    COPY = CmdSpec(1, False, False, False, OpCategory.BROADCAST, "copy", 1, 1)
    BROADCAST = CmdSpec(0, True, False, False, OpCategory.BROADCAST, "broadcast", 1, 1)
    REDSUM = CmdSpec(1, False, False, True, OpCategory.REDUCTION, "redsum", 1, 1)

    # ``spec``, ``category`` and ``api_name`` are plain attributes stamped
    # onto every member right after the class body (below), not properties:
    # the hot command path reads them on every issue, and a property would
    # re-run its body each time for what is a constant per member.
    spec: CmdSpec
    category: OpCategory
    api_name: str


for _kind in PimCmdKind:
    _kind.spec = _kind.value
    _kind.category = _kind.value.category
    # The lowercase name used in stats reports (e.g. ``add``).
    _kind.api_name = _kind.name.lower()
del _kind


# Scalar-comparison kinds piggyback on the two-operand compare microprograms
# by broadcasting the scalar; their bit-serial cost uses the scalar-aware
# variants where one exists.
SCALAR_COMPARE_KINDS = (
    PimCmdKind.LT_SCALAR,
    PimCmdKind.GT_SCALAR,
    PimCmdKind.MIN_SCALAR,
    PimCmdKind.MAX_SCALAR,
)

