"""Data-plane instructions.

The data flow part of a Marionette PE executes one of:

* ``COMPUTE`` — an FU operation over source operands, results fanned out to
  destinations;
* ``LOAD`` / ``STORE`` — scratchpad access (address from an operand);
* ``LOOP`` — the loop operator: a counter stream ``lo, lo+step, ...`` until
  ``hi`` (exclusive), one token per initiation; signals loop exit to the
  control flow part on completion (paper Fig. 7(c));
* ``NOP`` — the PE's data path idles at this instruction address.

Instructions are *standing* configurations: while the instruction address is
live, the instruction fires once per arriving token set (producer/consumer
pipelining), unlike a dataflow PE whose instruction is "solely responsible
for a single calculation" (paper Section 4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import EncodingError
from repro.ir.ops import Opcode, op_info
from repro.isa.operands import Dest, Operand


class DataKind(enum.Enum):
    COMPUTE = "compute"
    LOAD = "load"
    STORE = "store"
    LOOP = "loop"
    NOP = "nop"


@dataclass(frozen=True)
class DataInstruction:
    """One data-plane instruction."""

    kind: DataKind
    opcode: Optional[Opcode] = None
    srcs: Tuple[Operand, ...] = ()
    dests: Tuple[Dest, ...] = ()
    array_id: int = 0
    #: LOOP: bound operands are (lo, hi, step)
    loop_bounds: Tuple[Operand, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is DataKind.COMPUTE:
            if self.opcode is None:
                raise EncodingError("COMPUTE requires an opcode")
            info = op_info(self.opcode)
            if not info.needs_fu or info.is_memory:
                raise EncodingError(
                    f"{self.opcode.value} is not a COMPUTE opcode"
                )
            if len(self.srcs) != info.arity:
                raise EncodingError(
                    f"{self.opcode.value} needs {info.arity} sources, "
                    f"got {len(self.srcs)}"
                )
        elif self.kind is DataKind.LOAD:
            if len(self.srcs) != 1:
                raise EncodingError("LOAD takes exactly one address source")
        elif self.kind is DataKind.STORE:
            if len(self.srcs) != 2:
                raise EncodingError("STORE takes (address, value) sources")
        elif self.kind is DataKind.LOOP:
            if len(self.loop_bounds) != 3:
                raise EncodingError("LOOP requires (lo, hi, step) bounds")
        elif self.kind is DataKind.NOP:
            if self.srcs or self.dests:
                raise EncodingError("NOP takes no operands")

    # Convenience constructors -----------------------------------------
    @staticmethod
    def compute(opcode: Opcode, srcs: Tuple[Operand, ...],
                dests: Tuple[Dest, ...]) -> "DataInstruction":
        return DataInstruction(DataKind.COMPUTE, opcode=opcode, srcs=srcs,
                               dests=dests)

    @staticmethod
    def load(array_id: int, addr: Operand,
             dests: Tuple[Dest, ...]) -> "DataInstruction":
        return DataInstruction(DataKind.LOAD, srcs=(addr,), dests=dests,
                               array_id=array_id)

    @staticmethod
    def store(array_id: int, addr: Operand,
              value: Operand) -> "DataInstruction":
        return DataInstruction(DataKind.STORE, srcs=(addr, value),
                               array_id=array_id)

    @staticmethod
    def loop(lo: Operand, hi: Operand, step: Operand,
             dests: Tuple[Dest, ...]) -> "DataInstruction":
        return DataInstruction(DataKind.LOOP, dests=dests,
                               loop_bounds=(lo, hi, step))

    @staticmethod
    def nop() -> "DataInstruction":
        return DataInstruction(DataKind.NOP)

    @property
    def port_sources(self) -> Tuple[int, ...]:
        """Input-port indices this instruction consumes per firing."""
        ops = self.srcs if self.kind is not DataKind.LOOP else self.loop_bounds
        from repro.isa.operands import OperandKind

        return tuple(
            o.value for o in ops if o.kind is OperandKind.PORT
        )
