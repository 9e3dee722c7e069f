"""Instruction operands and destinations.

Sources name where the data flow part reads a value: an input **port**
(token FIFO fed by the mesh), a **local register**, or an **immediate**.
Destinations name where a result goes: an input port of another PE (the
mesh routes it), one of this PE's local registers, or the control plane
(branch results feed the Control Flow Sender).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import EncodingError

#: Number of token input ports per PE (mesh in + scratchpad response).
N_PORTS = 4
#: Local register file size.
N_REGS = 8
#: Immediate field width (signed).
IMM_BITS = 20


class OperandKind(enum.Enum):
    PORT = "port"
    REG = "reg"
    IMM = "imm"


@dataclass(frozen=True)
class Operand:
    """A source operand."""

    kind: OperandKind
    value: int

    def __post_init__(self) -> None:
        if self.kind is OperandKind.PORT and not 0 <= self.value < N_PORTS:
            raise EncodingError(f"port {self.value} out of range")
        if self.kind is OperandKind.REG and not 0 <= self.value < N_REGS:
            raise EncodingError(f"register {self.value} out of range")
        if self.kind is OperandKind.IMM:
            lim = 1 << (IMM_BITS - 1)
            if not -lim <= self.value < lim:
                raise EncodingError(f"immediate {self.value} out of range")

    @staticmethod
    def port(index: int) -> "Operand":
        return Operand(OperandKind.PORT, index)

    @staticmethod
    def reg(index: int) -> "Operand":
        return Operand(OperandKind.REG, index)

    @staticmethod
    def imm(value: int) -> "Operand":
        return Operand(OperandKind.IMM, value)


class DestKind(enum.Enum):
    PE_PORT = "pe_port"   # input port of a (possibly different) PE
    REG = "reg"           # local register
    CONTROL = "control"   # this PE's control flow part (branch results)
    MEMORY = "memory"     # scratchpad write port (used by STORE internally)


@dataclass(frozen=True)
class Dest:
    """A result destination."""

    kind: DestKind
    pe: int = 0
    port: int = 0

    @staticmethod
    def pe_port(pe: int, port: int) -> "Dest":
        if not 0 <= port < N_PORTS:
            raise EncodingError(f"port {port} out of range")
        return Dest(DestKind.PE_PORT, pe=pe, port=port)

    @staticmethod
    def reg(index: int) -> "Dest":
        if not 0 <= index < N_REGS:
            raise EncodingError(f"register {index} out of range")
        return Dest(DestKind.REG, port=index)

    @staticmethod
    def control() -> "Dest":
        return Dest(DestKind.CONTROL)
