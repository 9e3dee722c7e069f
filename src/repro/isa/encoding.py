"""Binary encoding of Marionette configurations (the "bitstream").

The compiler's final step converts CFG+DFG mappings into configuration
bitstreams (paper Section 5, "Software Stack").  The exact field layout of
the RTL is not published; this encoding defines a concrete, documented
layout and is exercised by exhaustive round-trip tests — the property that
matters for a bitstream (decode(encode(x)) == x) is enforced, the widths are
honest relative to the architecture parameters (64-entry buffers, 20-bit
immediates, 8-bit PE ids).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import EncodingError
from repro.ir.ops import Opcode
from repro.isa.control import ControlDirective, SenderMode
from repro.isa.data import DataInstruction, DataKind
from repro.isa.operands import Dest, DestKind, Operand, OperandKind
from repro.isa.program import ArrayProgram, TriggerEntry

_OPCODES: List[Opcode] = list(Opcode)
_DATA_KINDS: List[DataKind] = list(DataKind)
_OPERAND_KINDS: List[OperandKind] = list(OperandKind)
_DEST_KINDS: List[DestKind] = list(DestKind)
_SENDER_MODES: List[SenderMode] = list(SenderMode)

_IMM_BIAS = 1 << 19  # store 20-bit immediates biased to non-negative


class _BitWriter:
    def __init__(self) -> None:
        self.value = 0
        self.width = 0

    def put(self, field: int, bits: int) -> None:
        if not 0 <= field < (1 << bits):
            raise EncodingError(
                f"field {field} does not fit in {bits} bits"
            )
        self.value |= field << self.width
        self.width += bits


class _BitReader:
    def __init__(self, value: int) -> None:
        self.value = value
        self.offset = 0

    def take(self, bits: int) -> int:
        field = (self.value >> self.offset) & ((1 << bits) - 1)
        self.offset += bits
        return field


# ----------------------------------------------------------------------
# Operand / dest fields
# ----------------------------------------------------------------------
def _put_operand(w: _BitWriter, operand: Operand) -> None:
    w.put(_OPERAND_KINDS.index(operand.kind), 2)
    if operand.kind is OperandKind.IMM:
        w.put(operand.value + _IMM_BIAS, 20)
    else:
        w.put(operand.value, 20)


def _take_operand(r: _BitReader) -> Operand:
    kind = _OPERAND_KINDS[r.take(2)]
    raw = r.take(20)
    value = raw - _IMM_BIAS if kind is OperandKind.IMM else raw
    return Operand(kind, value)


def _put_dest(w: _BitWriter, dest: Dest) -> None:
    w.put(_DEST_KINDS.index(dest.kind), 2)
    w.put(dest.pe, 8)
    w.put(dest.port, 4)


def _take_dest(r: _BitReader) -> Dest:
    kind = _DEST_KINDS[r.take(2)]
    pe = r.take(8)
    port = r.take(4)
    return Dest(kind, pe=pe, port=port)


def _put_targets(w: _BitWriter, targets: Tuple[int, ...]) -> None:
    if len(targets) > 8:
        raise EncodingError("directives support at most 8 targets")
    w.put(len(targets), 4)
    for target in targets:
        w.put(target, 8)


def _take_targets(r: _BitReader) -> Tuple[int, ...]:
    count = r.take(4)
    return tuple(r.take(8) for _ in range(count))


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------
def encode_entry(entry: TriggerEntry) -> int:
    """Pack one instruction-buffer entry into an integer bitstream word."""
    w = _BitWriter()
    w.put(entry.addr, 8)

    data = entry.data
    w.put(_DATA_KINDS.index(data.kind), 3)
    w.put(_OPCODES.index(data.opcode) if data.opcode else 0, 6)
    w.put(data.array_id, 6)
    operands = data.srcs if data.kind is not DataKind.LOOP else data.loop_bounds
    if len(operands) > 3:
        raise EncodingError("instructions support at most 3 sources")
    w.put(len(operands), 2)
    for operand in operands:
        _put_operand(w, operand)
    if len(data.dests) > 4:
        raise EncodingError("instructions support at most 4 destinations")
    w.put(len(data.dests), 3)
    for dest in data.dests:
        _put_dest(w, dest)

    ctrl = entry.control
    w.put(_SENDER_MODES.index(ctrl.mode), 2)
    w.put(ctrl.next_addr, 8)
    w.put(ctrl.true_addr, 8)
    w.put(ctrl.false_addr, 8)
    w.put(ctrl.exit_addr, 8)
    w.put(ctrl.priority, 4)
    _put_targets(w, ctrl.targets)
    _put_targets(w, ctrl.exit_targets)
    return w.value


def decode_entry(word: int) -> TriggerEntry:
    """Inverse of :func:`encode_entry`."""
    r = _BitReader(word)
    addr = r.take(8)

    kind = _DATA_KINDS[r.take(3)]
    opcode_idx = r.take(6)
    array_id = r.take(6)
    n_src = r.take(2)
    operands = tuple(_take_operand(r) for _ in range(n_src))
    n_dst = r.take(3)
    dests = tuple(_take_dest(r) for _ in range(n_dst))
    if kind is DataKind.LOOP:
        data = DataInstruction(kind, dests=dests, loop_bounds=operands)
    elif kind is DataKind.COMPUTE:
        data = DataInstruction(kind, opcode=_OPCODES[opcode_idx],
                               srcs=operands, dests=dests)
    elif kind is DataKind.NOP:
        data = DataInstruction(kind)
    else:
        data = DataInstruction(kind, srcs=operands, dests=dests,
                               array_id=array_id)

    mode = _SENDER_MODES[r.take(2)]
    next_addr = r.take(8)
    true_addr = r.take(8)
    false_addr = r.take(8)
    exit_addr = r.take(8)
    priority = r.take(4)
    targets = _take_targets(r)
    exit_targets = _take_targets(r)
    ctrl = ControlDirective(
        mode=mode, next_addr=next_addr, true_addr=true_addr,
        false_addr=false_addr, targets=targets, exit_addr=exit_addr,
        exit_targets=exit_targets, priority=priority,
    )
    return TriggerEntry(addr, data, ctrl)


# ----------------------------------------------------------------------
# Whole programs
# ----------------------------------------------------------------------
def encode_program(program: ArrayProgram) -> Dict[str, object]:
    """Serialise an :class:`ArrayProgram` to a plain-dict bitstream image."""
    return {
        "n_pes": program.n_pes,
        "initial": dict(program.initial_addrs),
        "arrays": {
            aid: list(meta) for aid, meta in program.array_table.items()
        },
        "pes": {
            pe: [encode_entry(entry) for entry in pe_program]
            for pe, pe_program in program.pe_programs.items()
        },
    }


def decode_program(image: Dict[str, object]) -> ArrayProgram:
    """Inverse of :func:`encode_program`."""
    program = ArrayProgram(int(image["n_pes"]))
    for aid, (name, base, length) in dict(image["arrays"]).items():
        program.declare_array(int(aid), name, int(base), int(length))
    for pe, words in dict(image["pes"]).items():
        target = program.program_for(int(pe))
        for word in words:
            target.add(decode_entry(int(word)))
    for pe, addr in dict(image["initial"]).items():
        program.set_initial(int(pe), int(addr))
    return program
