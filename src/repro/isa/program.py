"""Programs: per-PE instruction buffers and the whole-array configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import EncodingError
from repro.isa.control import ControlDirective
from repro.isa.data import DataInstruction
from repro.isa.operands import DestKind, N_PORTS

#: Instruction buffer capacity per PE (addresses 0..MAX_ADDR-1).
MAX_ADDR = 64


@dataclass(frozen=True)
class TriggerEntry:
    """One instruction-buffer entry: data instruction + sender directive."""

    addr: int
    data: DataInstruction
    control: ControlDirective = field(default_factory=ControlDirective.none)

    def __post_init__(self) -> None:
        if not 0 <= self.addr < MAX_ADDR:
            raise EncodingError(f"instruction address {self.addr} out of range")


class PEProgram:
    """The instruction buffer contents of one PE."""

    def __init__(self) -> None:
        self.entries: Dict[int, TriggerEntry] = {}

    def add(self, entry: TriggerEntry) -> None:
        if entry.addr in self.entries:
            raise EncodingError(
                f"duplicate instruction address {entry.addr}"
            )
        self.entries[entry.addr] = entry

    def get(self, addr: int) -> Optional[TriggerEntry]:
        return self.entries.get(addr)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(sorted(self.entries.values(), key=lambda e: e.addr))


class ArrayProgram:
    """A full array configuration: one program per PE plus metadata."""

    def __init__(self, n_pes: int) -> None:
        self.n_pes = n_pes
        self.pe_programs: Dict[int, PEProgram] = {}
        #: PE -> instruction address activated at kernel start.
        self.initial_addrs: Dict[int, int] = {}
        #: array_id -> (name, base address, length) in the data scratchpad.
        self.array_table: Dict[int, Tuple[str, int, int]] = {}
        #: (pe, reg) -> initial value (loop-carried accumulator seeds).
        self.reg_init: Dict[Tuple[int, int], float] = {}
        self._array_index: Optional[Dict[str, Tuple[int, int]]] = None

    def program_for(self, pe: int) -> PEProgram:
        if not 0 <= pe < self.n_pes:
            raise EncodingError(f"PE index {pe} out of range")
        if pe not in self.pe_programs:
            self.pe_programs[pe] = PEProgram()
        return self.pe_programs[pe]

    def set_initial(self, pe: int, addr: int) -> None:
        if not 0 <= pe < self.n_pes:
            raise EncodingError(f"PE index {pe} out of range")
        self.initial_addrs[pe] = addr

    def set_reg_init(self, pe: int, reg: int, value: float) -> None:
        if not 0 <= pe < self.n_pes:
            raise EncodingError(f"PE index {pe} out of range")
        self.reg_init[(pe, reg)] = value

    def declare_array(self, array_id: int, name: str, base: int,
                      length: int) -> None:
        if array_id in self.array_table:
            raise EncodingError(f"array id {array_id} declared twice")
        for other_id, (oname, obase, olen) in self.array_table.items():
            if oname == name:
                # By-name lookups (load_array / array_out) would be
                # ambiguous; reject instead of silently picking one.
                raise EncodingError(
                    f"array name {name!r} declared twice "
                    f"(ids {other_id} and {array_id})"
                )
            if base < obase + olen and obase < base + length:
                raise EncodingError(
                    f"array {name!r} overlaps array id {other_id}"
                )
        self.array_table[array_id] = (name, base, length)
        self._array_index = None

    def array_index(self) -> Dict[str, Tuple[int, int]]:
        """Name -> (base, length) lookup over the array table.

        Built once and invalidated by :meth:`declare_array`, so the
        simulator's by-name paths (`load_array` / `array_out`) are a
        dict probe instead of a table scan.
        """
        if self._array_index is None:
            self._array_index = {
                name: (base, length)
                for name, base, length in self.array_table.values()
            }
        return self._array_index

    def validate(self) -> None:
        """Cross-reference checks: initial addresses exist; sender targets
        and mesh destinations in range; referenced arrays declared.

        The simulator delivers data tokens without checking them again."""
        for pe, addr in self.initial_addrs.items():
            program = self.pe_programs.get(pe)
            if program is None or program.get(addr) is None:
                raise EncodingError(
                    f"PE {pe} initial address {addr} has no entry"
                )
        for pe, program in self.pe_programs.items():
            for entry in program:
                directive = entry.control
                for target in directive.targets + directive.exit_targets:
                    if not 0 <= target <= self.n_pes:  # n_pes = controller
                        raise EncodingError(
                            f"PE {pe} addr {entry.addr}: control target "
                            f"{target} out of range"
                        )
                data = entry.data
                for dest in data.dests:
                    if dest.kind is DestKind.PE_PORT and not (
                            0 <= dest.pe < self.n_pes
                            and 0 <= dest.port < N_PORTS):
                        raise EncodingError(
                            f"PE {pe} addr {entry.addr}: mesh destination PE "
                            f"{dest.pe} port {dest.port} out of range"
                        )
                if data.kind.value in ("load", "store"):
                    if data.array_id not in self.array_table:
                        raise EncodingError(
                            f"PE {pe} addr {entry.addr}: array id "
                            f"{data.array_id} not declared"
                        )
