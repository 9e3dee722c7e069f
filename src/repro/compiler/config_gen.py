"""Configuration generation: CDFG -> ArrayProgram for the array simulator.

This is the "bitstream generation" step of the software stack (paper
Section 5).  It supports the class of kernels the micro-architectural
simulator is used to validate end to end: a single counted loop whose body
holds the computation (loads, computes, stores, optional register
accumulators), where every body instruction has a token input.  Richer
kernels are evaluated through the trace-driven execution models (see
docs/ENGINE.md, "Event-driven array simulation"); attempting to generate
configurations for them raises :class:`CompilationError` with a reason.

Mapping scheme:

* PE 0 runs the loop operator (LOOP mode, exit wired to the controller);
* each body FU op gets its own PE (spatial mapping, II = 1), operands wired
  producer->consumer through mesh ports;
* loop-carried variables become local-register self-edges on the producing
  PE (initial value from the entry block via the program's register-init
  table);
* a value fanned out to more than four destinations (or a PE needing
  more than four input ports) is refused: no relay PE is inserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import CompilationError
from repro.arch.params import ArchParams
from repro.ir.cdfg import CDFG
from repro.ir.cfg import BasicBlock, Branch
from repro.ir.dfg import Node, NodeId
from repro.ir.ops import Opcode
from repro.isa.control import ControlDirective
from repro.isa.data import DataInstruction, DataKind
from repro.isa.operands import Dest, N_PORTS, Operand
from repro.isa.program import ArrayProgram, TriggerEntry

#: Instruction address used for every kernel entry (single-BB programs).
_ADDR = 1
#: Exit address announced to the controller.
_EXIT_ADDR = 9


@dataclass
class _Consumer:
    pe: int
    port: int


class _PortAllocator:
    def __init__(self) -> None:
        self._next: Dict[int, int] = {}

    def take(self, pe: int) -> int:
        port = self._next.get(pe, 0)
        if port >= N_PORTS:
            raise CompilationError(
                f"PE {pe} needs more than {N_PORTS} input ports"
            )
        self._next[pe] = port + 1
        return port


def _scalar_operand(cdfg: CDFG, entry: BasicBlock, node: Node,
                    param_values: Mapping[str, int]) -> int:
    """Resolve a compile-time scalar (const or bound parameter)."""
    if node.opcode is Opcode.CONST:
        return int(node.value)
    if node.opcode is Opcode.INPUT:
        if node.var in param_values:
            return int(param_values[node.var])
        raise CompilationError(
            f"{cdfg.name}: loop bound variable {node.var!r} is not a bound "
            "parameter"
        )
    raise CompilationError(
        f"{cdfg.name}: loop bound must be constant or parameter, got "
        f"{node.opcode.value}"
    )


def generate_program(
    cdfg: CDFG,
    arch: ArchParams,
    param_values: Optional[Mapping[str, int]] = None,
    array_lengths: Optional[Mapping[str, int]] = None,
) -> ArrayProgram:
    """Generate an :class:`ArrayProgram` for a single-loop kernel.

    Args:
        cdfg: The kernel (must be a single counted loop; see module doc).
        arch: Target array parameters.
        param_values: Bindings for the kernel's scalar parameters
            (compiled into immediates, as the paper's bitstreams do).
        array_lengths: Length of each scratchpad array; defaults to
            inferring nothing and failing, so pass them.

    Raises:
        CompilationError: when the kernel is outside the supported class
            or exceeds the array's resources.
    """
    param_values = dict(param_values or {})
    array_lengths = dict(array_lengths or {})

    entry_blk, header, body, after = _match_structure(cdfg)
    loop_var = header.loop_var
    if loop_var is None:
        raise CompilationError(f"{cdfg.name}: loop header lost its variable")

    term = header.terminator
    assert isinstance(term, Branch)
    cond = header.dfg.node(term.cond)
    if cond.opcode is not Opcode.LT:
        raise CompilationError(
            f"{cdfg.name}: only ascending counted loops are supported"
        )
    hi_node = header.dfg.node(cond.operands[1])
    hi = _scalar_operand(cdfg, entry_blk, hi_node, param_values)
    if loop_var not in entry_blk.outputs:
        raise CompilationError(
            f"{cdfg.name}: loop variable not initialised in the entry block"
        )
    lo_node = entry_blk.dfg.node(entry_blk.outputs[loop_var])
    lo = _scalar_operand(cdfg, entry_blk, lo_node, param_values)

    program = ArrayProgram(arch.n_pes)
    base = 0
    array_ids: Dict[str, int] = {}
    for index, name in enumerate(cdfg.arrays):
        if name not in array_lengths:
            raise CompilationError(
                f"{cdfg.name}: missing length for array {name!r}"
            )
        length = int(array_lengths[name])
        program.declare_array(index, name, base, length)
        array_ids[name] = index
        base += length

    builder = _BodyBuilder(
        cdfg, body, entry_blk, program, arch, array_ids, param_values,
        loop_var,
    )
    builder.build(lo, hi)
    program.validate()
    return program


def _match_structure(
    cdfg: CDFG,
) -> Tuple[BasicBlock, BasicBlock, BasicBlock, BasicBlock]:
    """Require entry -> header -> body -> (back) / after -> halt."""
    nests = cdfg.loop_nests()
    if len(nests) != 1:
        raise CompilationError(
            f"{cdfg.name}: config generation supports exactly one loop "
            f"(found {len(nests)})"
        )
    nest = next(iter(nests.values()))
    header = cdfg.block(nest.header)
    body_ids = sorted(nest.blocks - {nest.header})
    if len(body_ids) != 1:
        raise CompilationError(
            f"{cdfg.name}: loop body must be a single basic block "
            f"(found {len(body_ids)})"
        )
    body = cdfg.block(body_ids[0])
    entry_blk = cdfg.block(cdfg.entry)
    term = header.terminator
    assert isinstance(term, Branch)
    after = cdfg.block(term.if_false)
    if after.op_count > 0:
        raise CompilationError(
            f"{cdfg.name}: computation after the loop is not supported"
        )
    return entry_blk, header, body, after


class _BodyBuilder:
    """Wires the body DFG onto PEs 1..n with PE 0 as the loop operator."""

    def __init__(self, cdfg: CDFG, body: BasicBlock, entry_blk: BasicBlock,
                 program: ArrayProgram, arch: ArchParams,
                 array_ids: Dict[str, int],
                 param_values: Mapping[str, int], loop_var: str) -> None:
        self.cdfg = cdfg
        self.body = body
        self.entry_blk = entry_blk
        self.program = program
        self.arch = arch
        self.array_ids = array_ids
        self.param_values = param_values
        self.loop_var = loop_var
        self.ports = _PortAllocator()
        self.pe_of: Dict[NodeId, int] = {}
        self.consumers: Dict[NodeId, List[_Consumer]] = {}
        self.loop_consumers: List[_Consumer] = []
        #: accumulator node -> register index on its PE
        self.acc_reg: Dict[NodeId, int] = {}
        self.reg_init: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    def build(self, lo: int, hi: int) -> None:
        fu_nodes = self.body.dfg.fu_nodes
        if len(fu_nodes) > self.arch.n_pes - 1:
            raise CompilationError(
                f"{self.cdfg.name}: {len(fu_nodes)} ops exceed "
                f"{self.arch.n_pes - 1} available PEs"
            )
        for offset, node in enumerate(fu_nodes):
            self.pe_of[node.node_id] = offset + 1

        accumulators = self._find_accumulators()
        for node_id, reg in accumulators.items():
            self.acc_reg[node_id] = reg

        instructions = {
            node.node_id: self._build_instruction(node) for node in fu_nodes
        }
        for node in fu_nodes:
            if not instructions[node.node_id].port_sources:
                # A standing instruction fires whenever its port sources
                # hold tokens; with none, it would fire every t_execute
                # cycles forever instead of once per iteration.
                raise CompilationError(
                    f"{self.cdfg.name}: node n{node.node_id} "
                    f"({node.opcode.value}) has no token input (only "
                    "registers and immediates), so nothing paces it to "
                    "the loop"
                )
        # Attach destinations now that consumers are known.
        for node in fu_nodes:
            dests = self._dests_for(node)
            inst = instructions[node.node_id]
            instructions[node.node_id] = DataInstruction(
                kind=inst.kind, opcode=inst.opcode, srcs=inst.srcs,
                dests=dests, array_id=inst.array_id,
                loop_bounds=inst.loop_bounds,
            )

        for node in fu_nodes:
            pe = self.pe_of[node.node_id]
            self.program.program_for(pe).add(
                TriggerEntry(_ADDR, instructions[node.node_id])
            )
            self.program.set_initial(pe, _ADDR)

        loop_inst = DataInstruction.loop(
            Operand.imm(lo), Operand.imm(hi), Operand.imm(1),
            tuple(
                Dest.pe_port(c.pe, c.port) for c in self.loop_consumers
            ),
        )
        if len(self.loop_consumers) > 4:
            raise CompilationError(
                f"{self.cdfg.name}: loop variable fans out to "
                f"{len(self.loop_consumers)} ports (> 4); add a relay"
            )
        self.program.program_for(0).add(
            TriggerEntry(
                _ADDR, loop_inst,
                ControlDirective.loop(
                    exit_addr=_EXIT_ADDR,
                    exit_targets=(self.arch.n_pes,),
                ),
            )
        )
        self.program.set_initial(0, _ADDR)
        for pe, regs in self.reg_init.items():
            for reg, value in regs.items():
                self.program.set_reg_init(pe, reg, value)

    # ------------------------------------------------------------------
    def _find_accumulators(self) -> Dict[NodeId, int]:
        """Variables read and re-assigned in the body: register self-edges."""
        out: Dict[NodeId, int] = {}
        for var, node_id in self.body.outputs.items():
            if var.startswith("."):
                continue
            if var == self.loop_var:
                continue
            reads = [
                n for n in self.body.dfg
                if n.opcode is Opcode.INPUT and n.var == var
            ]
            if not reads:
                continue
            out[node_id] = 0  # register 0 of the producing PE
            init = 0.0
            if var in self.entry_blk.outputs:
                init_node = self.entry_blk.dfg.node(
                    self.entry_blk.outputs[var]
                )
                if init_node.opcode is Opcode.CONST:
                    init = init_node.value
                else:
                    raise CompilationError(
                        f"{self.cdfg.name}: accumulator {var!r} must be "
                        "initialised to a constant"
                    )
            pe = self.pe_of[node_id]
            self.reg_init.setdefault(pe, {})[0] = init
        return out

    # ------------------------------------------------------------------
    def _operand_for(self, consumer: Node, producer_id: NodeId) -> Operand:
        producer = self.body.dfg.node(producer_id)
        consumer_pe = self.pe_of[consumer.node_id]
        if producer.opcode is Opcode.CONST:
            # The datapath computes in floats; truncating a fractional
            # constant (1.5 -> 1) would silently change the kernel.
            # Integral values stay ints so existing configs are
            # unchanged.
            value = producer.value
            return Operand.imm(
                int(value) if float(value).is_integer() else float(value)
            )
        if producer.opcode is Opcode.INPUT:
            assert producer.var is not None
            if producer.var == self.loop_var:
                port = self.ports.take(consumer_pe)
                self.loop_consumers.append(_Consumer(consumer_pe, port))
                return Operand.port(port)
            if producer.var in self.param_values:
                return Operand.imm(int(self.param_values[producer.var]))
            acc_node = self.body.outputs.get(producer.var)
            if acc_node is not None and acc_node in self.acc_reg:
                producer_pe = self.pe_of[acc_node]
                if producer_pe == consumer_pe:
                    return Operand.reg(self.acc_reg[acc_node])
                raise CompilationError(
                    f"{self.cdfg.name}: accumulator {producer.var!r} "
                    "consumed on a different PE than it is produced"
                )
            raise CompilationError(
                f"{self.cdfg.name}: live-in {producer.var!r} is neither "
                "loop variable, parameter, nor accumulator"
            )
        # Ordinary dataflow edge.
        port = self.ports.take(consumer_pe)
        self.consumers.setdefault(producer_id, []).append(
            _Consumer(consumer_pe, port)
        )
        return Operand.port(port)

    def _build_instruction(self, node: Node) -> DataInstruction:
        if node.opcode is Opcode.LOAD:
            addr = self._operand_for(node, node.operands[0])
            return DataInstruction(
                kind=DataKind.LOAD,
                srcs=(addr,), array_id=self.array_ids[node.array],
            )
        if node.opcode is Opcode.STORE:
            addr = self._operand_for(node, node.operands[0])
            value = self._operand_for(node, node.operands[1])
            return DataInstruction(
                kind=DataKind.STORE,
                srcs=(addr, value), array_id=self.array_ids[node.array],
            )
        srcs = tuple(self._operand_for(node, o) for o in node.operands)
        return DataInstruction(
            kind=DataKind.COMPUTE, opcode=node.opcode, srcs=srcs,
        )

    def _dests_for(self, node: Node) -> Tuple[Dest, ...]:
        dests: List[Dest] = []
        if node.node_id in self.acc_reg:
            dests.append(Dest.reg(self.acc_reg[node.node_id]))
        for consumer in self.consumers.get(node.node_id, ()):
            dests.append(Dest.pe_port(consumer.pe, consumer.port))
        if len(dests) > 4:
            raise CompilationError(
                f"{self.cdfg.name}: node n{node.node_id} fans out to "
                f"{len(dests)} destinations (> 4)"
            )
        return tuple(dests)
