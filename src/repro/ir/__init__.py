"""CDFG intermediate representation.

The IR mirrors the computational model of spatial architectures (paper
Section 2.1): a program is a Control Data Flow Graph — a control flow graph
(CFG) whose nodes are basic blocks (BBs), each holding a pure data flow graph
(DFG).  Kernels are written against :class:`~repro.ir.builder.KernelBuilder`,
executed functionally by :class:`~repro.ir.interp.Interpreter`, and analysed
by :mod:`repro.ir.analysis`.
"""

from repro.ir.ops import Opcode, OpClass, op_info, OPCODE_INFO
from repro.ir.dfg import Node, DFG
from repro.ir.cfg import (
    BasicBlock,
    BlockRole,
    Branch,
    CFG,
    Halt,
    Jump,
    Terminator,
)
from repro.ir.cdfg import CDFG, LoopNest
from repro.ir.builder import KernelBuilder, Value
from repro.ir.interp import ExecutionResult, Interpreter
from repro.ir.trace import DynamicTrace

__all__ = [
    "Opcode",
    "OpClass",
    "op_info",
    "OPCODE_INFO",
    "Node",
    "DFG",
    "BasicBlock",
    "BlockRole",
    "Branch",
    "CFG",
    "Halt",
    "Jump",
    "Terminator",
    "CDFG",
    "LoopNest",
    "KernelBuilder",
    "Value",
    "Interpreter",
    "ExecutionResult",
    "DynamicTrace",
]
