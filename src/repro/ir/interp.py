"""Functional interpreter for CDFGs, with dynamic trace capture.

Two execution engines share one semantics:

* the **compiled** engine translates each basic block to a Python function
  once (a per-block template JIT) — fast enough to run the paper-sized
  workloads of Table 5;
* the **walking** engine dispatches on :mod:`repro.ir.ops` evaluate
  functions node by node — slow, but independent, and used by tests to
  cross-check the compiled engine.

Both engines execute blocks in node-creation order (a topological order that
equals program order), apply live-out bindings to the environment at block
end, and follow terminators until ``Halt``, counting every taken transfer
into the :class:`~repro.ir.trace.DynamicTrace` edge table.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InterpreterError
from repro.ir.cdfg import CDFG
from repro.ir.cfg import BasicBlock, Branch, Jump
from repro.ir.dfg import DFG
from repro.ir.ops import Opcode, op_info
from repro.ir.trace import DynamicTrace

#: opcodes inlined as Python operators by the block compiler
_INLINE_BINOPS = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.LT: "<",
    Opcode.LE: "<=",
    Opcode.GT: ">",
    Opcode.GE: ">=",
    Opcode.EQ: "==",
    Opcode.NE: "!=",
}

_COMPARE_OPS = {Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE,
                Opcode.EQ, Opcode.NE}


@dataclass
class ExecutionResult:
    """Outcome of a kernel interpretation."""

    memory: Dict[str, np.ndarray]
    env: Dict[str, float]
    trace: DynamicTrace
    steps: int

    def array(self, name: str) -> np.ndarray:
        return self.memory[name]


def _oob(kernel: str, block: str, array: str, index: int) -> None:
    raise InterpreterError(
        f"{kernel}/{block}: out-of-bounds access {array}[{index}]"
    )


class _BlockProgram:
    """A basic block compiled to a Python callable.

    The callable has signature ``fn(env, memory) -> cond`` where ``cond`` is
    the branch condition value (or ``None`` for jumps/halts); live-out
    variables are written into ``env`` directly.
    """

    def __init__(self, kernel: str, block: BasicBlock) -> None:
        self.block = block
        self.fn = self._compile(kernel, block)

    @staticmethod
    def _compile(kernel: str, block: BasicBlock) -> Callable:
        dfg = block.dfg
        lines: List[str] = [f"def _bb(env, memory):"]
        body: List[str] = []
        helpers: Dict[str, object] = {"_oob": _oob}
        array_vars: Dict[str, str] = {}

        def arr_var(name: str) -> str:
            if name not in array_vars:
                array_vars[name] = f"_m{len(array_vars)}"
            return array_vars[name]

        for node in dfg.nodes:
            v = f"v{node.node_id}"
            ops = [f"v{o}" for o in node.operands]
            opcode = node.opcode
            if opcode is Opcode.CONST:
                body.append(f"{v} = {node.value!r}")
            elif opcode is Opcode.INPUT:
                body.append(f"{v} = env[{node.var!r}]")
            elif opcode is Opcode.LOAD:
                m = arr_var(node.array)
                body.append(f"_i = int({ops[0]})")
                body.append(
                    f"if not 0 <= _i < {m}.shape[0]: "
                    f"_oob({kernel!r}, {block.name!r}, {node.array!r}, _i)"
                )
                body.append(f"{v} = {m}[_i].item()")
            elif opcode is Opcode.STORE:
                m = arr_var(node.array)
                body.append(f"_i = int({ops[0]})")
                body.append(
                    f"if not 0 <= _i < {m}.shape[0]: "
                    f"_oob({kernel!r}, {block.name!r}, {node.array!r}, _i)"
                )
                body.append(f"{m}[_i] = {ops[1]}")
            elif opcode in _INLINE_BINOPS:
                expr = f"{ops[0]} {_INLINE_BINOPS[opcode]} {ops[1]}"
                if opcode in _COMPARE_OPS:
                    expr = f"int({expr})"
                body.append(f"{v} = {expr}")
            elif opcode is Opcode.SELECT:
                body.append(f"{v} = {ops[1]} if {ops[0]} else {ops[2]}")
            elif opcode is Opcode.MIN:
                body.append(f"{v} = min({ops[0]}, {ops[1]})")
            elif opcode is Opcode.MAX:
                body.append(f"{v} = max({ops[0]}, {ops[1]})")
            elif opcode is Opcode.ABS:
                body.append(f"{v} = abs({ops[0]})")
            elif opcode is Opcode.NEG:
                body.append(f"{v} = -{ops[0]}")
            else:
                # Delegate to the canonical evaluate function so both
                # engines share one definition of the tricky semantics
                # (C-style div/mod, 32-bit logic, nonlinear ops).
                helper = f"_f{node.node_id}"
                helpers[helper] = op_info(opcode).evaluate
                body.append(f"{v} = {helper}({', '.join(ops)})")

        for var, node_id in block.outputs.items():
            body.append(f"env[{var!r}] = v{node_id}")

        term = block.terminator
        if isinstance(term, Branch):
            body.append(f"return v{term.cond}")
        else:
            body.append("return None")

        prologue = [
            f"    {var} = memory[{name!r}]"
            for name, var in array_vars.items()
        ]
        source = "\n".join(
            lines + prologue + [f"    {line}" for line in body]
        )
        namespace: Dict[str, object] = dict(helpers)
        exec(source, namespace)  # noqa: S102 - generated from trusted IR
        return namespace["_bb"]


#: Compiled block programs, cached per CDFG object across Interpreter
#: instances.  Workload instances, repeated ``run()`` calls, and tests
#: re-interpret the same (immutable-after-build) CDFG many times; the
#: template JIT is the dominant setup cost, so pay it once.  Weak keys
#: let a discarded kernel free its compiled code.
_COMPILED_CACHE: "weakref.WeakKeyDictionary[CDFG, List[_BlockProgram]]" = (
    weakref.WeakKeyDictionary()
)


def _compiled_programs(cdfg: CDFG) -> List[_BlockProgram]:
    programs = _COMPILED_CACHE.get(cdfg)
    if programs is None or len(programs) != len(cdfg.blocks):
        programs = [
            _BlockProgram(cdfg.name, block) for block in cdfg.blocks
        ]
        _COMPILED_CACHE[cdfg] = programs
    return programs


class Interpreter:
    """Executes a CDFG against concrete memory and parameters."""

    def __init__(self, cdfg: CDFG, *, engine: str = "compiled") -> None:
        if engine not in ("compiled", "walking"):
            raise InterpreterError(f"unknown engine {engine!r}")
        self.cdfg = cdfg
        self.engine = engine
        self._programs: Optional[List[_BlockProgram]] = None
        if engine == "compiled":
            self._programs = _compiled_programs(cdfg)

    # ------------------------------------------------------------------
    def run(
        self,
        memory: Mapping[str, np.ndarray],
        params: Optional[Mapping[str, float]] = None,
        *,
        max_steps: int = 50_000_000,
    ) -> ExecutionResult:
        """Execute the kernel.

        Args:
            memory: array name -> 1-D numpy array; copied before execution.
            params: runtime scalar parameters (must cover ``cdfg.params``).
            max_steps: block-execution budget (guards non-termination).

        Returns:
            :class:`ExecutionResult` with final memory, environment, trace.
        """
        params = dict(params or {})
        missing = [p for p in self.cdfg.params if p not in params]
        if missing:
            raise InterpreterError(
                f"kernel {self.cdfg.name!r} missing parameters: {missing}"
            )
        mem: Dict[str, np.ndarray] = {}
        for name in self.cdfg.arrays:
            if name not in memory:
                raise InterpreterError(
                    f"kernel {self.cdfg.name!r} missing array {name!r}"
                )
            array = np.asarray(memory[name])
            if array.ndim != 1:
                raise InterpreterError(
                    f"array {name!r} must be 1-D (got shape {array.shape})"
                )
            mem[name] = array.copy()

        env: Dict[str, float] = dict(params)
        steps = 0
        blocks = self.cdfg.blocks
        programs = self._programs
        # Taken transfers, flattened: edges[src * n_blocks + dst].
        n_blocks = len(blocks)
        edges = [0] * (n_blocks * n_blocks)
        bid = self.cdfg.entry
        while True:
            steps += 1
            if steps > max_steps:
                raise InterpreterError(
                    f"kernel {self.cdfg.name!r} exceeded {max_steps} block "
                    "executions; non-terminating?"
                )
            block = blocks[bid]
            if programs is not None:
                try:
                    cond = programs[bid].fn(env, mem)
                except KeyError as exc:
                    raise InterpreterError(
                        f"{self.cdfg.name}/{block.name}: variable {exc} "
                        "read before assignment"
                    )
            else:
                cond = self._walk_block(block, env, mem)
            term = block.terminator
            if isinstance(term, Jump):
                succ = term.target
            elif isinstance(term, Branch):
                succ = term.if_true if cond else term.if_false
            else:
                break
            edges[bid * n_blocks + succ] += 1
            bid = succ
        trace = DynamicTrace(self.cdfg.name, self.cdfg.entry, {
            divmod(index, n_blocks): count
            for index, count in enumerate(edges) if count
        })
        return ExecutionResult(mem, env, trace, steps)

    # ------------------------------------------------------------------
    def _walk_block(
        self,
        block: BasicBlock,
        env: Dict[str, float],
        mem: Dict[str, np.ndarray],
    ):
        """Reference (slow) engine: per-node dispatch via op_info."""
        dfg = block.dfg
        vals: List[float] = [0] * len(dfg)
        for node in dfg.nodes:
            opcode = node.opcode
            if opcode is Opcode.CONST:
                vals[node.node_id] = node.value
            elif opcode is Opcode.INPUT:
                try:
                    vals[node.node_id] = env[node.var]
                except KeyError:
                    raise InterpreterError(
                        f"{self.cdfg.name}/{block.name}: variable "
                        f"{node.var!r} read before assignment"
                    )
            elif opcode is Opcode.LOAD:
                array = mem[node.array]
                idx = int(vals[node.operands[0]])
                if not 0 <= idx < array.shape[0]:
                    _oob(self.cdfg.name, block.name, node.array, idx)
                vals[node.node_id] = array[idx].item()
            elif opcode is Opcode.STORE:
                array = mem[node.array]
                idx = int(vals[node.operands[0]])
                if not 0 <= idx < array.shape[0]:
                    _oob(self.cdfg.name, block.name, node.array, idx)
                array[idx] = vals[node.operands[1]]
            else:
                fn = op_info(opcode).evaluate
                assert fn is not None
                vals[node.node_id] = fn(*(vals[o] for o in node.operands))
        for var, node_id in block.outputs.items():
            env[var] = vals[node_id]
        term = block.terminator
        if isinstance(term, Branch):
            return vals[term.cond]
        return None
