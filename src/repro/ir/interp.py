"""Functional interpreter for CDFGs, with dynamic trace capture.

Two execution engines share one semantics:

* the **compiled** engine translates a whole CDFG into one Python
  function (cached per CDFG and per tuple of array storage kinds) — fast
  enough to run the paper-sized workloads of Table 5.  Environment
  variables are locals, blocks dispatch through a binary tree over block
  ids inside one loop, edge counts are local counters, and int64/float64
  arrays run as Python lists that go back to numpy at halt (other dtypes
  keep numpy storage);
* the **walking** engine dispatches on :mod:`repro.ir.ops` evaluate
  functions node by node over numpy memory — slow, but independent, and
  used by tests as the reference for the compiled engine.

Both engines execute blocks in node-creation order (a topological order that
equals program order), apply live-out bindings to the environment at block
end, and follow terminators until ``Halt``, counting every taken transfer
into the :class:`~repro.ir.trace.DynamicTrace` edge table.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InterpreterError
from repro.ir.cdfg import CDFG
from repro.ir.cfg import BasicBlock, Branch, Jump
from repro.ir.ops import Opcode, op_info
from repro.ir.trace import DynamicTrace

#: opcodes inlined as Python operators by the kernel compiler
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


def _int64_overflow() -> None:
    # numpy's message for an int64 element assignment out of range
    raise OverflowError("Python int too large to convert to C long")


#: Array storage kinds of the compiled engine: int64 and float64 arrays
#: run as Python lists, any other dtype keeps numpy storage.
_LIST_KINDS = {np.dtype(np.int64): "int", np.dtype(np.float64): "float"}


def _compile(cdfg: CDFG, kinds: Tuple[str, ...]) -> Callable:
    """Translate ``cdfg`` into one Python function over ``kinds`` storage.

    The function has signature ``fn(env, mem, max_steps) -> (steps,
    edge_counts, env)``: ``env`` holds the parameters on entry and the
    final environment on return, and ``mem`` maps array name to its
    storage (a list for the ``"int"``/``"float"`` kinds, else the numpy
    array), updated in place.  Environment variables are locals, blocks
    dispatch through a binary tree over block ids inside one loop, and
    every taken edge ``(src, dst)`` bumps its own local counter.
    """
    blocks = cdfg.blocks
    kind_of = dict(zip(cdfg.arrays, kinds))
    namespace: Dict[str, object] = {"_oob": _oob,
                                    "_int64_overflow": _int64_overflow}
    arrays: Dict[str, int] = {}
    variables: Dict[str, str] = {}
    edges: Dict[Tuple[int, int], str] = {}
    #: block id -> its name and its live-in reads, in node order
    reads: Dict[int, Tuple[str, List[Tuple[str, str]]]] = {}

    def var(name: str) -> str:
        return variables.setdefault(name, f"e{len(variables)}")

    def counter(src: int, dst: int) -> str:
        return edges.setdefault((src, dst), f"c{src}_{dst}")

    def block_source(block: BasicBlock) -> List[str]:
        where = f"{cdfg.name!r}, {block.name!r}"
        block_reads: List[Tuple[str, str]] = []
        reads[block.block_id] = (block.name, block_reads)
        term = block.terminator
        nodes = block.dfg.nodes
        used = {o for node in nodes for o in node.operands}
        used.update(block.outputs.values())
        refs: Dict[int, str] = {}
        lines: List[str] = []
        for node in nodes:
            nid, opcode = node.node_id, node.opcode
            ops = [refs[o] for o in node.operands]
            if opcode is Opcode.CONST:
                value = node.value
                if type(value) in (int, bool) or (
                        type(value) is float and math.isfinite(value)):
                    refs[nid] = f"({value!r})"
                else:  # inf, nan, numpy scalars: no literal spelling
                    refs[nid] = f"_k{len(namespace)}"
                    namespace[refs[nid]] = value
                continue
            refs[nid] = f"v{nid}"
            if opcode is Opcode.INPUT:
                expr = var(node.var)
                block_reads.append((node.var, expr))
            elif opcode is Opcode.LOAD or opcode is Opcode.STORE:
                array = node.array
                if array not in arrays:
                    arrays[array] = len(arrays)
                m = f"m{arrays[array]}"
                lines.append(f"_i = int({ops[0]})")
                lines.append(f"if not 0 <= _i < n{arrays[array]}: "
                             f"_oob({where}, {array!r}, _i)")
                kind = kind_of[array]
                if opcode is Opcode.LOAD:
                    expr = f"{m}[_i].item()" if kind == "numpy" \
                        else f"{m}[_i]"
                elif kind == "int":
                    lines.append(f"_v = int({ops[1]})")
                    lines.append("if not -0x8000000000000000 <= _v <= "
                                 "0x7fffffffffffffff: _int64_overflow()")
                    lines.append(f"{m}[_i] = _v")
                    continue
                else:
                    value = f"float({ops[1]})" if kind == "float" \
                        else ops[1]
                    lines.append(f"{m}[_i] = {value}")
                    continue
            elif opcode in _INLINE_BINOPS:
                expr = f"{ops[0]} {_INLINE_BINOPS[opcode]} {ops[1]}"
                if opcode in _COMPARE_OPS:
                    if isinstance(term, Branch) and term.cond == nid \
                            and nid not in used:
                        # Only the branch reads it: test the bool directly.
                        refs[nid] = expr
                        continue
                    expr = f"int({expr})"
            elif opcode is Opcode.SELECT:
                expr = f"{ops[1]} if {ops[0]} else {ops[2]}"
            elif opcode is Opcode.MIN:  # min(a, b) is b if b < a else a
                expr = f"{ops[1]} if {ops[1]} < {ops[0]} else {ops[0]}"
            elif opcode is Opcode.MAX:
                expr = f"{ops[1]} if {ops[1]} > {ops[0]} else {ops[0]}"
            elif opcode is Opcode.NEG:
                expr = f"-{ops[0]}"
            else:
                # Delegate to the canonical evaluate function so both
                # engines share one definition of the tricky semantics
                # (C-style div/mod, 32-bit logic, nonlinear ops).
                helper = f"_{opcode.name}"
                namespace[helper] = op_info(opcode).evaluate
                expr = f"{helper}({', '.join(ops)})"
            lines.append(f"v{nid} = {expr}")
        for name, nid in block.outputs.items():
            lines.append(f"{var(name)} = {refs[nid]}")
        bid = block.block_id
        if isinstance(term, Jump):
            lines += [f"{counter(bid, term.target)} += 1",
                      f"bid = {term.target}", "continue"]
        elif isinstance(term, Branch):
            t, f = term.if_true, term.if_false
            lines += [f"if {refs[term.cond]}:",
                      f"    {counter(bid, t)} += 1", f"    bid = {t}",
                      "else:",
                      f"    {counter(bid, f)} += 1", f"    bid = {f}",
                      "continue"]
        else:
            lines.append("break")
        return lines

    def dispatch(lo: int, hi: int, indent: str) -> List[str]:
        if hi - lo == 1:
            return [indent + line for line in block_source(blocks[lo])]
        mid = (lo + hi) // 2
        return ([f"{indent}if bid < {mid}:"]
                + dispatch(lo, mid, indent + "    ")
                + [f"{indent}else:"]
                + dispatch(mid, hi, indent + "    "))

    body = dispatch(0, len(blocks), " " * 12)
    edge_keys = sorted(edges)
    namespace["_EDGES"] = edge_keys
    namespace["_VARS"] = list(variables.items())
    # Neither helper may hold the CDFG: the cache's weak key would then
    # be kept alive by its own value.
    namespace["_unbound"] = functools.partial(_read_before_assignment,
                                              cdfg.name, reads)
    namespace["_exceeded"] = functools.partial(_exceeded, cdfg.name)
    lines = ["def _kernel(env, mem, max_steps):"]
    for name, index in arrays.items():
        lines.append(f"    m{index} = mem[{name!r}]")
        lines.append(f"    n{index} = len(m{index})")
    for name, local in variables.items():
        lines.append(f"    if {name!r} in env: {local} = env[{name!r}]")
    lines.append(("    " + " = ".join(edges[e] for e in edge_keys) + " = 0")
                 if edges else "    pass")
    lines += [
        "    steps = 0",
        f"    bid = {cdfg.entry}",
        "    try:",
        "        while True:",
        "            steps += 1",
        "            if steps > max_steps: _exceeded(max_steps)",
    ] + body + [
        "    except UnboundLocalError:",
        "        _unbound(bid, locals())",
        "        raise",
        "    frame = locals()",
        "    for name, local in _VARS:",
        "        if local in frame: env[name] = frame[local]",
        "    counts = (" + "".join(f"{edges[e]}, " for e in edge_keys) + ")",
        "    return steps, {e: n for e, n in zip(_EDGES, counts) if n}, env",
    ]
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from trusted IR
    return namespace["_kernel"]


def _read_before_assignment(
        kernel: str, reads: Dict[int, Tuple[str, List[Tuple[str, str]]]],
        bid: int, frame: Dict[str, object]) -> None:
    """Name the first live-in of block ``bid`` still unbound in ``frame``."""
    block, block_reads = reads[bid]
    for name, local in block_reads:
        if local not in frame:
            raise InterpreterError(
                f"{kernel}/{block}: variable {name!r} read before assignment"
            ) from None


def _exceeded(kernel: str, max_steps: int) -> None:
    raise InterpreterError(
        f"kernel {kernel!r} exceeded {max_steps} block "
        "executions; non-terminating?"
    )


#: Compiled kernels, cached per CDFG object (weakly, so a discarded
#: kernel frees its code) and per tuple of array storage kinds, the only
#: other input the generated code depends on.  Workload instances,
#: repeated ``run()`` calls and tests re-interpret the same sealed CDFG
#: many times, so pay the compile once.
_KERNELS: "weakref.WeakKeyDictionary[CDFG, Dict[Tuple[str, ...], Callable]]" = (
    weakref.WeakKeyDictionary()
)


def _compiled(cdfg: CDFG, kinds: Tuple[str, ...]) -> Callable:
    by_kinds = _KERNELS.setdefault(cdfg, {})
    if kinds not in by_kinds:
        by_kinds[kinds] = _compile(cdfg, kinds)
    return by_kinds[kinds]


class Interpreter:
    """Executes a CDFG against concrete memory and parameters."""

    def __init__(self, cdfg: CDFG, *, engine: str = "compiled") -> None:
        if engine not in ("compiled", "walking"):
            raise InterpreterError(f"unknown engine {engine!r}")
        self.cdfg = cdfg
        self.engine = engine

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
        arrays: Dict[str, np.ndarray] = {}
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
            arrays[name] = array
        if self.engine == "compiled":
            kinds = tuple(_LIST_KINDS.get(a.dtype, "numpy")
                          for a in arrays.values())
            # tolist() copies: no numpy copy stays alive beside a list.
            storage = {name: a.tolist() if kind != "numpy" else a.copy()
                       for (name, a), kind in zip(arrays.items(), kinds)}
            steps, edge_counts, env = _compiled(self.cdfg, kinds)(
                params, storage, max_steps
            )
            mem = {name: np.array(storage[name], dtype=a.dtype)
                   if kind != "numpy" else storage[name]
                   for (name, a), kind in zip(arrays.items(), kinds)}
            trace = DynamicTrace(self.cdfg.name, self.cdfg.entry,
                                 edge_counts)
            return ExecutionResult(mem, env, trace, steps)

        mem = {name: array.copy() for name, array in arrays.items()}
        env = params
        steps = 0
        blocks = self.cdfg.blocks
        # Taken transfers, flattened: edges[src * n_blocks + dst].
        n_blocks = len(blocks)
        edges = [0] * (n_blocks * n_blocks)
        bid = self.cdfg.entry
        while True:
            steps += 1
            if steps > max_steps:
                _exceeded(self.cdfg.name, max_steps)
            block = blocks[bid]
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
