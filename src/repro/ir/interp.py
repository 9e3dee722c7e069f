"""Functional interpreter for CDFGs, with dynamic trace capture.

Two execution engines share one semantics:

* the **compiled** engine translates a whole CDFG into one Python
  function (cached per CDFG, per tuple of array storage kinds and per
  set of parameters passed as anything but an exact ``int``) — fast
  enough to run the paper-sized workloads of Table 5.  Environment
  variables are locals, innermost loops run as Python ``while`` loops
  and reconverging branches as ``if``/``else``, with a binary tree over
  block ids dispatching only at the remaining region heads (see
  :class:`_Layout`); edge counts are local counters, int64/float64
  arrays run as Python lists that go back to numpy at halt (other dtypes
  keep numpy storage), and values proven to be Python ints (see
  :func:`_proven_ints`) skip their ``int()`` conversions;
* the **walking** engine dispatches on :mod:`repro.ir.ops` evaluate
  functions node by node over numpy memory — slow, but independent, and
  used by tests as the reference for the compiled engine.

Both engines execute blocks in node-creation order (a topological order that
equals program order), apply live-out bindings to the environment at block
end, and follow terminators until ``Halt``, counting every taken transfer
into the :class:`~repro.ir.trace.DynamicTrace` edge table.
"""

from __future__ import annotations

import collections
import functools
import math
import weakref
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Set, Tuple)

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

#: opcodes whose value is a Python int whatever their operands: a
#: compare read as a value is wrapped in ``int()``, and the 32-bit logic
#: ops mask an ``int()`` of their operands
_INT_RESULT = _COMPARE_OPS | {Opcode.AND, Opcode.OR, Opcode.XOR,
                              Opcode.NOT, Opcode.SHL, Opcode.SHR}

#: opcodes whose value is a Python int when every operand is one
_INT_CLOSED = {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MIN, Opcode.MAX,
               Opcode.NEG, Opcode.ABS, Opcode.DIV, Opcode.MOD}


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


#: Statement nesting a region may reach below its dispatch branch; the
#: tokenizer refuses more than 100 indentation levels in all.
_MAX_DEPTH = 64

#: Every block execution starts by spending one step of the budget.
_STEP = ("steps += 1", "if steps > max_steps: _exceeded(max_steps)")

#: A generated line: indentation depth, text, and the block it belongs to.
_Line = Tuple[int, str, Optional[int]]


class _Layout:
    """Where each block of a CDFG goes in its compiled function.

    The function dispatches on ``bid`` only at *region heads*; between
    heads, control flow is Python's own:

    1. The heads are chosen first: the entry, the headers of loops that
       contain loops or fail rule 2, and every block the rules below
       cannot place.  Each head's region is then emitted once and never
       inlines another head, so every block is emitted exactly once.
    2. An innermost loop runs as ``while True:`` when its header's
       branch has one target inside the loop and one outside, and every
       other edge out of a body block stays in the loop or returns to
       the header.  The exit arm breaks, a back edge continues, and
       emission goes on after the loop at the exit target.
    3. A two-way branch runs as ``if``/``else`` and emission goes on at
       its immediate post-dominator, the merge, when the merge is no
       head, is not placed yet, is not where an enclosing ``if`` goes on
       already, and lies inside the current ``while`` body, if any.  An
       arm that reaches the merge falls through to it.
    4. A block with one predecessor edge (a ``while`` header: one from
       outside its loop) is inlined at that edge.  Any other transfer is
       ``bid = target`` plus ``continue``, and the target is a head.
    5. Only innermost loops become ``while`` loops, so at most one
       ``while`` nests inside the dispatch loop.

    A block the rules cannot place where it is reached -- a second entry
    into it, or nesting past :data:`_MAX_DEPTH` -- becomes a head, and
    the layout is redone until none is left.  A ``while`` loop with a
    head in its body is laid out block by block instead.  With every
    block a head, the layout is plain per-block dispatch.
    """

    def __init__(self, cdfg: CDFG) -> None:
        self.blocks = cdfg.blocks
        self.ipdom = cdfg.cfg.immediate_post_dominators()
        #: predecessor edges per block
        self.preds = collections.Counter(
            s for block in self.blocks for s in block.successors())
        #: innermost loops that pass the ``while`` test: header -> blocks
        self.loops: Dict[int, FrozenSet[int]] = {}
        #: per header in :attr:`loops`, its predecessor edges from outside
        #: the loop (the rest are back edges)
        self.outside: Dict[int, int] = {}
        heads = {cdfg.entry}
        for header, nest in cdfg.loop_nests().items():
            blocks = frozenset(nest.blocks)
            if nest.children or not self._while_shaped(header, blocks):
                heads.add(header)
                continue
            self.loops[header] = blocks
            self.outside[header] = sum(
                s == header for block in self.blocks
                if block.block_id not in blocks
                for s in block.successors())
        while True:
            self.heads = frozenset(heads)
            missing = self.regions(lambda bid: ((), "_"))[1]
            if not missing:
                break
            heads |= missing

    def _while_shaped(self, header: int, blocks: FrozenSet[int]) -> bool:
        """Rule 2's test (a natural loop's blocks never halt)."""
        term = self.blocks[header].terminator
        if not isinstance(term, Branch) or \
                (term.if_true in blocks) == (term.if_false in blocks):
            return False
        return all(s in blocks for bid in blocks if bid != header
                   for s in self.blocks[bid].successors())

    def regions(self, source: Callable[[int], Tuple[Sequence[str], str]]
                ) -> Tuple[Dict[int, List[_Line]], Set[int]]:
        """The code of each head's region, at depths from 0, and the
        blocks that must also become heads for it to be valid.

        ``source(bid)`` gives a block's straight-line code and its
        branch test.
        """
        heads = self.heads
        whiles = {h: blocks for h, blocks in self.loops.items()
                  if not heads & (blocks - {h})}
        placed: Set[int] = set()
        missing: Set[int] = set()
        out: List[_Line] = []

        def count(src: int, dst: int, depth: int) -> None:
            out.append((depth, f"c{src}_{dst} += 1", src))

        def go(src: int, dst: int, depth: int, loop: Optional[int],
               stop: Optional[int]) -> bool:
            """Leave ``src`` for ``dst``; True when ``dst`` is inlined."""
            if dst == stop:  # fall through to the merge
                return False
            if dst == loop:
                out.append((depth, "continue", src))
                return False
            if dst in heads:
                assert loop is None, "a while body never dispatches"
                out.append((depth, f"bid = {dst}", src))
                out.append((depth, "continue", src))
                return False
            entries = self.outside[dst] if dst in whiles else self.preds[dst]
            if entries == 1 and depth < _MAX_DEPTH:
                return True
            missing.add(dst)
            return False

        def region(bid: int, depth: int, loop: Optional[int],
                   stop: Optional[int]) -> None:
            while True:
                if bid in placed:
                    missing.add(bid)
                    return
                placed.add(bid)
                lines, test = source(bid)
                term = self.blocks[bid].terminator
                if bid in whiles:
                    stay, leave = term.if_true, term.if_false
                    exit_test = f"not ({test})"
                    if stay not in whiles[bid]:
                        stay, leave, exit_test = leave, stay, test
                    out.append((depth, "while True:", bid))
                    out.extend((depth + 1, line, bid)
                               for line in _STEP + tuple(lines))
                    out.append((depth + 1, f"if {exit_test}:", bid))
                    count(bid, leave, depth + 2)
                    out.append((depth + 2, "break", bid))
                    count(bid, stay, depth + 1)
                    if go(bid, stay, depth + 1, bid, None):
                        region(stay, depth + 1, bid, None)
                    if not go(bid, leave, depth, None, stop):
                        return
                    bid = leave
                    continue
                out.extend((depth, line, bid)
                           for line in _STEP + tuple(lines))
                if isinstance(term, Jump):
                    count(bid, term.target, depth)
                    if not go(bid, term.target, depth, loop, stop):
                        return
                    bid = term.target
                    continue
                if not isinstance(term, Branch):
                    out.append((depth, "break", bid))
                    return
                merge = self.ipdom.get(bid)
                if merge in heads or merge in placed or merge == stop or (
                        loop is not None and (merge == loop
                                              or merge not in whiles[loop])):
                    merge = None
                arm_stop = stop if merge is None else merge
                for opener, dst in ((f"if {test}:", term.if_true),
                                    ("else:", term.if_false)):
                    out.append((depth, opener, bid))
                    count(bid, dst, depth + 1)
                    if go(bid, dst, depth + 1, loop, arm_stop):
                        region(dst, depth + 1, loop, arm_stop)
                if merge is None:
                    return
                bid = merge

        code: Dict[int, List[_Line]] = {}
        for head in sorted(heads):
            start = len(out)
            region(head, 0, None, None)
            code[head] = out[start:]
        missing.update(set(range(len(self.blocks))) - placed)
        return code, missing


def _proven_ints(cdfg: CDFG, kind_of: Mapping[str, str],
                 loose: FrozenSet[str]) -> List[Set[int]]:
    """Per block id, the nodes whose value is always an exact Python
    ``int`` in the compiled engine -- never a ``bool``, which prints and
    stores differently.

    ``kind_of`` maps each array to its storage kind, and ``loose`` names
    the parameters passed as anything but an exact ``int``.  A node is
    int when it is an ``int`` literal, a read of an int variable, a load
    from ``"int"`` storage, an op in :data:`_INT_RESULT`, an op in
    :data:`_INT_CLOSED` over int operands, or a SELECT between int arms.
    Variables form a greatest fixpoint: each is int until a block
    assigns it a value not proven int, or it is ``loose``.  A read
    before any assignment raises, so every value a variable holds came
    from the parameters or from one of its definitions.
    """
    not_int = set(loose)
    while True:
        ints: List[Set[int]] = []
        for block in cdfg.blocks:
            proven: Set[int] = set()
            for node in block.dfg.nodes:
                opcode = node.opcode
                if opcode is Opcode.CONST:
                    is_int = type(node.value) is int
                elif opcode is Opcode.INPUT:
                    is_int = node.var not in not_int
                elif opcode is Opcode.LOAD:
                    is_int = kind_of[node.array] == "int"
                elif opcode is Opcode.SELECT:
                    is_int = proven.issuperset(node.operands[1:])
                else:
                    is_int = opcode in _INT_RESULT or (
                        opcode in _INT_CLOSED
                        and proven.issuperset(node.operands))
                if is_int:
                    proven.add(node.node_id)
            ints.append(proven)
        demoted = {name for block, proven in zip(cdfg.blocks, ints)
                   for name, nid in block.outputs.items()
                   if nid not in proven and name not in not_int}
        if not demoted:
            return ints
        not_int |= demoted


def _compile(cdfg: CDFG, kinds: Tuple[str, ...],
             loose: FrozenSet[str]) -> Callable:
    """Translate ``cdfg`` into one Python function over ``kinds`` storage.

    The function has signature ``fn(env, mem, max_steps) -> (steps,
    edge_counts, env)``: ``env`` holds the parameters on entry and the
    final environment on return, and ``mem`` maps array name to its
    storage (a list for the ``"int"``/``"float"`` kinds, else the numpy
    array), updated in place.  Environment variables are locals, control
    flow is laid out by :class:`_Layout` (a binary tree over ``bid``
    dispatches to region heads only), and every taken edge ``(src,
    dst)`` bumps its own local counter.

    ``loose`` names the parameters ``env`` may hold as anything but an
    exact ``int``; the values :func:`_proven_ints` then proves int skip
    their ``int()`` calls.
    """
    blocks = cdfg.blocks
    kind_of = dict(zip(cdfg.arrays, kinds))
    ints = _proven_ints(cdfg, kind_of, loose)
    namespace: Dict[str, object] = {"_oob": _oob,
                                    "_int64_overflow": _int64_overflow}
    arrays: Dict[str, int] = {}
    variables: Dict[str, str] = {}
    #: block id -> its name and its live-in reads, in node order
    reads: Dict[int, Tuple[str, List[Tuple[str, str]]]] = {}

    def var(name: str) -> str:
        return variables.setdefault(name, f"e{len(variables)}")

    def block_source(block: BasicBlock) -> Tuple[List[str], str]:
        """The block's straight-line code and its branch test."""
        where = f"{cdfg.name!r}, {block.name!r}"
        block_reads: List[Tuple[str, str]] = []
        reads[block.block_id] = (block.name, block_reads)
        term = block.terminator
        nodes = block.dfg.nodes
        proven = ints[block.block_id]
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
                index = ops[0]
                if node.operands[0] not in proven:
                    lines.append(f"_i = int({index})")
                    index = "_i"
                lines.append(f"if not 0 <= {index} < n{arrays[array]}: "
                             f"_oob({where}, {array!r}, {index})")
                kind = kind_of[array]
                if opcode is Opcode.LOAD:
                    expr = f"{m}[{index}].item()" if kind == "numpy" \
                        else f"{m}[{index}]"
                elif kind == "int":
                    value = ops[1]
                    if node.operands[1] not in proven:
                        lines.append(f"_v = int({value})")
                        value = "_v"
                    lines.append(f"if not -0x8000000000000000 <= {value} <= "
                                 "0x7fffffffffffffff: _int64_overflow()")
                    lines.append(f"{m}[{index}] = {value}")
                    continue
                else:
                    value = f"float({ops[1]})" if kind == "float" \
                        else ops[1]
                    lines.append(f"{m}[{index}] = {value}")
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
            elif opcode in (Opcode.DIV, Opcode.MOD) \
                    and proven.issuperset(node.operands) \
                    and nodes[node.operands[1]].opcode is Opcode.CONST \
                    and nodes[node.operands[1]].value > 0:
                # An int over an int literal above zero: C-style,
                # truncating toward zero, and no zero divisor.
                a, c = ops
                sym = "//" if opcode is Opcode.DIV else "%"
                expr = f"{a} {sym} {c} if {a} >= 0 else -(-{a} {sym} {c})"
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
        test = refs[term.cond] if isinstance(term, Branch) else ""
        return lines, test

    sources = [block_source(block) for block in blocks]
    layout = _Layout(cdfg)
    code, missing = layout.regions(sources.__getitem__)
    assert not missing

    def dispatch(heads: List[int], depth: int) -> List[_Line]:
        if len(heads) == 1:
            return [(depth + d, line, bid) for d, line, bid in code[heads[0]]]
        mid = len(heads) // 2
        return ([(depth, f"if bid < {heads[mid]}:", None)]
                + dispatch(heads[:mid], depth + 1)
                + [(depth, "else:", None)]
                + dispatch(heads[mid:], depth + 1))

    edge_keys = sorted(set(cdfg.cfg.edges()))
    counters = [f"c{src}_{dst}" for src, dst in edge_keys]
    namespace["_EDGES"] = edge_keys
    namespace["_VARS"] = list(variables.items())
    lines = ["def _kernel(env, mem, max_steps):"]
    for name, index in arrays.items():
        lines.append(f"    m{index} = mem[{name!r}]")
        lines.append(f"    n{index} = len(m{index})")
    for name, local in variables.items():
        lines.append(f"    if {name!r} in env: {local} = env[{name!r}]")
    lines.append(("    " + " = ".join(counters) + " = 0")
                 if counters else "    pass")
    lines += ["    steps = 0", f"    bid = {cdfg.entry}", "    try:",
              "        while True:"]
    #: line number -> the block it belongs to, to name a failing read
    block_at: List[Optional[int]] = [None] * (len(lines) + 1)
    for depth, line, bid in dispatch(sorted(layout.heads), 3):
        lines.append("    " * depth + line)
        block_at.append(bid)
    lines += [
        "    except UnboundLocalError as error:",
        "        _unbound(error.__traceback__.tb_lineno, locals())",
        "        raise",
        "    frame = locals()",
        "    for name, local in _VARS:",
        "        if local in frame: env[name] = frame[local]",
        "    counts = (" + "".join(f"{c}, " for c in counters) + ")",
        "    return steps, {e: n for e, n in zip(_EDGES, counts) if n}, env",
    ]
    # Neither helper may hold the CDFG: the cache's weak key would then
    # be kept alive by its own value.
    namespace["_unbound"] = functools.partial(
        _read_before_assignment, cdfg.name,
        [None if bid is None else reads[bid] for bid in block_at])
    namespace["_exceeded"] = functools.partial(_exceeded, cdfg.name)
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from trusted IR
    return namespace["_kernel"]


def _read_before_assignment(
        kernel: str,
        reads: List[Optional[Tuple[str, List[Tuple[str, str]]]]],
        line: int, frame: Dict[str, object]) -> None:
    """Name the first live-in still unbound in ``frame`` of the block
    that ``line`` of the compiled function belongs to."""
    if line >= len(reads) or reads[line] is None:
        return
    block, block_reads = reads[line]
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
#: kernel frees its code), per tuple of array storage kinds and per set
#: of parameters passed as anything but an exact ``int``, the only other
#: inputs the generated code depends on.  Workload instances, repeated
#: ``run()`` calls and tests re-interpret the same sealed CDFG many
#: times, so pay the compile once.
_Key = Tuple[Tuple[str, ...], FrozenSet[str]]
_KERNELS: "weakref.WeakKeyDictionary[CDFG, Dict[_Key, Callable]]" = (
    weakref.WeakKeyDictionary()
)


def _compiled(cdfg: CDFG, kinds: Tuple[str, ...],
              loose: FrozenSet[str]) -> Callable:
    by_key = _KERNELS.setdefault(cdfg, {})
    if (kinds, loose) not in by_key:
        by_key[kinds, loose] = _compile(cdfg, kinds, loose)
    return by_key[kinds, loose]


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
            loose = frozenset(name for name, value in params.items()
                              if type(value) is not int)
            steps, edge_counts, env = _compiled(self.cdfg, kinds, loose)(
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
