"""KernelBuilder: a small DSL that constructs CDFGs.

This replaces the paper's annotated-C + modified-Clang frontend.  Kernels are
written as straight-line Python that *emits* IR; structured control flow is
expressed with context managers::

    k = KernelBuilder("saxpy")
    n = k.param("n")
    k.array("x"); k.array("y")
    with k.loop("i", 0, n) as i:
        xi = k.load("x", i)
        yi = k.load("y", i)
        k.store("y", i, xi * 2 + yi)
    cdfg = k.build()

Branches::

    with k.branch(a < b) as br:
        ...            # taken path
    with br.orelse():
        ...            # not-taken path

Values flow across blocks through named variables; a :class:`Value` produced
in one block and used in another is automatically spilled to a synthetic
variable (the CDFG live-in/live-out mechanism the mapper sees).
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Union

from repro.errors import BuilderError
from repro.ir.cdfg import CDFG
from repro.ir.cfg import BasicBlock, BlockRole, Branch, CFG, Halt, Jump
from repro.ir.dfg import NodeId
from repro.ir.ops import Opcode

Number = Union[int, float]
Operand = Union["Value", int, float]


class Value:
    """A handle to either a DFG node or a named variable.

    Node-backed values remember the block that produced them; variable-backed
    values resolve to a fresh ``INPUT`` read at each point of use, which is
    what gives loop variables their per-iteration semantics.
    """

    __slots__ = ("builder", "block_id", "node_id", "var")

    def __init__(self, builder: "KernelBuilder",
                 block_id: Optional[int] = None,
                 node_id: Optional[NodeId] = None,
                 var: Optional[str] = None) -> None:
        if (node_id is None) == (var is None):
            raise BuilderError("Value must be node-backed xor variable-backed")
        self.builder = builder
        self.block_id = block_id
        self.node_id = node_id
        self.var = var

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.ADD, self, other)

    def __radd__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.ADD, other, self)

    def __sub__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.SUB, self, other)

    def __rsub__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.SUB, other, self)

    def __mul__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.MUL, self, other)

    def __rmul__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.MUL, other, self)

    def __truediv__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.DIV, self, other)

    def __rtruediv__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.DIV, other, self)

    def __floordiv__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.DIV, self, other)

    def __rfloordiv__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.DIV, other, self)

    def __mod__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.MOD, self, other)

    def __neg__(self) -> "Value":
        return self.builder.op(Opcode.NEG, self)

    # -- bitwise -------------------------------------------------------
    def __and__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.AND, self, other)

    def __or__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.OR, self, other)

    def __xor__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.XOR, self, other)

    def __invert__(self) -> "Value":
        return self.builder.op(Opcode.NOT, self)

    def __lshift__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.SHL, self, other)

    def __rshift__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.SHR, self, other)

    # -- comparisons (return IR values, not Python bools) ---------------
    def __lt__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.LT, self, other)

    def __le__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.LE, self, other)

    def __gt__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.GT, self, other)

    def __ge__(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.GE, self, other)

    def eq(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.EQ, self, other)

    def ne(self, other: Operand) -> "Value":
        return self.builder.op(Opcode.NE, self, other)

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:  # identity, not IR equality
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.var is not None:
            return f"Value(%{self.var})"
        return f"Value(bb{self.block_id}:n{self.node_id})"


class BranchScope:
    """Context handle returned by :meth:`KernelBuilder.branch`."""

    def __init__(self, builder: "KernelBuilder", then_blk: BasicBlock,
                 else_blk: BasicBlock, merge_blk: BasicBlock) -> None:
        self._builder = builder
        self._then = then_blk
        self._else = else_blk
        self._merge = merge_blk
        self._then_done = False
        self._else_done = False

    # The scope itself acts as the "then" context manager.
    def __enter__(self) -> "BranchScope":
        if self._then_done:
            raise BuilderError("branch 'then' arm entered twice")
        self._builder._current = self._then
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        self._then_done = True
        self._builder._seal_to(self._merge)

    @contextlib.contextmanager
    def orelse(self):
        """Open the not-taken arm."""
        if not self._then_done:
            raise BuilderError("orelse() before the 'then' arm completed")
        if self._else_done:
            raise BuilderError("branch 'orelse' arm entered twice")
        # Clear the pre-sealed jump so the arm is open for emission.
        self._else.terminator = None
        self._builder._current = self._else
        try:
            yield self
        finally:
            self._else_done = True
            self._builder._seal_to(self._merge)


class KernelBuilder:
    """Constructs a :class:`~repro.ir.cdfg.CDFG` imperatively."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._cfg = CFG()
        self._current: BasicBlock = self._cfg.new_block("entry")
        self._params: List[str] = []
        self._arrays: List[str] = []
        self._tmp_counter = 0
        self._loop_counter = 0
        self._branch_counter = 0
        #: per-block map of variables assigned within the block
        self._block_defs: Dict[int, Dict[str, NodeId]] = {}
        self._built = False

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def param(self, name: str) -> Value:
        """Declare a runtime scalar parameter; returns a variable value."""
        if name in self._params:
            raise BuilderError(f"parameter {name!r} declared twice")
        self._params.append(name)
        return Value(self, var=name)

    def array(self, name: str) -> str:
        """Declare a scratchpad array used by loads/stores."""
        if name not in self._arrays:
            self._arrays.append(name)
        return name

    # ------------------------------------------------------------------
    # Low-level emission
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._built:
            raise BuilderError("builder already finalized by build()")
        if self._current.terminator is not None:
            raise BuilderError(
                f"emitting into sealed block {self._current.name!r}"
            )

    def _as_node(self, operand: Operand) -> NodeId:
        """Materialise ``operand`` as a node id in the current block."""
        block = self._current
        if isinstance(operand, (int, float)):
            return block.dfg.const(operand)
        if not isinstance(operand, Value):
            raise BuilderError(f"cannot use {operand!r} as an IR operand")
        if operand.builder is not self:
            raise BuilderError("value belongs to a different KernelBuilder")
        if operand.var is not None:
            defs = self._block_defs.get(block.block_id, {})
            if operand.var in defs:
                return defs[operand.var]
            return block.dfg.input(operand.var)
        if operand.block_id == block.block_id:
            assert operand.node_id is not None
            return operand.node_id
        # Cross-block use: spill through a synthetic variable.
        assert operand.block_id is not None and operand.node_id is not None
        producer = self._cfg.block(operand.block_id)
        spill = f".t{operand.block_id}_{operand.node_id}"
        producer.outputs.setdefault(spill, operand.node_id)
        defs = self._block_defs.get(block.block_id, {})
        if spill in defs:  # pragma: no cover - defensive
            return defs[spill]
        return block.dfg.input(spill)

    def _wrap(self, node_id: NodeId) -> Value:
        return Value(self, block_id=self._current.block_id, node_id=node_id)

    # ------------------------------------------------------------------
    # Public op helpers
    # ------------------------------------------------------------------
    def op(self, opcode: Opcode, *operands: Operand) -> Value:
        """Emit one ``opcode`` node over ``operands``, in order."""
        self._check_open()
        nodes = tuple(self._as_node(operand) for operand in operands)
        return self._wrap(self._current.dfg.add(opcode, nodes))

    def const(self, value: Number) -> Value:
        self._check_open()
        return self._wrap(self._current.dfg.const(value))

    def load(self, array: str, index: Operand) -> Value:
        self._check_open()
        if array not in self._arrays:
            raise BuilderError(f"array {array!r} not declared")
        idx = self._as_node(index)
        return self._wrap(
            self._current.dfg.add(Opcode.LOAD, (idx,), array=array)
        )

    def store(self, array: str, index: Operand, value: Operand) -> None:
        self._check_open()
        if array not in self._arrays:
            raise BuilderError(f"array {array!r} not declared")
        idx = self._as_node(index)
        val = self._as_node(value)
        self._current.dfg.add(Opcode.STORE, (idx, val), array=array)

    def minimum(self, a: Operand, b: Operand) -> Value:
        return self.op(Opcode.MIN, a, b)

    def maximum(self, a: Operand, b: Operand) -> Value:
        return self.op(Opcode.MAX, a, b)

    def absolute(self, a: Operand) -> Value:
        return self.op(Opcode.ABS, a)

    def select(self, cond: Operand, if_true: Operand,
               if_false: Operand) -> Value:
        """Predicated selection: ``cond ? if_true : if_false``."""
        return self.op(Opcode.SELECT, cond, if_true, if_false)

    def log(self, a: Operand) -> Value:
        return self.op(Opcode.LOG, a)

    def exp(self, a: Operand) -> Value:
        return self.op(Opcode.EXP, a)

    def sqrt(self, a: Operand) -> Value:
        return self.op(Opcode.SQRT, a)

    def sigmoid(self, a: Operand) -> Value:
        return self.op(Opcode.SIGMOID, a)

    def sin(self, a: Operand) -> Value:
        return self.op(Opcode.SIN, a)

    def cos(self, a: Operand) -> Value:
        return self.op(Opcode.COS, a)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def set(self, name: str, value: Operand) -> Value:
        """Assign variable ``name``; later reads in any block see it."""
        self._check_open()
        node = self._as_node(value)
        block = self._current
        block.outputs[name] = node
        self._block_defs.setdefault(block.block_id, {})[name] = node
        return Value(self, var=name)

    def get(self, name: str) -> Value:
        """Read variable ``name`` (resolved at each point of use)."""
        return Value(self, var=name)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _seal_to(self, target: BasicBlock) -> None:
        """Seal the current block with a jump to ``target`` (if open) and
        make ``target`` current."""
        if self._current.terminator is None:
            self._current.terminator = Jump(target.block_id)
        self._current = target

    @contextlib.contextmanager
    def loop(self, var: str, start: Operand, stop: Operand,
             step: Operand = 1):
        """A counted loop ``for var in range(start, stop, step)``.

        ``step`` must be a positive compile-time constant; the loop condition
        is ``var < stop``, re-evaluated in the loop header each iteration.
        """
        self._check_open()
        if isinstance(step, (int, float)) and step <= 0:
            raise BuilderError("loop step must be positive")
        self._loop_counter += 1
        tag = f"{var}{self._loop_counter}"

        self.set(var, start)
        header = self._cfg.new_block(f"loop_{tag}_head", BlockRole.LOOP_HEADER)
        header.loop_var = var
        body = self._cfg.new_block(f"loop_{tag}_body", BlockRole.LOOP_BODY)
        after = self._cfg.new_block(f"loop_{tag}_after", BlockRole.MERGE)
        self._current.terminator = Jump(header.block_id)

        self._current = header
        cond = self.get(var) < stop
        assert cond.node_id is not None
        header.terminator = Branch(
            cond.node_id, body.block_id, after.block_id, is_loop_branch=True
        )

        self._current = body
        try:
            yield Value(self, var=var)
        finally:
            # Increment in whatever block the body ended in, then back-edge.
            self._check_open()
            self.set(var, self.get(var) + step)
            self._current.terminator = Jump(header.block_id)
            self._current = after

    @contextlib.contextmanager
    def while_(self, cond_fn, *, name: str = "while"):
        """A while loop; ``cond_fn()`` is invoked to build the condition in
        the header block each time the builder lays it out."""
        self._check_open()
        self._loop_counter += 1
        tag = f"{name}{self._loop_counter}"
        header = self._cfg.new_block(f"{tag}_head", BlockRole.LOOP_HEADER)
        body = self._cfg.new_block(f"{tag}_body", BlockRole.LOOP_BODY)
        after = self._cfg.new_block(f"{tag}_after", BlockRole.MERGE)
        self._current.terminator = Jump(header.block_id)

        self._current = header
        cond = cond_fn()
        if not isinstance(cond, Value) or cond.node_id is None:
            raise BuilderError("while_ condition must be a node-backed Value")
        if cond.block_id != header.block_id:
            cond_id = self._as_node(cond)
        else:
            cond_id = cond.node_id
        header.terminator = Branch(
            cond_id, body.block_id, after.block_id, is_loop_branch=True
        )

        self._current = body
        try:
            yield
        finally:
            self._check_open()
            self._current.terminator = Jump(header.block_id)
            self._current = after

    def branch(self, cond: Operand, *, name: str = "br") -> BranchScope:
        """Open a two-way branch; use as ``with k.branch(c) as br: ...`` and
        optionally ``with br.orelse(): ...``."""
        self._check_open()
        self._branch_counter += 1
        tag = f"{name}{self._branch_counter}"
        cond_id = self._as_node(cond)
        then_blk = self._cfg.new_block(f"{tag}_then", BlockRole.BRANCH_ARM)
        else_blk = self._cfg.new_block(f"{tag}_else", BlockRole.BRANCH_ARM)
        merge_blk = self._cfg.new_block(f"{tag}_merge", BlockRole.MERGE)
        self._current.terminator = Branch(
            cond_id, then_blk.block_id, else_blk.block_id
        )
        # Pre-seal both arms; nested constructs overwrite as needed.
        then_blk.terminator = None
        else_blk.terminator = Jump(merge_blk.block_id)
        return BranchScope(self, then_blk, else_blk, merge_blk)

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def build(self) -> CDFG:
        """Seal the kernel, validate it, and return the CDFG."""
        if self._built:
            raise BuilderError("build() called twice")
        if self._current.terminator is None:
            self._current.terminator = Halt()
        else:  # pragma: no cover - defensive
            raise BuilderError("kernel ended inside an unclosed scope")
        self._built = True
        # Seal any dangling (unentered) branch arms.
        for block in self._cfg.blocks:
            if block.terminator is None:
                raise BuilderError(f"block {block.name!r} left unterminated")
        cdfg = CDFG(self.name, self._cfg, self._params, self._arrays)
        cdfg.validate()
        return cdfg
