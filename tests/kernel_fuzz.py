"""Shared hypothesis strategies that draw random kernels with inputs.

:func:`kernels` draws ``(cdfg, memory, params)``:

* counted loops nested up to three deep, with statements before and
  after inner loops (imperfect nests), two-way branches inside them,
  and accumulators carried across iterations;
* now and then instead a hand-built shape the builder never emits: a
  single-block self-loop, a counted loop whose body branches straight
  to the loop's exit (a ``break``), a loop whose branch arm jumps
  straight back to the header (a ``continue``), or a two-entry cycle,
  which is irreducible and holds no natural loop;
* expressions over loads, loop variables, accumulators and constants
  (``inf``, ``-inf``, ``nan`` and the bools included) through every
  arithmetic, logic, compare, select, DIV/MOD and nonlinear opcode;
* now and then a bool literal as an index, which reads element 0 or 1
  but is no int;
* ``int64``, ``float64``, ``int32`` and ``float32`` arrays;
* ``n`` passed as an ``int`` or, now and then, as a ``float``, a numpy
  ``int64`` or a ``bool``.

A drawn kernel may fail when run: an out-of-bounds index, NaN stored
into an int array, a math domain error, a variable assigned only on one
branch arm.  A law over this strategy compares outcomes, errors
included.

:func:`graph_kernels` draws the same triple over an arbitrary control
flow graph: any block may jump or branch to any block, so a graph may be
irreducible, halt in several blocks, hold unreachable blocks or never
halt.  Run it under a small step budget.

:func:`loop_kernels` draws the same triple from the class the array
simulator runs (``repro.compiler.config_gen``): one counted loop with a
single body block of loads (at the loop variable or at a constant
index), ALU, compare, select and abs ops over loads, the loop variable
and small immediates, an optional register accumulator, and a store.
Every drawn run is in bounds and error-free in the interpreter, so a
law over it compares results only.

:func:`priced` interprets a draw of any of the three under a small step
budget and prices it on execution models, skipping the draws the
interpreter rejects.
"""

from __future__ import annotations

import numpy as np
from hypothesis import reject, strategies as st

from repro.baselines.base import KernelInstance
from repro.ir.builder import KernelBuilder
from repro.ir.cdfg import CDFG
from repro.ir.cfg import CFG, BlockRole, Branch, Halt, Jump
from repro.ir.interp import Interpreter
from repro.ir.ops import Opcode

ARRAYS = ("a", "b", "o")
DTYPES = (np.int64, np.float64, np.int32, np.float32)
ACCUMULATORS = ("acc0", "acc1")
#: assigned only by drawn statements, so a read may precede every write
LATE = "late"

#: weighted: the common datapath ops come up more often
_BINARY = ("ADD", "ADD", "SUB", "SUB", "MUL", "MUL", "MIN", "MAX",
           "LT", "LE", "GT", "GE", "EQ", "NE",
           "DIV", "MOD", "AND", "OR", "XOR", "SHL", "SHR")
_UNARY = ("NEG", "ABS", "NOT", "LOG", "EXP", "SQRT", "SIGMOID", "SIN",
          "COS")
_CONSTANTS = st.one_of(
    st.integers(-9, 9),
    st.booleans(),
    st.sampled_from([0.5, -2.25, 3.75, 1e18, 2**40,
                     float("inf"), float("-inf"), float("nan")]),
)

_BUILDER_OPS = {
    "ADD": lambda k, a, b: a + b,
    "SUB": lambda k, a, b: a - b,
    "MUL": lambda k, a, b: a * b,
    "DIV": lambda k, a, b: a / b,
    "MOD": lambda k, a, b: a % b,
    "MIN": KernelBuilder.minimum,
    "MAX": KernelBuilder.maximum,
    "LT": lambda k, a, b: a < b,
    "LE": lambda k, a, b: a <= b,
    "GT": lambda k, a, b: a > b,
    "GE": lambda k, a, b: a >= b,
    "EQ": lambda k, a, b: a.eq(b),
    "NE": lambda k, a, b: a.ne(b),
    "AND": lambda k, a, b: a & b,
    "OR": lambda k, a, b: a | b,
    "XOR": lambda k, a, b: a ^ b,
    "SHL": lambda k, a, b: a << b,
    "SHR": lambda k, a, b: a >> b,
    "SELECT": KernelBuilder.select,
    "NEG": lambda k, a: -a,
    "ABS": KernelBuilder.absolute,
    "NOT": lambda k, a: ~a,
    "LOG": KernelBuilder.log,
    "EXP": KernelBuilder.exp,
    "SQRT": KernelBuilder.sqrt,
    "SIGMOID": KernelBuilder.sigmoid,
    "SIN": KernelBuilder.sin,
    "COS": KernelBuilder.cos,
}


# ----------------------------------------------------------------------
# Expression trees: ("const", v) | ("var", name) | ("load", array, index)
# | (opcode name, *operands)
# ----------------------------------------------------------------------
def _draw_expr(draw, names, indices, depth):
    choice = draw(st.integers(0, 9)) if depth > 0 else draw(
        st.integers(0, 4))
    if choice == 0:
        return ("const", draw(_CONSTANTS))
    if choice in (1, 2):
        return ("var", draw(st.sampled_from(names)))
    if choice in (3, 4):
        return ("load", draw(st.sampled_from(ARRAYS)),
                _draw_index(draw, names, indices, depth))
    if choice == 5:
        return (draw(st.sampled_from(_UNARY)),
                _draw_expr(draw, names, indices, depth - 1))
    if choice == 6:
        return ("SELECT",) + tuple(
            _draw_expr(draw, names, indices, depth - 1) for _ in range(3)
        )
    return (draw(st.sampled_from(_BINARY)),
            _draw_expr(draw, names, indices, depth - 1),
            _draw_expr(draw, names, indices, depth - 1))


def _draw_index(draw, names, indices, depth):
    """Mostly an in-bounds index; sometimes any expression or a bool."""
    choice = draw(st.integers(0, 7))
    if choice == 0:
        return _draw_expr(draw, names, indices, depth - 1)
    if choice == 1:
        return ("const", draw(st.booleans()))
    return draw(st.sampled_from(indices))


def _build_expr(k, tree):
    op = tree[0]
    if op == "const":
        return k.const(tree[1])
    if op == "var":
        return k.get(tree[1])
    if op == "load":
        return k.load(tree[1], _build_expr(k, tree[2]))
    return _BUILDER_OPS[op](k, *(_build_expr(k, t) for t in tree[1:]))


def _emit_expr(dfg, tree):
    op = tree[0]
    if op == "const":
        return dfg.const(tree[1])
    if op == "var":
        return dfg.input(tree[1])
    if op == "load":
        return dfg.add(Opcode.LOAD, (_emit_expr(dfg, tree[2]),),
                       array=tree[1])
    return dfg.add(Opcode[op], tuple(_emit_expr(dfg, t) for t in tree[1:]))


# ----------------------------------------------------------------------
# Statements, laid out through the builder
# ----------------------------------------------------------------------
def _draw_block(draw, k, n, loop_vars, depth):
    names = ACCUMULATORS + loop_vars + ("n", LATE)
    indices = [("var", v) for v in loop_vars] or [
        ("const", c) for c in range(n)]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["set", "set", "store", "store", "loop", "branch"]))
        if kind == "set":
            k.set(draw(st.sampled_from(ACCUMULATORS + (LATE,))),
                  _build_expr(k, _draw_expr(draw, names, indices, 2)))
        elif kind == "store":
            index = _draw_index(draw, names, indices, 2)
            value = _draw_expr(draw, names, indices, 2)
            k.store(draw(st.sampled_from(ARRAYS)), _build_expr(k, index),
                    _build_expr(k, value))
        elif kind == "loop" and depth < 3:
            var = f"i{depth}"
            bound = draw(st.one_of(st.just(k.get("n")), st.integers(0, n)))
            with k.loop(var, 0, bound):
                _draw_block(draw, k, n, loop_vars + (var,), depth + 1)
        elif kind == "branch":
            cond = _build_expr(k, _draw_expr(draw, names, indices, 2))
            with k.branch(cond) as br:
                _draw_block(draw, k, n, loop_vars, depth + 1)
            if draw(st.booleans()):
                with br.orelse():
                    _draw_block(draw, k, n, loop_vars, depth + 1)


def _structured_kernel(draw, n):
    k = KernelBuilder("fuzz")
    k.param("n")
    for name in ARRAYS:
        k.array(name)
    for acc in ACCUMULATORS:
        k.set(acc, draw(_CONSTANTS))
    _draw_block(draw, k, n, (), 0)
    return k.build()


# ----------------------------------------------------------------------
# Hand-built shapes: each visits i = 0, 1, ... and halts once i reaches n
# ----------------------------------------------------------------------
_NAMES = ACCUMULATORS + ("i", "n")


def _entry_block(draw, cfg, first):
    """The entry block: ``i = first`` and drawn accumulator seeds."""
    entry = cfg.new_block("entry")
    entry.outputs["i"] = entry.dfg.const(first)
    for acc in ACCUMULATORS:
        entry.outputs[acc] = entry.dfg.const(draw(_CONSTANTS))
    return entry


def _draw_statements(draw, block):
    """One to three drawn stores to ``x[i]`` or accumulator updates."""
    for _ in range(draw(st.integers(1, 3))):
        value = _emit_expr(block.dfg,
                           _draw_expr(draw, _NAMES, [("var", "i")], 2))
        if draw(st.booleans()):
            block.dfg.add(Opcode.STORE, (block.dfg.input("i"), value),
                          array=draw(st.sampled_from(ARRAYS)))
        else:
            block.outputs[draw(st.sampled_from(ACCUMULATORS))] = value


def _draw_test(draw, block):
    """A drawn branch condition."""
    return _emit_expr(block.dfg, _draw_expr(draw, _NAMES, [("var", "i")], 2))


def _count_on(block):
    """``i += 1`` in ``block``; the node testing the new ``i < n``."""
    step = block.dfg.add(Opcode.ADD,
                         (block.dfg.input("i"), block.dfg.const(1)))
    block.outputs["i"] = step
    return block.dfg.add(Opcode.LT, (step, block.dfg.input("n")))


def _kernel(name, cfg):
    return CDFG(name, cfg, params=("n",), arrays=ARRAYS)


def _self_loop_kernel(draw):
    """``entry -> spin (re-executes itself while i < n) -> done``."""
    cfg = CFG()
    entry = _entry_block(draw, cfg, 0)
    spin = cfg.new_block("spin", BlockRole.LOOP_HEADER)
    done = cfg.new_block("done", BlockRole.EXIT)
    entry.terminator = Jump(spin.block_id)
    _draw_statements(draw, spin)
    spin.terminator = Branch(_count_on(spin), spin.block_id, done.block_id,
                             is_loop_branch=True)
    done.terminator = Halt()
    return _kernel("spin", cfg)


def _loop_exit_kernel(draw, exit_from_body):
    """``head`` counts i up and tests ``i < n``; ``body`` then branches
    on a drawn test, either straight to the loop's exit ``done`` (a
    ``break``) or straight back to ``head`` (a ``continue``) past
    ``rest``."""
    cfg = CFG()
    entry = _entry_block(draw, cfg, -1)
    head = cfg.new_block("head", BlockRole.LOOP_HEADER)
    body = cfg.new_block("body", BlockRole.LOOP_BODY)
    rest = cfg.new_block("rest", BlockRole.LOOP_LATCH)
    done = cfg.new_block("done", BlockRole.EXIT)
    entry.terminator = Jump(head.block_id)
    head.terminator = Branch(_count_on(head), body.block_id, done.block_id,
                             is_loop_branch=True)
    _draw_statements(draw, body)
    leave = done if exit_from_body else head
    body.terminator = Branch(_draw_test(draw, body), leave.block_id,
                             rest.block_id)
    _draw_statements(draw, rest)
    rest.terminator = Jump(head.block_id)
    done.terminator = Halt()
    return _kernel("break" if exit_from_body else "continue", cfg)


def _two_entry_kernel(draw):
    """``fork`` enters the cycle ``a <-> b`` at either block; each
    counts i up and leaves for ``done`` once ``i == n``."""
    cfg = CFG()
    entry = _entry_block(draw, cfg, 0)
    fork = cfg.new_block("fork")
    a = cfg.new_block("a")
    b = cfg.new_block("b")
    done = cfg.new_block("done", BlockRole.EXIT)
    entry.terminator = Jump(fork.block_id)
    fork.terminator = Branch(_draw_test(draw, fork), a.block_id, b.block_id)
    for block, other in ((a, b), (b, a)):
        _draw_statements(draw, block)
        block.terminator = Branch(_count_on(block), other.block_id,
                                  done.block_id)
    done.terminator = Halt()
    return _kernel("two_entry", cfg)


_HAND_BUILT = (
    _self_loop_kernel,
    lambda draw: _loop_exit_kernel(draw, True),
    lambda draw: _loop_exit_kernel(draw, False),
    _two_entry_kernel,
)


def _draw_memory(draw, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    memory = {}
    for name in ARRAYS:
        dtype = np.dtype(draw(st.sampled_from(DTYPES)))
        if dtype.kind == "f":
            memory[name] = (rng.normal(size=n) * 10).astype(dtype)
        else:
            memory[name] = rng.integers(-20, 20, n).astype(dtype)
    return memory


@st.composite
def kernels(draw):
    """``(cdfg, memory, params)`` for a random kernel over small arrays."""
    n = draw(st.integers(1, 5))
    shape = draw(st.integers(0, 2 * len(_HAND_BUILT)))
    if shape < len(_HAND_BUILT):
        cdfg = _HAND_BUILT[shape](draw)
    else:
        cdfg = _structured_kernel(draw, n)
    # Only a parameter passed as an exact int may skip int() in the
    # compiled engine.
    size = draw(st.sampled_from((int, int, int, float, np.int64, bool)))(n)
    return cdfg, _draw_memory(draw, n), {"n": size}


@st.composite
def graph_kernels(draw):
    """``(cdfg, memory, params)`` over an arbitrary control flow graph,
    with ``i`` fixed at 0 and drawn branch tests."""
    n = draw(st.integers(1, 5))
    cfg = CFG()
    entry = _entry_block(draw, cfg, 0)
    blocks = [entry] + [cfg.new_block(f"b{k}")
                        for k in range(1, draw(st.integers(2, 10)))]
    target = st.integers(0, len(blocks) - 1)
    entry.terminator = Jump(draw(target))
    for block in blocks[1:]:
        _draw_statements(draw, block)
        kind = draw(st.sampled_from(("jump", "branch", "branch", "halt")))
        if kind == "halt":
            block.terminator = Halt()
        elif kind == "jump":
            block.terminator = Jump(draw(target))
        else:
            block.terminator = Branch(_draw_test(draw, block), draw(target),
                                      draw(target))
    if not any(isinstance(b.terminator, Halt) for b in blocks):
        blocks[-1].terminator = Halt()
    return _kernel("graph", cfg), _draw_memory(draw, n), {"n": n}


# ----------------------------------------------------------------------
# Single-loop kernels, the class the configuration generator maps
# ----------------------------------------------------------------------
_LOOP_BINARY = ("ADD", "ADD", "SUB", "MUL", "MIN", "MAX",
                "LT", "LE", "GT", "GE", "EQ", "NE")
#: accumulator updates; no MUL, so values stay far from int64 overflow
_LOOP_ACCUMULATE = ("ADD", "SUB", "MIN", "MAX")


def _draw_loop_expr(draw, n, depth):
    choice = draw(st.integers(0, 6)) if depth > 0 else draw(
        st.integers(0, 3))
    if choice == 0:
        return ("const", draw(st.integers(-9, 9)))
    if choice == 1:
        return ("var", "i")
    if choice in (2, 3):
        index = ("const", draw(st.integers(0, n - 1))) \
            if draw(st.integers(0, 4)) == 0 else ("var", "i")
        return ("load", draw(st.sampled_from(("a", "b"))), index)
    if choice == 4:
        return ("ABS", _draw_loop_expr(draw, n, depth - 1))
    if choice == 5:
        return ("SELECT",) + tuple(
            _draw_loop_expr(draw, n, depth - 1) for _ in range(3)
        )
    return (draw(st.sampled_from(_LOOP_BINARY)),
            _draw_loop_expr(draw, n, depth - 1),
            _draw_loop_expr(draw, n, depth - 1))


@st.composite
def loop_kernels(draw):
    """``(cdfg, memory, params)`` for a random single-loop kernel: reads
    ``a`` and ``b``, writes ``o[i]``."""
    n = draw(st.integers(1, 8))
    k = KernelBuilder("loop_fuzz")
    size = k.param("n")
    for name in ARRAYS:
        k.array(name)
    accumulate = draw(st.one_of(st.none(),
                                st.sampled_from(_LOOP_ACCUMULATE)))
    if accumulate is not None:
        k.set("acc", draw(st.integers(-9, 9)))
    with k.loop("i", 0, size) as i:
        value = _build_expr(k, _draw_loop_expr(draw, n, 2))
        if accumulate is not None:
            k.set("acc", _BUILDER_OPS[accumulate](k, k.get("acc"), value))
            value = k.get("acc")
            if draw(st.booleans()):
                value = _BUILDER_OPS[draw(st.sampled_from(_LOOP_BINARY))](
                    k, value, _build_expr(k, _draw_loop_expr(draw, n, 1)))
        k.store("o", i, value)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        memory = {name: rng.integers(-20, 20, n).astype(np.int64)
                  for name in ARRAYS}
    else:
        memory = {name: rng.normal(size=n) * 10 for name in ARRAYS}
    return k.build(), memory, {"n": n}


# ----------------------------------------------------------------------
# Pricing a draw on execution models
# ----------------------------------------------------------------------
#: Block executions a priced draw may take; a drawn graph that spins
#: would otherwise run to the interpreter's default budget of 50 million.
PRICING_STEPS = 2_000


def priced(case, models):
    """Interpret a drawn ``(cdfg, memory, params)`` under
    :data:`PRICING_STEPS` and price it on each of ``models`` (name ->
    model): ``(kernel, {name: CycleResult})``.  A draw whose run fails
    or exceeds the budget is rejected, so hypothesis draws another."""
    cdfg, memory, params = case
    try:
        trace = Interpreter(cdfg).run(memory, params,
                                      max_steps=PRICING_STEPS).trace
    except Exception:  # any way a drawn run may fail (module docstring)
        reject()
    kernel = KernelInstance(cdfg, trace)
    return kernel, {name: model.simulate(kernel)
                    for name, model in models.items()}
