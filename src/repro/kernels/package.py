"""On-disk kernel packages: bring-your-own workloads for the toolkit.

Every workload the evaluation ships is a hand-built Python module under
``repro.workloads``; a *kernel package* is the external counterpart — a
directory a user authors (or ``repro kernel init`` scaffolds) that the
toolkit ingests without any code change:

    mykernel/
      kernel.json          # the manifest (schema "repro-kernel", v1)
      instructions.csv     # the loop-body instruction matrix
      memory/x.csv         # one initial region image per array
      memory/y.csv
      expected/y.csv       # optional: expected final output images

The manifest names the kernel, binds its single counted loop
(``var``/``start``/``stop``/``step``), declares scalar parameters,
loop-carried state variables, and every scratchpad array (shape, dtype,
role), and sets the float tolerance.  The program — a three-address
instruction matrix over those symbols — lives either in the manifest's
``program`` key or in ``instructions.csv`` (one row per instruction,
``dest,op,a,b,c``); both sources canonicalise to the same document, so
where the rows live never changes the kernel's identity.

Laws the format keeps (locked by ``tests/test_kernels.py``):

* **round trip** — ``from_document(pkg.to_document())`` reproduces an
  equal package (same fingerprint);
* **one-line diagnostics** — unknown keys, version skew, torn
  JSON/CSV, shape or dtype mismatches all raise a single-line
  :class:`~repro.errors.ConfigurationError` naming the offending file,
  in the same style as :mod:`repro.arch.spec`;
* **identity** — :meth:`KernelPackage.fingerprint` is the SHA-256 of
  the canonical document *including every memory image*, so editing a
  single CSV cell lands the kernel on a different content address
  (cache identity, shard coordinate, and wire identity all follow).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ir.ops import Opcode, op_info

#: Format marker carried by every kernel package manifest.
KERNEL_SCHEMA = "repro-kernel"

#: Bump when the package shape changes incompatibly.
KERNEL_SCHEMA_VERSION = 1

MANIFEST_NAME = "kernel.json"
INSTRUCTIONS_NAME = "instructions.csv"
MEMORY_DIR = "memory"
EXPECTED_DIR = "expected"

#: ``RunSpec.workload`` prefix that marks an external kernel token.
KERNEL_TOKEN_PREFIX = "kernel:"

#: Array element types a package may declare.
DTYPES: Dict[str, np.dtype] = {
    "int32": np.dtype(np.int32),
    "int64": np.dtype(np.int64),
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

#: Array roles: inputs need an initial image, outputs are verified.
ROLES = ("input", "output", "inout", "scratch")

#: Roles whose final image a verdict compares against expected outputs.
OUTPUT_ROLES = ("output", "inout")

#: Program opcodes by name: every function-unit operation but the
#: memory ones (``load``/``store``, handled apart).
PROGRAM_OPS: Dict[str, Opcode] = {
    op.value: op for op in Opcode
    if op_info(op).needs_fu and not op_info(op).is_memory
}

_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]{0,63}$")
_SYMBOL_RE = re.compile(r"^[a-z_][a-z0-9_]*$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")

_REQUIRED_KEYS = ("schema", "version", "name", "loop", "arrays")
_OPTIONAL_KEYS = ("description", "params", "state", "atol",
                  "scale_hint", "program")
#: Keys only the *document* (wire/canonical) form carries on top of the
#: manifest: the program is mandatory there, and the region images ride
#: inline instead of in CSV files.
_DOCUMENT_ONLY_KEYS = ("memory", "expected")

_SCALE_HINTS = ("tiny", "small", "paper")


def _check(condition: bool, source: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"{source}: {message}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ArrayDecl:
    """One declared scratchpad array."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    role: str = "input"

    @property
    def length(self) -> int:
        length = 1
        for dim in self.shape:
            length *= dim
        return length

    def to_entry(self) -> Dict[str, object]:
        return {"name": self.name, "shape": list(self.shape),
                "dtype": self.dtype, "role": self.role}


@dataclass(frozen=True)
class LoopBinding:
    """The kernel's single counted loop: ``for var in range(...)``."""

    var: str
    start: object   # int literal or parameter name
    stop: object    # int literal or parameter name
    step: int = 1

    def to_entry(self) -> Dict[str, object]:
        return {"var": self.var, "start": self.start,
                "stop": self.stop, "step": self.step}


def _json_values(decl: ArrayDecl, values: np.ndarray) -> List[object]:
    if decl.dtype.startswith("int"):
        return [int(v) for v in values]
    return [float(v) for v in values]


@dataclass
class KernelPackage:
    """One validated external kernel: manifest + program + images.

    Everything here is already schema-checked — construction goes
    through :func:`from_document` (wire/canonical form) or
    :func:`load_kernel` (on-disk form), never raw ``__init__`` from
    user input.
    """

    name: str
    loop: LoopBinding
    arrays: Tuple[ArrayDecl, ...]
    program: Tuple[Tuple[str, ...], ...]
    params: Dict[str, int] = field(default_factory=dict)
    state: Dict[str, float] = field(default_factory=dict)
    memory: Dict[str, np.ndarray] = field(default_factory=dict)
    expected: Dict[str, np.ndarray] = field(default_factory=dict)
    atol: float = 0.0
    description: str = ""
    scale_hint: str = "small"

    # -- identity ------------------------------------------------------
    def to_document(self) -> Dict[str, object]:
        """The canonical JSON-safe form (manifest + program + images).

        This is both the wire form (dispatched specs ship it to remote
        workers) and the fingerprint input, so it spells out every
        input the kernel's behaviour depends on — including the full
        initial memory images and any declared expected outputs.
        """
        document: Dict[str, object] = {
            "schema": KERNEL_SCHEMA,
            "version": KERNEL_SCHEMA_VERSION,
            "name": self.name,
            "loop": self.loop.to_entry(),
            "params": {k: self.params[k] for k in sorted(self.params)},
            "state": {k: self.state[k] for k in sorted(self.state)},
            "atol": float(self.atol),
            "scale_hint": self.scale_hint,
            "arrays": [decl.to_entry() for decl in self.arrays],
            "program": [list(row) for row in self.program],
            "memory": {
                decl.name: _json_values(decl, self.memory[decl.name])
                for decl in self.arrays
            },
            "expected": {
                name: _json_values(self._decl(name), self.expected[name])
                for name in sorted(self.expected)
            },
        }
        if self.description:
            document["description"] = self.description
        return document

    def fingerprint(self) -> str:
        """SHA-256 content address of the canonical document."""
        canonical = json.dumps(self.to_document(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def workload_token(self) -> str:
        """The ``RunSpec.workload`` name of this kernel.

        Carries the full content fingerprint, so the kernel's identity
        rides into every cache key, shard coordinate, and dispatch
        payload through the existing spec plumbing.
        """
        return f"{KERNEL_TOKEN_PREFIX}{self.name}@{self.fingerprint()}"

    # -- declarations --------------------------------------------------
    def _decl(self, name: str) -> ArrayDecl:
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise KeyError(name)  # pragma: no cover - guarded by validation

    @property
    def output_arrays(self) -> Tuple[ArrayDecl, ...]:
        return tuple(d for d in self.arrays if d.role in OUTPUT_ROLES)

    def array_lengths(self) -> Dict[str, int]:
        return {decl.name: decl.length for decl in self.arrays}

    # -- CDFG construction ---------------------------------------------
    def build_cdfg(self):
        """Construct the kernel's CDFG through the builder DSL.

        The program matrix is three-address code over the loop
        variable, parameters, state variables, and temporaries; this
        replays it row by row inside one counted loop, which is exactly
        the kernel class the configuration generator maps onto the
        array simulator.
        """
        from repro.ir.builder import KernelBuilder, Value

        k = KernelBuilder(self.name)
        param_values = {name: k.param(name) for name in sorted(self.params)}
        for decl in self.arrays:
            k.array(decl.name)
        for var in sorted(self.state):
            k.set(var, self.state[var])

        def bound(spec: object):
            return param_values[spec] if isinstance(spec, str) else spec

        env: Dict[str, Value] = {}

        def operand(token: str):
            if _INT_RE.match(token):
                return int(token)
            if not _SYMBOL_RE.match(token):
                return float(token)
            if token == self.loop.var or token in self.state:
                return k.get(token)
            if token in self.params:
                return param_values[token]
            return env[token]

        with k.loop(self.loop.var, bound(self.loop.start),
                    bound(self.loop.stop), self.loop.step):
            for dest, op, *args in self.program:
                if op == "load":
                    result = k.load(args[0], operand(args[1]))
                elif op == "store":
                    k.store(args[0], operand(args[1]), operand(args[2]))
                    continue
                else:
                    result = k.op(PROGRAM_OPS[op], *map(operand, args))
                if dest in self.state:
                    k.set(dest, result)
                else:
                    env[dest] = result
        return k.build()


# ----------------------------------------------------------------------
# Validation (shared by the on-disk loader and the wire form)
# ----------------------------------------------------------------------
def _validate_loop(entry: object, params: Mapping[str, int],
                   source: str) -> LoopBinding:
    _check(isinstance(entry, dict), source, "loop must be a JSON object")
    unknown = sorted(set(entry) - {"var", "start", "stop", "step"})
    _check(not unknown, source, f"unknown loop key(s) {unknown}")
    _check("var" in entry and "stop" in entry, source,
           "loop needs at least 'var' and 'stop'")
    var = entry["var"]
    _check(isinstance(var, str) and _SYMBOL_RE.match(var or ""), source,
           f"loop.var {var!r} is not an identifier")
    start = entry.get("start", 0)
    stop = entry["stop"]
    for key, value in (("start", start), ("stop", stop)):
        if isinstance(value, str):
            _check(value in params, source,
                   f"loop.{key} names unknown parameter {value!r} "
                   f"(declared: {sorted(params)})")
        else:
            _check(_is_int(value), source,
                   f"loop.{key} must be an integer or a parameter name, "
                   f"got {value!r}")
    step = entry.get("step", 1)
    _check(_is_int(step) and step > 0, source,
           f"loop.step must be a positive integer, got {step!r}")
    return LoopBinding(var=var, start=start, stop=stop, step=step)


def _validate_arrays(entries: object, source: str) -> Tuple[ArrayDecl, ...]:
    _check(isinstance(entries, list) and entries, source,
           "arrays must be a non-empty list of declarations")
    declared: List[ArrayDecl] = []
    seen = set()
    for index, entry in enumerate(entries):
        where = f"arrays[{index}]"
        _check(isinstance(entry, dict), source,
               f"{where} must be a JSON object")
        unknown = sorted(set(entry) - {"name", "shape", "dtype", "role"})
        _check(not unknown, source, f"{where}: unknown key(s) {unknown}")
        missing = sorted({"name", "shape", "dtype"} - set(entry))
        _check(not missing, source, f"{where}: missing key(s) {missing}")
        name = entry["name"]
        _check(isinstance(name, str) and _SYMBOL_RE.match(name or ""),
               source, f"{where}: array name {name!r} is not an identifier")
        _check(name not in seen, source,
               f"array {name!r} declared twice")
        seen.add(name)
        shape = entry["shape"]
        _check(isinstance(shape, list) and shape
               and all(_is_int(d) and d > 0 for d in shape), source,
               f"array {name!r}: shape must be a list of positive "
               f"integers, got {shape!r}")
        dtype = entry["dtype"]
        _check(dtype in DTYPES, source,
               f"array {name!r}: dtype {dtype!r} unknown; "
               f"pick one of {sorted(DTYPES)}")
        role = entry.get("role", "input")
        _check(role in ROLES, source,
               f"array {name!r}: role {role!r} unknown; "
               f"pick one of {ROLES}")
        declared.append(ArrayDecl(name=name, shape=tuple(shape),
                                  dtype=dtype, role=role))
    return tuple(declared)


def _validate_program(rows: object, loop: LoopBinding,
                      params: Mapping[str, int],
                      state: Mapping[str, float],
                      arrays: Sequence[ArrayDecl],
                      source: str) -> Tuple[Tuple[str, ...], ...]:
    _check(isinstance(rows, list) and rows, source,
           "program must be a non-empty list of instruction rows")
    array_names = {decl.name for decl in arrays}
    reserved = ({loop.var} | set(params) | array_names)
    defined = set(state)
    out: List[Tuple[str, ...]] = []
    stores = 0

    def check_operand(row_no: int, token: object, what: str) -> str:
        _check(isinstance(token, str) and token.strip() != "", source,
               f"program row {row_no}: missing {what}")
        token = token.strip()
        if _INT_RE.match(token):
            return token
        if _SYMBOL_RE.match(token):
            known = (token == loop.var or token in params
                     or token in defined)
            _check(known, source,
                   f"program row {row_no}: {what} {token!r} is not the "
                   f"loop variable, a parameter, a state variable, or a "
                   f"previously defined temporary")
            return token
        try:
            float(token)
        except ValueError:
            raise ConfigurationError(
                f"{source}: program row {row_no}: {what} {token!r} is "
                f"not a number or an identifier"
            ) from None
        return token

    for row_no, row in enumerate(rows, 1):
        _check(isinstance(row, list)
               and all(isinstance(cell, str) for cell in row), source,
               f"program row {row_no} must be a list of strings")
        cells = [cell.strip() for cell in row]
        while len(cells) < 2:
            cells.append("")
        dest, op, args = cells[0], cells[1], [c for c in cells[2:] if c]
        _check(op in ("load", "store") or op in PROGRAM_OPS, source,
               f"program row {row_no}: unknown op {op!r}")
        if op == "load":
            _check(len(args) == 2, source,
                   f"program row {row_no}: load takes (array, index), "
                   f"got {len(args)} operand(s)")
            _check(args[0] in array_names, source,
                   f"program row {row_no}: load from undeclared array "
                   f"{args[0]!r}")
            args[1] = check_operand(row_no, args[1], "index")
        elif op == "store":
            _check(not dest, source,
                   f"program row {row_no}: store takes no destination")
            _check(len(args) == 3, source,
                   f"program row {row_no}: store takes (array, index, "
                   f"value), got {len(args)} operand(s)")
            _check(args[0] in array_names, source,
                   f"program row {row_no}: store to undeclared array "
                   f"{args[0]!r}")
            args[1] = check_operand(row_no, args[1], "index")
            args[2] = check_operand(row_no, args[2], "value")
            stores += 1
            out.append(("", op, *args))
            continue
        else:
            arity = op_info(PROGRAM_OPS[op]).arity
            _check(len(args) == arity, source,
                   f"program row {row_no}: {op} takes {arity} "
                   f"operand(s), got {len(args)}")
            args = [check_operand(row_no, a, f"operand {i + 1}")
                    for i, a in enumerate(args)]
        # Every non-store row produces a value.
        _check(_SYMBOL_RE.match(dest or "") is not None, source,
               f"program row {row_no}: {op} needs an identifier "
               f"destination, got {dest!r}")
        _check(dest not in reserved, source,
               f"program row {row_no}: destination {dest!r} collides "
               f"with the loop variable, a parameter, or an array")
        _check(dest in state or dest not in defined, source,
               f"program row {row_no}: temporary {dest!r} assigned twice")
        defined.add(dest)
        out.append((dest, op, *args))
    _check(stores > 0, source,
           "program never stores to any array — the kernel would have "
           "no observable output")
    return tuple(out)


def _validate_image(decl: ArrayDecl, values: object, source: str,
                    *, expected: bool = False) -> np.ndarray:
    kind = "expected output" if expected else "memory image"
    _check(isinstance(values, list) and values, source,
           f"array {decl.name!r}: {kind} must be a non-empty list")
    _check(all(_is_number(v) for v in values), source,
           f"array {decl.name!r}: {kind} holds non-numeric values")
    if expected:
        _check(len(values) <= decl.length, source,
               f"array {decl.name!r}: expected output holds "
               f"{len(values)} values, more than the declared "
               f"{decl.length}")
    else:
        _check(len(values) == decl.length, source,
               f"array {decl.name!r}: {kind} holds {len(values)} "
               f"values, declared shape {list(decl.shape)} needs "
               f"{decl.length}")
    if decl.dtype.startswith("int"):
        _check(all(float(v).is_integer() for v in values), source,
               f"array {decl.name!r}: {kind} holds non-integral values "
               f"for dtype {decl.dtype}")
    return np.asarray(values, dtype=DTYPES[decl.dtype])


def validate_manifest(document: object,
                      source: str = "<kernel manifest>"
                      ) -> Dict[str, object]:
    """Schema-check the manifest part of a package document.

    Shared by :func:`load_kernel` (reading ``kernel.json``) and
    :func:`from_document` (the wire/canonical form, which additionally
    carries ``memory``/``expected`` images and always a ``program``).
    """
    _check(isinstance(document, dict), source,
           "kernel manifest must be a JSON object")
    _check(document.get("schema") == KERNEL_SCHEMA, source,
           f"not a kernel package manifest (schema "
           f"{document.get('schema')!r}, expected {KERNEL_SCHEMA!r})")
    version = document.get("version")
    _check(version == KERNEL_SCHEMA_VERSION, source,
           f"schema version {version!r} not supported "
           f"(this build reads version {KERNEL_SCHEMA_VERSION})")
    known = (set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
             | set(_DOCUMENT_ONLY_KEYS))
    unknown = sorted(set(document) - known)
    _check(not unknown, source,
           f"unknown key(s) {unknown} (known: {sorted(known)})")
    missing = sorted(set(_REQUIRED_KEYS) - set(document))
    _check(not missing, source, f"missing required key(s) {missing}")
    name = document["name"]
    _check(isinstance(name, str) and _NAME_RE.match(name or ""), source,
           f"name {name!r} must match {_NAME_RE.pattern}")
    _check(isinstance(document.get("description", ""), str), source,
           "description must be a string")
    scale_hint = document.get("scale_hint", "small")
    _check(scale_hint in _SCALE_HINTS, source,
           f"scale_hint {scale_hint!r} unknown; "
           f"pick one of {_SCALE_HINTS}")
    atol = document.get("atol", 0.0)
    _check(_is_number(atol) and atol >= 0, source,
           f"atol must be a non-negative number, got {atol!r}")
    params = document.get("params", {})
    _check(isinstance(params, dict), source,
           "params must be a JSON object of integer bindings")
    for key, value in params.items():
        _check(isinstance(key, str) and _SYMBOL_RE.match(key or ""),
               source, f"parameter name {key!r} is not an identifier")
        _check(_is_int(value), source,
               f"params.{key} must be an integer, got {value!r}")
    state = document.get("state", {})
    _check(isinstance(state, dict), source,
           "state must be a JSON object of initial values")
    for key, value in state.items():
        _check(isinstance(key, str) and _SYMBOL_RE.match(key or ""),
               source, f"state name {key!r} is not an identifier")
        _check(key not in params, source,
               f"state variable {key!r} collides with a parameter")
        _check(_is_number(value), source,
               f"state.{key} must be a number, got {value!r}")
    arrays = _validate_arrays(document["arrays"], source)
    loop = _validate_loop(document["loop"], params, source)
    _check(loop.var not in params and loop.var not in state, source,
           f"loop variable {loop.var!r} collides with a parameter or "
           f"state variable")
    clashes = sorted({d.name for d in arrays}
                     & (set(params) | set(state) | {loop.var}))
    _check(not clashes, source,
           f"array name(s) {clashes} collide with scalar symbols")
    return document


def from_document(document: object,
                  source: str = "<kernel package>") -> KernelPackage:
    """Build a validated :class:`KernelPackage` from its document form."""
    document = validate_manifest(document, source)
    params = dict(document.get("params", {}))
    state = {k: v for k, v in document.get("state", {}).items()}
    arrays = _validate_arrays(document["arrays"], source)
    loop = _validate_loop(document["loop"], params, source)
    _check("program" in document, source,
           "document carries no program (manifest 'program' key or "
           "instructions.csv rows)")
    program = _validate_program(document["program"], loop, params, state,
                                arrays, source)
    by_name = {decl.name: decl for decl in arrays}
    raw_memory = document.get("memory", {})
    _check(isinstance(raw_memory, dict), source,
           "memory must be a JSON object of array images")
    unknown = sorted(set(raw_memory) - set(by_name))
    _check(not unknown, source,
           f"memory image(s) for undeclared array(s) {unknown}")
    memory: Dict[str, np.ndarray] = {}
    for decl in arrays:
        if decl.name in raw_memory:
            memory[decl.name] = _validate_image(
                decl, raw_memory[decl.name], source
            )
        else:
            _check(decl.role not in ("input", "inout"), source,
                   f"array {decl.name!r} has role {decl.role!r} but no "
                   f"initial memory image "
                   f"({MEMORY_DIR}/{decl.name}.csv)")
            memory[decl.name] = np.zeros(decl.length,
                                         dtype=DTYPES[decl.dtype])
    raw_expected = document.get("expected", {})
    _check(isinstance(raw_expected, dict), source,
           "expected must be a JSON object of output images")
    expected: Dict[str, np.ndarray] = {}
    for name, values in raw_expected.items():
        _check(name in by_name, source,
               f"expected output for undeclared array {name!r}")
        decl = by_name[name]
        _check(decl.role in OUTPUT_ROLES, source,
               f"expected output for array {name!r}, whose role "
               f"{decl.role!r} is not one of {OUTPUT_ROLES}")
        expected[name] = _validate_image(decl, values, source,
                                         expected=True)
    return KernelPackage(
        name=document["name"],
        loop=loop,
        arrays=arrays,
        program=program,
        params=params,
        state=state,
        memory=memory,
        expected=expected,
        atol=float(document.get("atol", 0.0)),
        description=document.get("description", ""),
        scale_hint=document.get("scale_hint", "small"),
    )


# ----------------------------------------------------------------------
# On-disk loading
# ----------------------------------------------------------------------
def _read_csv_values(path: Path) -> List[object]:
    """Parse one region CSV: numbers separated by commas/newlines.

    Blank cells and ``#`` comment lines are skipped; any other
    non-numeric cell is a one-line diagnostic naming file and line.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"cannot read {path}: {error}"
        ) from error
    values: List[object] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if line.strip().startswith("#"):
            continue
        for cell in line.split(","):
            cell = cell.strip()
            if not cell:
                continue
            if _INT_RE.match(cell):
                values.append(int(cell))
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise ConfigurationError(
                    f"{path}: line {line_no}: {cell!r} is not a number"
                ) from None
    return values


def _read_instruction_rows(path: Path) -> List[List[str]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"cannot read {path}: {error}"
        ) from error
    rows: List[List[str]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [cell.strip() for cell in line.split(",")]
        while cells and not cells[-1]:
            cells.pop()
        if cells:
            rows.append(cells)
    return rows


def is_kernel_dir(path) -> bool:
    """True when ``path`` holds a kernel package manifest."""
    return (Path(path) / MANIFEST_NAME).is_file()


def _region_files(directory: Path) -> Dict[str, Path]:
    if not directory.is_dir():
        return {}
    return {p.stem: p for p in sorted(directory.iterdir())
            if p.suffix == ".csv" and p.is_file()}


def load_kernel(path) -> KernelPackage:
    """Load one kernel package directory (the ``repro run`` entry point)."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not root.is_dir():
        raise ConfigurationError(
            f"kernel package {root} does not exist or is not a directory"
        )
    if not manifest_path.is_file():
        nested = [p.parent.name for p in sorted(root.glob(f"*/{MANIFEST_NAME}"))]
        hint = (f" — it holds kernel package(s) {nested}; pass one of "
                f"them, or the whole directory to 'repro bench "
                f"--kernels'" if nested else "")
        raise ConfigurationError(
            f"{root} is not a kernel package (no {MANIFEST_NAME}){hint}"
        )
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"cannot read kernel manifest {manifest_path}: {error}"
        ) from error
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"{manifest_path}: invalid kernel manifest JSON ({error})"
        ) from error
    source = str(manifest_path)
    manifest = validate_manifest(manifest, source)
    for key in _DOCUMENT_ONLY_KEYS:
        _check(key not in manifest, source,
               f"{key!r} images live in {MEMORY_DIR}/*.csv files, not "
               f"in the manifest")

    instructions_path = root / INSTRUCTIONS_NAME
    if "program" in manifest:
        _check(not instructions_path.is_file(), source,
               f"program rows in both the manifest and "
               f"{INSTRUCTIONS_NAME} — keep exactly one source")
        document = dict(manifest)
    else:
        _check(instructions_path.is_file(), source,
               f"no program: add a 'program' key or an "
               f"{INSTRUCTIONS_NAME} next to the manifest")
        document = dict(manifest)
        document["program"] = _read_instruction_rows(instructions_path)
        _check(bool(document["program"]), str(instructions_path),
               "holds no instruction rows")

    declared = {entry["name"] for entry in manifest["arrays"]}
    memory_files = _region_files(root / MEMORY_DIR)
    unknown = sorted(set(memory_files) - declared)
    _check(not unknown, source,
           f"{MEMORY_DIR}/ holds image(s) for undeclared array(s) "
           f"{unknown}")
    document["memory"] = {
        name: _read_csv_values(memory_files[name])
        for name in sorted(memory_files)
    }
    expected_files = _region_files(root / EXPECTED_DIR)
    unknown = sorted(set(expected_files) - declared)
    _check(not unknown, source,
           f"{EXPECTED_DIR}/ holds image(s) for undeclared array(s) "
           f"{unknown}")
    document["expected"] = {
        name: _read_csv_values(expected_files[name])
        for name in sorted(expected_files)
    }
    return from_document(document, source)


def load_kernel_suite(path) -> List[Tuple[Path, KernelPackage]]:
    """Load a directory of kernel packages (``--kernels DIR``).

    ``path`` may be a single package (one entry) or a directory whose
    immediate subdirectories are packages; subdirectory-name order is
    the suite's deterministic section/row order.  Duplicate kernel
    names are rejected — report rows and cache identities must be
    distinguishable by name.
    """
    root = Path(path)
    if not root.is_dir():
        raise ConfigurationError(
            f"kernel directory {root} does not exist"
        )
    if is_kernel_dir(root):
        return [(root, load_kernel(root))]
    members = sorted(p for p in root.iterdir()
                     if p.is_dir() and is_kernel_dir(p))
    if not members:
        raise ConfigurationError(
            f"{root} holds no kernel packages (no {MANIFEST_NAME}, and "
            f"no subdirectory with one)"
        )
    entries = [(member, load_kernel(member)) for member in members]
    seen: Dict[str, Path] = {}
    for member, package in entries:
        if package.name in seen:
            raise ConfigurationError(
                f"kernel suite: {member} and {seen[package.name]} both "
                f"name the kernel {package.name!r} — kernel names must "
                f"be unique within a suite"
            )
        seen[package.name] = member
    return entries


# ----------------------------------------------------------------------
# On-disk writing (repro kernel init)
# ----------------------------------------------------------------------
def _format_value(decl: ArrayDecl, value: object) -> str:
    if decl.dtype.startswith("int"):
        return str(int(value))
    return repr(float(value))


def dump_manifest(package: KernelPackage, *,
                  program_in_manifest: bool = False) -> str:
    """The canonical serialized ``kernel.json`` (stable across dumps)."""
    document = package.to_document()
    for key in _DOCUMENT_ONLY_KEYS:
        document.pop(key, None)
    if not program_in_manifest:
        document.pop("program")
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def save_kernel(package: KernelPackage, path, *,
                program_in_manifest: bool = False) -> Path:
    """Write a package out in canonical on-disk form.

    ``load_kernel(save_kernel(pkg, d))`` reproduces the fingerprint
    exactly; the instruction matrix goes to ``instructions.csv`` unless
    ``program_in_manifest`` keeps it inline.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / MANIFEST_NAME).write_text(
        dump_manifest(package, program_in_manifest=program_in_manifest),
        encoding="utf-8",
    )
    if not program_in_manifest:
        rows = "\n".join(",".join(row) for row in package.program)
        (root / INSTRUCTIONS_NAME).write_text(
            "# dest,op,a,b,c\n" + rows + "\n", encoding="utf-8"
        )
    memory_dir = root / MEMORY_DIR
    memory_dir.mkdir(exist_ok=True)
    for decl in package.arrays:
        values = package.memory[decl.name]
        (memory_dir / f"{decl.name}.csv").write_text(
            "\n".join(_format_value(decl, v) for v in values) + "\n",
            encoding="utf-8",
        )
    if package.expected:
        expected_dir = root / EXPECTED_DIR
        expected_dir.mkdir(exist_ok=True)
        for name in sorted(package.expected):
            decl = package._decl(name)
            values = package.expected[name]
            (expected_dir / f"{name}.csv").write_text(
                "\n".join(_format_value(decl, v) for v in values) + "\n",
                encoding="utf-8",
            )
    return root
