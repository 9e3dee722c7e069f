"""On-disk architecture descriptions: one JSON file defines a CGRA variant.

The paper's central claim is that a *parameterizable* design yields one
architectural description shared by the software stack and the simulator
(Section 5).  This module is that description's file format: a small,
versioned, schema-checked JSON document that fully constructs an
:class:`~repro.arch.params.ArchParams` — array geometry, relative
timings, memory system, PE mix, physical parameters — plus the control
network topology choice (``mesh`` / ``cs`` / ``benes`` / ``cs_benes``).
The compiler pipeline, every execution model, and the
micro-architectural simulator consume the resulting ``ArchParams``
unchanged, so a spec file is all it takes to evaluate a new variant:

    {
      "schema": "repro-arch",
      "version": 1,
      "name": "marionette-default",
      "description": "paper prototype: 4x4, 28 nm, 500 MHz",
      "network": "cs_benes",
      "params": {"rows": 4, "cols": 4, ...}
    }

Laws the format keeps (locked by ``tests/test_arch_spec.py``):

* **round trip** — ``loads_arch(dump_arch(desc)) == desc``;
* **unknown keys are errors** — a typo'd parameter fails loudly instead
  of silently evaluating the default architecture;
* **version skew is an error** — a document written for another schema
  version is rejected with both versions named;
* **torn files are diagnostics** — invalid/truncated JSON is a one-line
  :class:`~repro.errors.ConfigurationError` naming the file, never a
  traceback;
* **identity** — :meth:`ArchDescription.fingerprint` is the SHA-256 of
  the canonical document, so two variants can never collide and a sweep
  can key per-variant results.

``ArchParams`` validation (positivity, topology membership, PE-mix
bounds) runs during construction, so every load is fully checked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.arch.params import ArchParams, CONTROL_TOPOLOGIES
from repro.errors import ConfigurationError

#: Format marker carried by every arch description document.
ARCH_SCHEMA = "repro-arch"

#: Bump when the document shape changes incompatibly.
ARCH_SCHEMA_VERSION = 1

#: ``params`` keys a document may set: every ``ArchParams`` field except
#: the topology, which has its own top-level ``network`` key (one source
#: of truth, not two).
_PARAM_FIELDS = tuple(
    f.name for f in dataclasses.fields(ArchParams)
    if f.name != "control_topology"
)

_REQUIRED_KEYS = ("schema", "version", "name", "network", "params")
_OPTIONAL_KEYS = ("description",)


@dataclass(frozen=True)
class ArchDescription:
    """One named architecture variant: an ``ArchParams`` plus metadata.

    ``params.control_topology`` carries the network choice, so the
    description is consumed exactly like a hand-built ``ArchParams`` —
    ``RunSpec`` fingerprints, wire payloads, and the cache key all see
    the full architecture identity with zero extra plumbing.
    """

    name: str
    params: ArchParams
    description: str = ""

    @property
    def network(self) -> str:
        return self.params.control_topology

    def to_document(self) -> Dict[str, object]:
        """The canonical JSON-safe document (every field explicit)."""
        params = {
            name: getattr(self.params, name) for name in _PARAM_FIELDS
        }
        document: Dict[str, object] = {
            "schema": ARCH_SCHEMA,
            "version": ARCH_SCHEMA_VERSION,
            "name": self.name,
            "network": self.network,
            "params": params,
        }
        if self.description:
            document["description"] = self.description
        return document

    def fingerprint(self) -> str:
        """SHA-256 content address of the canonical document."""
        canonical = json.dumps(self.to_document(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check(condition: bool, source: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"{source}: {message}")


def validate_document(document: object,
                      source: str = "<arch spec>") -> Dict[str, object]:
    """Schema-check one parsed document; returns it on success.

    Every diagnostic is one line and names ``source`` (the file path,
    for :func:`load_arch`) plus the offending key, so a typo in a sweep
    directory is findable without a debugger.
    """
    _check(isinstance(document, dict), source,
           "arch description must be a JSON object")
    _check(document.get("schema") == ARCH_SCHEMA, source,
           f"not an arch description (schema "
           f"{document.get('schema')!r}, expected {ARCH_SCHEMA!r})")
    version = document.get("version")
    _check(version == ARCH_SCHEMA_VERSION, source,
           f"schema version {version!r} not supported "
           f"(this build reads version {ARCH_SCHEMA_VERSION})")
    known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
    unknown = sorted(set(document) - known)
    _check(not unknown, source,
           f"unknown key(s) {unknown} (known: {sorted(known)})")
    missing = sorted(set(_REQUIRED_KEYS) - set(document))
    _check(not missing, source, f"missing required key(s) {missing}")
    name = document["name"]
    _check(isinstance(name, str) and name.strip() != "", source,
           "name must be a non-empty string")
    _check(isinstance(document.get("description", ""), str), source,
           "description must be a string")
    network = document["network"]
    _check(network in CONTROL_TOPOLOGIES, source,
           f"network {network!r} unknown; "
           f"pick one of {CONTROL_TOPOLOGIES}")
    params = document["params"]
    _check(isinstance(params, dict), source,
           "params must be a JSON object of ArchParams fields")
    if "control_topology" in params:
        raise ConfigurationError(
            f"{source}: set the topology with the top-level 'network' "
            f"key, not params.control_topology"
        )
    bad = sorted(set(params) - set(_PARAM_FIELDS))
    _check(not bad, source,
           f"unknown params key(s) {bad} "
           f"(known: {sorted(_PARAM_FIELDS)})")
    for key, value in params.items():
        # bools are ints to isinstance(); reject them explicitly so
        # "rows": true cannot construct a 1-row array.
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(
                f"{source}: params.{key} must be an integer, "
                f"got {value!r}"
            )
    return document


def from_document(document: object,
                  source: str = "<arch spec>") -> ArchDescription:
    """Build a validated :class:`ArchDescription` from a parsed document."""
    document = validate_document(document, source)
    try:
        params = ArchParams(control_topology=document["network"],
                            **document["params"])
    except ConfigurationError as error:
        raise ConfigurationError(f"{source}: {error}") from error
    return ArchDescription(
        name=document["name"].strip(),
        params=params,
        description=document.get("description", ""),
    )


def loads_arch(text: str, source: str = "<arch spec>") -> ArchDescription:
    """Parse + validate an arch description from a JSON string."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"{source}: invalid arch description JSON ({error})"
        ) from error
    return from_document(document, source)


def load_arch(path) -> ArchDescription:
    """Load one arch description file (the ``--arch FILE`` entry point)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"cannot read arch description {path}: {error}"
        ) from error
    return loads_arch(text, source=str(path))


def dump_arch(desc: ArchDescription) -> str:
    """The canonical serialized form (stable across dumps)."""
    return json.dumps(desc.to_document(), indent=2, sort_keys=True) + "\n"


def save_arch(desc: ArchDescription, path) -> None:
    Path(path).write_text(dump_arch(desc), encoding="utf-8")


def load_arch_sweep(directory) -> List[Tuple[Path, ArchDescription]]:
    """Every ``*.json`` arch description in ``directory``, by filename.

    The deterministic filename order is the sweep's section order, so
    two machines sweeping one directory emit sections identically.
    Duplicate variant names are rejected — sections must be
    distinguishable — and an empty directory is an error, not an empty
    report.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(
            f"arch sweep directory {directory} does not exist"
        )
    paths = sorted(p for p in directory.iterdir()
                   if p.suffix == ".json" and p.is_file())
    if not paths:
        raise ConfigurationError(
            f"arch sweep directory {directory} holds no .json "
            f"arch descriptions"
        )
    entries = [(path, load_arch(path)) for path in paths]
    seen: Dict[str, Path] = {}
    for path, desc in entries:
        if desc.name in seen:
            raise ConfigurationError(
                f"arch sweep: {path} and {seen[desc.name]} both name "
                f"the variant {desc.name!r} — variant names must be "
                f"unique within a sweep"
            )
        seen[desc.name] = path
    return entries


#: The paper's prototype, as a description (what the default spec file
#: under ``examples/arch/`` serializes).
DEFAULT_ARCH = ArchDescription(
    name="marionette-default",
    params=ArchParams(),
    description="paper prototype: 4x4 PEs, CS-Benes control network, "
                "28 nm, 500 MHz",
)
