"""Declarative run specifications.

A :class:`RunSpec` names one (workload, scale, seed, model, params) point of
the evaluation space without constructing anything: workloads by their
registry short name, models by a :class:`ModelSpec` (registry key plus
keyword options).  Specs are frozen, hashable, and picklable, so they can be
deduplicated, used as cache keys, and shipped to worker processes — the
experiments enumerate specs, the :class:`~repro.engine.executor.Engine`
decides where and whether each one actually runs.

A spec's priced identity is its :meth:`RunSpec.cache_key` — the
canonical JSON mapping the content-addressed cache hashes — and
:meth:`RunSpec.fingerprint` is that hash.  The key holds the
:class:`~repro.arch.params.PricingInputs` projection of the parameters,
not every :class:`~repro.arch.params.ArchParams` field, so specs that
differ only in parameters pricing never reads share one cycle record;
spec equality and :meth:`RunSpec.to_payload` keep the full parameters.

The fingerprint doubles as the sharding coordinate: :func:`shard_specs`
partitions a batch into ``N`` disjoint, covering subsets by fingerprint
prefix, so independent CI jobs can each run ``repro bench --shard K/N``
against one shared cache and a merge step can reassemble the canonical
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.arch.params import ArchParams
from repro.engine import cache as _cache
from repro.baselines import (
    ArchModel,
    CycleResult,
    DataflowModel,
    IdealModel,
    MarionetteModel,
    RevelModel,
    RipTideModel,
    SoftbrainModel,
    TIAModel,
    VonNeumannModel,
)
from repro.errors import ConfigurationError

#: Architecture model registry: spec key -> model class.
MODEL_REGISTRY: Dict[str, Type[ArchModel]] = {
    "von_neumann": VonNeumannModel,
    "dataflow": DataflowModel,
    "softbrain": SoftbrainModel,
    "tia": TIAModel,
    "revel": RevelModel,
    "riptide": RipTideModel,
    "marionette": MarionetteModel,
    "ideal": IdealModel,
}

#: Registry keys whose class accepts feature toggles / a display name
#: (only Marionette is parameterisable; the baselines are fixed presets).
_CONFIGURABLE = frozenset({"marionette"})


@dataclass(frozen=True)
class ModelSpec:
    """One architecture model, named declaratively.

    ``options`` is a sorted tuple of (keyword, value) pairs so equal model
    configurations hash equally; ``label`` overrides the model's display
    name (it flows into :attr:`CycleResult.arch`, so it is part of the
    cache identity).
    """

    model: str
    options: Tuple[Tuple[str, object], ...] = ()
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.model not in MODEL_REGISTRY:
            raise ConfigurationError(
                f"unknown model {self.model!r}; "
                f"known: {sorted(MODEL_REGISTRY)}"
            )
        if (self.options or self.label) and (
                self.model not in _CONFIGURABLE):
            raise ConfigurationError(
                f"model {self.model!r} takes no options"
            )

    @classmethod
    def make(cls, model: str, label: Optional[str] = None,
             **options: object) -> "ModelSpec":
        return cls(model, tuple(sorted(options.items())), label)

    def build(self, params: ArchParams) -> ArchModel:
        """Instantiate the model for one parameter set."""
        kwargs = dict(self.options)
        if self.label is not None:
            kwargs["name"] = self.label
        return MODEL_REGISTRY[self.model](params, **kwargs)

    def token(self) -> Dict[str, object]:
        """JSON-safe identity (cache key component)."""
        return {
            "model": self.model,
            "options": [[k, v] for k, v in self.options],
            "label": self.label,
        }

    @classmethod
    def from_token(cls, token: Mapping[str, object]) -> "ModelSpec":
        """Rebuild a spec from its :meth:`token` (JSON round-trip safe)."""
        try:
            options = tuple(
                (str(key), value) for key, value in token["options"]
            )
            return cls(str(token["model"]), options, token.get("label"))
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed model token {token!r}: {error}"
            ) from error


def trace_cache_key(workload: str, scale: str,
                    seed: int) -> Dict[str, object]:
    """Cache key of one functional trace (parameter/model independent)."""
    return {
        "kind": "trace", "version": _cache.ENGINE_VERSION,
        "workload": workload, "scale": scale, "seed": seed,
    }


@dataclass(frozen=True)
class RunSpec:
    """One point of the evaluation space: workload x model x parameters."""

    workload: str          # workload registry short name ("gemm", "crc", ..)
    scale: str
    seed: int
    model: ModelSpec
    params: ArchParams

    def trace_key(self) -> Tuple[str, str, int]:
        """Identity of the functional trace this run replays (parameters
        and model do not affect functional execution)."""
        return (self.workload, self.scale, self.seed)

    def cache_key(self) -> Dict[str, object]:
        """Canonical-JSON identity of this spec's cycle result.

        Spells out every input the result depends on — any change to the
        workload, scale, seed, model (key, options, or label), a field
        of :attr:`ArchParams.pricing_inputs`, or the engine version
        lands on a different content address.  Parameters pricing does
        not read are left out, so specs that differ only there share
        one record.
        """
        return {
            "kind": "cycles", "version": _cache.ENGINE_VERSION,
            "workload": self.workload, "scale": self.scale,
            "seed": self.seed, "model": self.model.token(),
            "params": dict(self.params.pricing_inputs.token),
        }

    def fingerprint(self) -> str:
        """SHA-256 content address of :meth:`cache_key` (also the
        sharding coordinate)."""
        return _cache.fingerprint(self.cache_key())

    # -- wire form (work dispatch) -------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe wire form, for shipping specs to remote workers.

        Unlike :meth:`cache_key` this is a *constructive* encoding —
        :meth:`from_payload` rebuilds an equal spec from it, so the
        dispatching client and a worker on another machine derive
        identical fingerprints and cache addresses.

        External kernels (``kernel:<name>@<fingerprint>`` workload
        tokens) additionally carry their full package document, so the
        receiving process can register and run a kernel it has never
        seen on disk.  The token already carries the content
        fingerprint, so the document does not change the cache key.
        """
        payload: Dict[str, object] = {
            "workload": self.workload, "scale": self.scale,
            "seed": self.seed, "model": self.model.token(),
            "params": _cache.params_token(self.params),
        }
        if self.workload.startswith("kernel:"):
            from repro.kernels.registry import document_for

            payload["kernel"] = document_for(self.workload)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_payload` output.

        A ``kernel`` document stanza is validated and registered
        process-wide before the spec is constructed, and must agree
        with the workload token — a payload claiming one kernel while
        shipping another is refused, not silently mis-cached.
        """
        document = payload.get("kernel") if isinstance(payload, Mapping) \
            else None
        if document is not None:
            from repro.kernels.registry import register_document

            token = register_document(document, "<run-spec payload>")
            if token != payload.get("workload"):
                raise ConfigurationError(
                    f"run-spec payload names workload "
                    f"{payload.get('workload')!r} but ships the kernel "
                    f"document of {token!r}"
                )
        try:
            return cls(
                workload=str(payload["workload"]),
                scale=str(payload["scale"]),
                seed=int(payload["seed"]),
                model=ModelSpec.from_token(payload["model"]),
                params=ArchParams(**payload["params"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed run-spec payload: {error}"
            ) from error


# ----------------------------------------------------------------------
# Fingerprint-prefix sharding
# ----------------------------------------------------------------------
#: Hex digits of the fingerprint used as the shard coordinate.  8 digits
#: (32 bits) keeps the modulus uniform for any sane shard count while
#: staying stable if the digest tail ever changes representation.
SHARD_PREFIX_HEX = 8


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``K/N`` shard selector into (index, count), 1-based.

    ``1/3`` is the first of three shards.  Raises
    :class:`~repro.errors.ConfigurationError` on malformed input.
    """
    parts = str(text).split("/")
    if len(parts) != 2:
        raise ConfigurationError(
            f"shard selector {text!r} is not of the form K/N"
        )
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigurationError(
            f"shard selector {text!r} is not of the form K/N"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ConfigurationError(
            f"shard selector {text!r} out of range (need 1 <= K <= N)"
        )
    return index, count


def shard_of(spec: "RunSpec", count: int) -> int:
    """This spec's 0-based shard assignment among ``count`` shards.

    Derived from the fingerprint prefix, so the partition is a pure
    function of spec content: every machine agrees on it without
    coordination, and it is independent of batch ordering.
    """
    return int(spec.fingerprint()[:SHARD_PREFIX_HEX], 16) % count


def shard_specs(specs: Sequence["RunSpec"], index: int,
                count: int) -> List["RunSpec"]:
    """The ``index``/``count`` (1-based) shard of a spec batch, in order.

    The ``1/N .. N/N`` shards of one batch are disjoint and cover it.
    """
    if count < 1 or not 1 <= index <= count:
        raise ConfigurationError(
            f"shard {index}/{count} out of range (need 1 <= K <= N)"
        )
    return [s for s in specs if shard_of(s, count) == index - 1]


@dataclass
class RunResult:
    """Outcome of one :class:`RunSpec`."""

    spec: RunSpec
    result: CycleResult
    cached: bool = False

    @property
    def cycles(self) -> int:
        return self.result.cycles
