"""Process-wide registry of ingested kernel packages.

The engine names workloads by string (``RunSpec.workload``); external
kernels ride through it as ``kernel:<name>@<fingerprint>`` tokens, so
the whole cache/shard/dispatch stack treats them like any registry
workload — the fingerprint in the token *is* their cache identity.
This module is the token resolver: :func:`register` admits a validated
:class:`~repro.kernels.package.KernelPackage`,
:func:`resolve_workload` (called by
:func:`repro.workloads.get_workload`) turns a token back into a
runnable :class:`~repro.kernels.workload.KernelWorkload`.

Registration must reach every process that resolves tokens: the
executor ships registered documents to its pool workers (initializer
state), ``RunSpec.to_payload`` attaches them to dispatch wire payloads,
and the distributed worker registers them before computing — see
:meth:`~repro.engine.executor.Engine` and the coordinator's trace-task
construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from repro.errors import ConfigurationError
from repro.kernels.package import KernelPackage, from_document

_PACKAGES: Dict[str, KernelPackage] = {}
_WORKLOADS: Dict[str, object] = {}


def register(package: KernelPackage) -> str:
    """Admit a package; returns its workload token (idempotent)."""
    token = package.workload_token()
    _PACKAGES.setdefault(token, package)
    return token


def register_document(document: Mapping[str, object],
                      source: str = "<kernel document>") -> str:
    """Validate + admit a package from its wire/canonical form."""
    return register(from_document(dict(document), source))


def register_documents(documents: Iterable[Mapping[str, object]]
                       ) -> List[str]:
    """Admit a batch (pool-worker initializers, shard-merge replays)."""
    return [register_document(document) for document in documents]


def resolve(token: str) -> KernelPackage:
    """The package behind one token; a precise error when unregistered."""
    package = _PACKAGES.get(token)
    if package is None:
        raise ConfigurationError(
            f"kernel token {token!r} is not registered in this process "
            f"— load its package (repro.kernels.load_kernel) before "
            f"building specs, or ship its document with the spec payload"
        )
    return package


def resolve_workload(token: str):
    """The runnable workload adapter behind one token (cached)."""
    if token not in _WORKLOADS:
        from repro.kernels.workload import KernelWorkload

        _WORKLOADS[token] = KernelWorkload(resolve(token))
    return _WORKLOADS[token]


def document_for(token: str) -> Dict[str, object]:
    """The canonical document to ship wherever the token travels."""
    return resolve(token).to_document()
