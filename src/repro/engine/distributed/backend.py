"""Pluggable storage backends for the content-addressed cache.

:class:`~repro.engine.cache.TraceCache` addresses records by the SHA-256
of their canonical-JSON key and stores them as ``{"key", "payload"}``
envelopes; *where* those envelopes live is this module's concern.  A
backend is anything satisfying :class:`CacheBackend` — get/put/contains/
iter-keys over digest-addressed envelopes:

* :class:`LocalBackend` — the directory store (two-level fan-out,
  temp-file + atomic-rename writes).  It lives in
  :mod:`repro.engine.cache`, so a local cache never loads this layer,
  and is re-exported here as the same class;
* :class:`MemoryBackend` — a lock-protected in-process dict, the default
  store of a ``repro serve`` cache server run without ``--cache-dir``;
* :class:`HTTPBackend` — a client for the ``repro serve`` cache server:
  shards and workers on different machines share trace and cycle
  records *live* through it instead of via shard-export files.

Backends never interpret envelopes — validation (is this a well-formed
``{"key", "payload"}`` record of the current engine version?) stays in
``TraceCache``, so every backend behaves identically on foreign or
corrupt data: it is simply a miss.

Connection-level failures of :class:`HTTPBackend` raise
:class:`~repro.errors.DistributedError`, which the CLI turns into a
one-line diagnostic and exit code 2 — a dead cache server never
surfaces as a traceback.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request
from typing import Dict, Iterator, Optional, Protocol, Tuple

from repro.engine.cache import LocalBackend
from repro.errors import DistributedError, DistributedUnavailable

#: Default timeout (seconds) for one HTTP round trip.
HTTP_TIMEOUT = 30.0


class CacheBackend(Protocol):
    """Digest-addressed envelope storage (the ``TraceCache`` substrate)."""

    def get(self, digest: str) -> Optional[dict]:
        """The stored envelope for ``digest``, or None."""

    def put(self, digest: str, envelope: dict) -> None:
        """Store ``envelope`` under ``digest`` (idempotent overwrite)."""

    def contains(self, digest: str) -> bool:
        """Whether a record exists under ``digest``."""

    def iter_keys(self) -> Iterator[str]:
        """Every stored digest (stable order not required)."""

    def describe(self) -> str:
        """Human-readable location, for diagnostics."""


class MemoryBackend:
    """An in-process store (the default for a ``repro serve`` server).

    The lock makes compound operations safe under the threading HTTP
    server; entries survive exactly as long as the owning process.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, dict] = {}
        self._lock = threading.Lock()

    def get(self, digest: str) -> Optional[dict]:
        with self._lock:
            return self._entries.get(digest)

    def put(self, digest: str, envelope: dict) -> None:
        with self._lock:
            self._entries[digest] = envelope

    def contains(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def iter_keys(self) -> Iterator[str]:
        with self._lock:
            digests = list(self._entries)
        return iter(digests)

    def describe(self) -> str:
        return "memory"


# ----------------------------------------------------------------------
# HTTP plumbing shared by the cache client and the coordinator client
# ----------------------------------------------------------------------
def http_json(method: str, url: str, body: Optional[object] = None,
              timeout: float = HTTP_TIMEOUT) -> Tuple[int, Optional[object]]:
    """One JSON-over-HTTP round trip: ``(status, decoded body or None)``.

    404 is a negative *answer* (returned), not a failure; every
    transport-level problem — refused connection, timeout, a server that
    went away mid-request — raises :class:`DistributedUnavailable` with
    a one-line description, so callers never leak urllib tracebacks and
    retry loops can tell "server momentarily gone" (retryable) apart
    from protocol-level rejections (plain :class:`DistributedError`,
    never retryable).
    """
    data = None
    headers = {"Accept": "application/json"}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        status = error.code
        if status == 404:
            return status, None
        try:
            detail = _error_detail(error.read()) or error.reason
        except (OSError, http.client.HTTPException):
            # The server died mid-body; its status line still answers.
            detail = error.reason
        raise DistributedError(
            f"{method} {url} failed: HTTP {status} ({detail})"
        ) from error
    except (urllib.error.URLError, ConnectionError, TimeoutError,
            OSError, http.client.HTTPException) as error:
        # http.client.HTTPException covers the mid-conversation breaks
        # that are *not* OSErrors: a server killed between sending its
        # headers and finishing the body raises IncompleteRead, a
        # half-written status line raises BadStatusLine.  Both mean the
        # same thing as a refused connection — the server went away —
        # and must be retryable, not a worker-killing traceback.
        reason = getattr(error, "reason", None) or error
        raise DistributedUnavailable(
            f"cannot reach {url}: {reason}"
        ) from error
    if not raw:
        return status, None
    try:
        return status, json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        # Non-JSON bytes mean we are not talking to a healthy repro
        # serve (a dying process, a proxy error page) — transport-class.
        raise DistributedUnavailable(
            f"{method} {url}: server sent malformed JSON ({error})"
        ) from error


def _error_detail(raw: bytes) -> Optional[str]:
    """The server's ``{"error": ...}`` message, when the body carries one."""
    try:
        decoded = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(decoded, dict) and isinstance(decoded.get("error"), str):
        return decoded["error"]
    return None


class HTTPBackend:
    """Client for the ``repro serve`` cache server's ``/records`` API.

    Workers on different machines attach one of these to their engine's
    ``TraceCache``: a trace computed by any worker is a live cache hit
    for every other, with no export/merge step in between.
    """

    def __init__(self, base_url: str, timeout: float = HTTP_TIMEOUT) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _record_url(self, digest: str) -> str:
        return f"{self.base_url}/records/{digest}"

    def get(self, digest: str) -> Optional[dict]:
        _status, record = http_json(
            "GET", self._record_url(digest), timeout=self.timeout
        )
        return record if isinstance(record, dict) else None

    def put(self, digest: str, envelope: dict) -> None:
        status, _document = http_json(
            "PUT", self._record_url(digest), body=envelope,
            timeout=self.timeout,
        )
        if status != 200:
            # http_json treats 404 as a benign answer (right for record
            # lookups, wrong here): a PUT that lands nowhere — a proxy,
            # a mis-rooted URL — must not silently drop the record, or
            # every worker quietly recomputes every trace.
            raise DistributedError(
                f"PUT {self._record_url(digest)} was not stored "
                f"(HTTP {status}) — is this a repro serve endpoint?"
            )

    def contains(self, digest: str) -> bool:
        # HEAD: an existence probe must not download a multi-megabyte
        # trace payload just to throw it away.
        status, _record = http_json(
            "HEAD", self._record_url(digest), timeout=self.timeout
        )
        return status == 200

    def iter_keys(self) -> Iterator[str]:
        _status, listing = http_json(
            "GET", f"{self.base_url}/records", timeout=self.timeout
        )
        digests = (listing or {}).get("digests", [])
        if not isinstance(digests, list):
            raise DistributedError(
                f"{self.base_url}/records: malformed digest listing"
            )
        return iter(str(digest) for digest in digests)

    def describe(self) -> str:
        return f"http:{self.base_url}"

    # -- server-level helpers ------------------------------------------
    def health(self) -> dict:
        """The server's ``/health`` document (raises when unreachable)."""
        _status, document = http_json(
            "GET", f"{self.base_url}/health", timeout=self.timeout
        )
        return document if isinstance(document, dict) else {}

