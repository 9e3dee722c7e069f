"""The ``repro serve`` HTTP server: cache backend + coordinator.

One stdlib :class:`~http.server.ThreadingHTTPServer` carries both halves
of the distributed subsystem, so a fleet needs exactly one URL:

====== ================================== ===============================
method path                               meaning
====== ================================== ===============================
GET    ``/health``                        liveness + engine version
GET    ``/records``                       every stored digest
GET    ``/records/<digest>``              one envelope, or 404
PUT    ``/records/<digest>``              store an envelope
                                          (digest-verified)
GET    ``/export?scale=S&seed=N``         the store as a mergeable
                                          shard export
POST   ``/queue/job``                     submit a spec batch; returns
                                          the server-issued job id
POST   ``/queue/lease``                   pull up to ``max`` ready
                                          tasks; piggybacked ``acks``
                                          are settled first
POST   ``/queue/renew``                   heartbeat: extend one live
                                          lease (``{"id", "lease"}``)
                                          or a batch (``{"renews"}``)
POST   ``/queue/ack``                     complete/fail one leased task
GET    ``/queue/results?job=J&since=N``   job J's results after a cursor
GET    ``/queue/status[?job=J]``          the current job's view
POST   ``/admin/shutdown``                drain the coordinator, stop
                                          the server
====== ================================== ===============================

The coordinator behind ``/queue/*`` holds **one job**: a submit
replaces an unfinished predecessor, and every results poll names its
job id, so a replaced driver can never consume its successor's
payloads (see :mod:`repro.engine.distributed.coordinator` for the
one-job and exactly-once invariants).

Integrity at the boundary: a ``PUT /records/<digest>`` whose body is not
a ``{"key", "payload"}`` envelope, or whose key does not hash to the
digest in the URL, is rejected with 400 — a confused client cannot
poison the content-addressed store.  A ``POST /queue/job`` from a client
built at a different :data:`~repro.engine.cache.ENGINE_VERSION` is
rejected with 409 — version skew between a bench driver and a worker
fleet would silently produce cache misses, so it fails loudly instead.
A results/status poll naming an unknown job id is a 409 with a one-line
explanation (replaced by a newer submission, or a restarted server),
never a silent empty batch.  A body with a negative or non-numeric
``Content-Length`` is a 400 at once, and the connection is closed.

``GET /export`` bridges the live subsystem back to the file-based one:
it renders the server's store as a standard shard-export document, which
``repro bench --merge-shards`` consumes unchanged — so a fleet's working
set can be archived or replayed offline.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.engine.cache import ENGINE_VERSION, fingerprint
from repro.engine.distributed.coordinator import (
    Coordinator,
    PROTOCOL_VERSION,
)
from repro.engine.export import backend_export_document
from repro.errors import DistributedError

_DIGEST = re.compile(r"^/records/([0-9a-f]{64})$")

#: Seconds between the serve loop's shutdown checks: ``stop()`` and the
#: drained ``/admin/shutdown`` wait up to this long to return.
SHUTDOWN_POLL = 0.05


class _DistributedHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer plus the two subsystem halves it serves."""

    daemon_threads = True

    def __init__(self, address, handler, backend,
                 coordinator: Coordinator,
                 shutdown_grace: float = 30.0,
                 verdict_window: float = 1.5) -> None:
        super().__init__(address, handler)
        self.backend = backend
        self.coordinator = coordinator
        self.shutdown_grace = shutdown_grace
        self.verdict_window = verdict_window


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a worker fleet
    # polling for leases would drown the operator's terminal.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- plumbing ------------------------------------------------------
    def _send_json(self, document: object, status: int = 200) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_json(self) -> Optional[object]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up, and
            # with no usable framing the connection cannot carry another
            # request: answer (the caller's 400) and close it.
            self.close_connection = True
            return None
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        match = _DIGEST.match(parsed.path)
        if match:
            record = self.server.backend.get(match.group(1))
            if record is None:
                self._send_error_json(404, "no such record")
            else:
                self._send_json(record)
        elif parsed.path == "/records":
            self._send_json(
                {"digests": sorted(self.server.backend.iter_keys())}
            )
        elif parsed.path == "/health":
            self._send_json({
                "ok": True,
                "engine_version": ENGINE_VERSION,
                "protocol_version": PROTOCOL_VERSION,
                "backend": self.server.backend.describe(),
                "lease_timeout": self.server.coordinator.lease_timeout,
            })
        elif parsed.path == "/export":
            query = parse_qs(parsed.query)
            try:
                scale = query["scale"][0]
                seed = int(query["seed"][0])
            except (KeyError, IndexError, ValueError):
                self._send_error_json(
                    400, "export needs ?scale=S&seed=N query parameters"
                )
                return
            self._send_json(backend_export_document(
                self.server.backend, scale=scale, seed=seed
            ))
        elif parsed.path == "/queue/results":
            query = parse_qs(parsed.query)
            try:
                job = query["job"][0]
            except (KeyError, IndexError):
                self._send_error_json(
                    400, "results polls are job-scoped: pass ?job=<id> "
                         "(the id from your POST /queue/job receipt)"
                )
                return
            try:
                since = int(query.get("since", ["0"])[0])
            except ValueError:
                self._send_error_json(400, "since must be an integer")
                return
            try:
                self._send_json(
                    self.server.coordinator.results_since(job, since)
                )
            except DistributedError as error:
                self._send_error_json(409, str(error))
        elif parsed.path == "/queue/status":
            query = parse_qs(parsed.query)
            job = query.get("job", [None])[0]
            try:
                self._send_json(self.server.coordinator.status(job))
            except DistributedError as error:
                self._send_error_json(409, str(error))
        else:
            self._send_error_json(404, f"no route for GET {parsed.path}")

    def do_HEAD(self) -> None:  # noqa: N802 - stdlib naming
        match = _DIGEST.match(urlparse(self.path).path)
        status = 200 if (
            match and self.server.backend.contains(match.group(1))
        ) else 404
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        match = _DIGEST.match(urlparse(self.path).path)
        if not match:
            self._send_error_json(404, f"no route for PUT {self.path}")
            return
        digest = match.group(1)
        envelope = self._read_json()
        if not isinstance(envelope, dict) or "payload" not in envelope \
                or not isinstance(envelope.get("key"), dict):
            self._send_error_json(
                400, "body must be a {key, payload} envelope"
            )
            return
        if fingerprint(envelope["key"]) != digest:
            self._send_error_json(
                400, "envelope key does not hash to the record digest"
            )
            return
        self.server.backend.put(digest, envelope)
        self._send_json({"stored": digest})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = urlparse(self.path).path
        coordinator = self.server.coordinator
        if path == "/queue/job":
            body = self._read_json()
            if not isinstance(body, dict) \
                    or not isinstance(body.get("specs"), list) \
                    or not all(isinstance(spec, dict)
                               for spec in body["specs"]):
                self._send_error_json(
                    400, "job body needs a list of spec objects"
                )
                return
            if body.get("engine_version") != ENGINE_VERSION:
                self._send_error_json(
                    409,
                    f"engine version skew: job was built for version "
                    f"{body.get('engine_version')!r}, this server runs "
                    f"{ENGINE_VERSION}",
                )
                return
            if body.get("protocol_version") != PROTOCOL_VERSION:
                # The queue wire format (job-scoped results, batched
                # leases) changed independently of the cache envelope
                # format; a pre-batching driver would livelock against
                # this server, so reject it here, loudly.
                self._send_error_json(
                    409,
                    f"queue protocol skew: driver speaks protocol "
                    f"{body.get('protocol_version')!r}, this server "
                    f"speaks {PROTOCOL_VERSION} — upgrade the driver",
                )
                return
            try:
                receipt = coordinator.submit(
                    body["specs"], scale=body.get("scale", "small"),
                    seed=body.get("seed", 0),
                )
            except DistributedError as error:
                self._send_error_json(409, str(error))
                return
            except (KeyError, TypeError, ValueError) as error:
                # A spec object missing workload/scale/seed (or with an
                # unusable seed) is a client mistake, not a server crash.
                self._send_error_json(
                    400, f"malformed spec in job body: {error!r}"
                )
                return
            self._send_json(receipt)
        elif path == "/queue/lease":
            body = self._read_json()
            if not isinstance(body, dict):
                body = {}
            worker = str(body.get("worker", "anonymous"))
            if "max" not in body:
                # A pre-batching worker (old build) sends no "max" and
                # cannot parse the {"tasks": [...]} response it would
                # get back; it would treat every grant as "wait" and
                # livelock the queue.  Fail its first lease instead.
                self._send_error_json(
                    400,
                    f"queue protocol skew: lease has no 'max' — this "
                    f"server speaks the batched lease protocol "
                    f"(v{PROTOCOL_VERSION}); upgrade the worker",
                )
                return
            try:
                limit = max(1, int(body.get("max", 1)))
            except (TypeError, ValueError):
                self._send_error_json(400, "max must be an integer")
                return
            # Settle piggybacked acks *before* leasing: a trace ack in
            # the batch may unblock the very sims this lease call is
            # about to hand out.
            acked = []
            acks = body.get("acks")
            if acks is not None and not isinstance(acks, list):
                self._send_error_json(400, "acks must be a list")
                return
            for entry in acks or []:
                if not isinstance(entry, dict) or "id" not in entry \
                        or "lease" not in entry:
                    acked.append(False)
                    continue
                acked.append(coordinator.ack(
                    str(entry["id"]), str(entry["lease"]),
                    result=entry.get("result"),
                    computed=bool(entry.get("computed", False)),
                    error=entry.get("error"),
                ))
            response = coordinator.lease_many(worker, limit)
            response["acked"] = acked
            self._send_json(response)
        elif path == "/queue/renew":
            body = self._read_json()
            if isinstance(body, dict) and isinstance(
                    body.get("renews"), list):
                # A malformed entry is a client bug, and it gets the
                # same 400 the single form gives it.  Mapping it to a
                # False verdict instead (as this endpoint once did)
                # reads as "lease gone" to the worker's heartbeat loop,
                # which then stops renewing *healthy* leases — and the
                # expiry requeue turns one buggy renew body into a
                # fleet-wide recompute storm.
                for entry in body["renews"]:
                    if not isinstance(entry, dict) or "id" not in entry \
                            or "lease" not in entry:
                        self._send_error_json(
                            400, "each renews[] entry needs id and lease"
                        )
                        return
                self._send_json({"renewed": [
                    coordinator.renew(str(entry["id"]),
                                      str(entry["lease"]))
                    for entry in body["renews"]
                ]})
                return
            if not isinstance(body, dict) or "id" not in body \
                    or "lease" not in body:
                self._send_error_json(400, "renew body needs id and lease")
                return
            self._send_json({"renewed": coordinator.renew(
                str(body["id"]), str(body["lease"])
            )})
        elif path == "/queue/ack":
            body = self._read_json()
            if not isinstance(body, dict) or "id" not in body \
                    or "lease" not in body:
                self._send_error_json(400, "ack body needs id and lease")
                return
            accepted = coordinator.ack(
                str(body["id"]), str(body["lease"]),
                result=body.get("result"),
                computed=bool(body.get("computed", False)),
                error=body.get("error"),
            )
            self._send_json({"accepted": accepted})
        elif path == "/admin/shutdown":
            coordinator.drain()
            self._send_json({"ok": True, "draining": True})
            # Stop serving in two phases: first wait for in-flight
            # leases to resolve (ack, or expiry — status() reclaims
            # expired ones), capped by the grace window, so a worker
            # mid-task still delivers its ack per drain()'s contract;
            # then keep answering for a short verdict window so lease
            # pollers observe {"shutdown": true} instead of a reset
            # connection.  Off-thread, because shutdown() blocks until
            # serve_forever returns and this handler *is* a
            # serve_forever request.
            server = self.server

            def _stop_when_drained() -> None:
                deadline = time.monotonic() + server.shutdown_grace
                while time.monotonic() < deadline:
                    if not server.coordinator.status().get("leased"):
                        break
                    time.sleep(0.05)
                time.sleep(server.verdict_window)
                server.shutdown()
                server.server_close()

            threading.Thread(target=_stop_when_drained,
                             daemon=True).start()
        else:
            self._send_error_json(404, f"no route for POST {path}")


class DistributedServer:
    """Owns one cache-backend + coordinator HTTP endpoint.

    ``port=0`` binds an ephemeral port (the resolved one is in
    :attr:`url`), which is what the tests and benchmarks use to run
    fleets on localhost without port coordination.
    """

    def __init__(self, backend, coordinator: Optional[Coordinator] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 shutdown_grace: float = 30.0,
                 verdict_window: float = 1.5) -> None:
        self.coordinator = coordinator or Coordinator()
        self.backend = backend
        self.httpd = _DistributedHTTPServer(
            (host, port), _Handler, backend, self.coordinator,
            shutdown_grace=shutdown_grace,
            verdict_window=verdict_window,
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "DistributedServer":
        """Serve on a background thread (returns self for chaining)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, args=(SHUTDOWN_POLL,),
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until shut down (the CLI path)."""
        self.httpd.serve_forever(SHUTDOWN_POLL)

    def stop(self) -> None:
        """Drain the coordinator and stop serving."""
        self.coordinator.drain()
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.httpd.server_close()
