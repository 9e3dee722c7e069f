"""Distributed-subsystem tests: backends, dispatcher, failure paths.

The contract under test mirrors the engine's own invariants, lifted to
multi-machine scale:

* any ``CacheBackend`` behind a ``TraceCache`` yields the same hits and
  the same misses (foreign records are misses everywhere);
* the coordinator's lease/ack protocol delivers the job's results
  exactly once — batched leases and piggybacked acks included —
  requeues crashed workers' tasks, fails the job fast on worker errors,
  and scopes results/status by server-issued job id; a new submission
  replaces an unfinished job, releasing its leases and refusing its
  late acks;
* a dispatched ``repro bench`` run is byte-identical to a local one in
  all three formats, with and without an ``--arch`` sweep, with every
  functional trace computed exactly once across the fleet;
* every failure — dead server, version skew, worker crash — surfaces as
  a one-line :class:`~repro.errors.ReproError` diagnostic (exit 2 at
  the CLI), never a traceback.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.arch.params import DEFAULT_PARAMS
from repro.cli import main
from repro.engine import (
    Engine,
    ModelSpec,
    RunSpec,
    TraceCache,
    fingerprint,
    merge_shard_documents,
    read_shard_export,
)
from repro.engine.distributed import (
    Coordinator,
    HTTPBackend,
    LocalBackend,
    MemoryBackend,
)
from repro.engine.distributed.server import DistributedServer
from repro.engine.distributed.worker import (
    CoordinatorClient,
    dispatch_job,
    work_loop,
)
from repro.engine.spec import trace_cache_key
from repro.errors import (
    ConfigurationError,
    DistributedError,
    DistributedUnavailable,
)

VN = ModelSpec.make("von_neumann")
MARIONETTE = ModelSpec.make("marionette")

SRC_DIR = str(Path(repro.__file__).parents[1])


def _specs(scale: str = "tiny"):
    return [
        RunSpec(name, scale, 0, model, DEFAULT_PARAMS)
        for name in ("gemm", "crc", "fft")
        for model in (VN, MARIONETTE)
    ]


def _payloads(specs):
    return [spec.to_payload() for spec in specs]


def _dead_url() -> str:
    """A URL on which nothing is listening (refused, not hanging)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


@contextlib.contextmanager
def _not_repro_server():
    """A live HTTP endpoint that 404s everything — not `repro serve`."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class NotRepro(BaseHTTPRequestHandler):
        def _gone(self):
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()

        do_GET = do_PUT = do_POST = do_HEAD = _gone  # noqa: N815

        def log_message(self, *args):  # noqa: A002 - stdlib signature
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), NotRepro)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()


@pytest.fixture()
def server():
    instance = DistributedServer(
        MemoryBackend(), Coordinator(lease_timeout=30.0)
    ).start()
    yield instance
    instance.stop()


# ----------------------------------------------------------------------
# Spec wire form
# ----------------------------------------------------------------------
class TestSpecWire:
    def test_payload_roundtrip_preserves_identity(self):
        spec = RunSpec("gemm", "tiny", 3, ModelSpec.make(
            "marionette", label="X", control_network=True, agile=False,
        ), DEFAULT_PARAMS)
        back = RunSpec.from_payload(
            json.loads(json.dumps(spec.to_payload()))
        )
        assert back == spec
        assert back.fingerprint() == spec.fingerprint()

    def test_all_bench_specs_roundtrip(self):
        from repro.experiments.report import all_specs

        for spec in all_specs("tiny", 0):
            assert RunSpec.from_payload(spec.to_payload()) == spec

    def test_malformed_payload_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            RunSpec.from_payload({"workload": "gemm"})


# ----------------------------------------------------------------------
# Cache backends
# ----------------------------------------------------------------------
class TestBackends:
    @pytest.fixture(params=["local", "memory"])
    def backend(self, request, tmp_path):
        if request.param == "local":
            return LocalBackend(tmp_path)
        return MemoryBackend()

    def test_get_put_contains_iter(self, backend):
        digest = "ab" * 32
        assert backend.get(digest) is None
        assert not backend.contains(digest)
        envelope = {"key": {"kind": "trace"}, "payload": {"x": 1}}
        backend.put(digest, envelope)
        assert backend.get(digest) == envelope
        assert backend.contains(digest)
        assert list(backend.iter_keys()) == [digest]

    def test_trace_cache_over_backend_matches_directory_store(
            self, tmp_path):
        key = trace_cache_key("gemm", "tiny", 0)
        disk = TraceCache(tmp_path / "store")
        disk.put(key, {"v": 1})
        shared = TraceCache(backend=LocalBackend(tmp_path / "store"))
        assert shared.get(key) == {"v": 1}

    def test_local_record_is_the_compact_json_of_its_envelope(
            self, tmp_path):
        key = trace_cache_key("gemm", "tiny", 0)
        payload = {"entry": 0, "edges": [[0, 1, 3], [1, 1, 2]],
                   "name": "gemm \u00e9", "x": 0.1}
        envelope = {"key": key, "payload": payload}
        backend = LocalBackend(tmp_path)
        backend.put(fingerprint(key), envelope)
        record = backend._path(fingerprint(key)).read_bytes()
        assert record == json.dumps(envelope).encode("utf-8")
        assert TraceCache(backend=backend).get(key) == payload

    def test_foreign_record_is_a_miss_for_every_backend(self, backend):
        key = trace_cache_key("gemm", "tiny", 0)
        backend.put(fingerprint(key), {"not": "an envelope"})
        cache = TraceCache(backend=backend)
        assert cache.get(key) is None

    def test_root_and_backend_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TraceCache(tmp_path, backend=MemoryBackend())


# ----------------------------------------------------------------------
# The coordinator protocol (no HTTP: injected clock, direct calls)
# ----------------------------------------------------------------------
class TestCoordinator:
    def _coordinator(self, timeout=60.0):
        clock = {"now": 0.0}
        coordinator = Coordinator(
            lease_timeout=timeout, clock=lambda: clock["now"]
        )
        return coordinator, clock

    def test_sims_are_blocked_until_their_trace_is_acked(self):
        coordinator, _clock = self._coordinator()
        coordinator.submit(_payloads(_specs()[:2]), scale="tiny", seed=0)
        first = coordinator.lease("w1")
        assert first["task"]["kind"] == "trace"
        # The only trace is leased; its sims are not ready yet.
        assert coordinator.lease("w2") == {"wait": True}
        assert coordinator.ack(first["id"], first["lease"], computed=True)
        assert coordinator.lease("w2")["task"]["kind"] == "sim"

    def test_results_deliver_exactly_once_with_a_cursor(self):
        coordinator, _clock = self._coordinator()
        specs = _specs()[:2]
        receipt = coordinator.submit(_payloads(specs), scale="tiny",
                                     seed=0)
        trace = coordinator.lease("w")
        coordinator.ack(trace["id"], trace["lease"], computed=True)
        seen = []
        cursor = 0
        while True:
            batch = coordinator.results_since(receipt["job"], cursor)
            seen.extend(tuple(pair) for pair in batch["results"])
            cursor = batch["completed"]
            if batch["done"]:
                break
            response = coordinator.lease("w")
            coordinator.ack(response["id"], response["lease"],
                            result={"cycles": 1})
        assert sorted(index for index, _payload in seen) == [0, 1]
        assert len(seen) == 2

    def test_expired_lease_is_requeued_and_stale_ack_discarded(self):
        coordinator, clock = self._coordinator(timeout=10.0)
        coordinator.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        doomed = coordinator.lease("crashed-worker")
        assert doomed["task"]["kind"] == "trace"
        clock["now"] = 11.0                       # the worker is dead
        retry = coordinator.lease("survivor")
        assert retry["task"] == doomed["task"]    # same task, new lease
        assert retry["lease"] != doomed["lease"]
        # The dead worker's ack must not count (exactly-once delivery).
        assert not coordinator.ack(doomed["id"], doomed["lease"],
                                   computed=True)
        assert coordinator.ack(retry["id"], retry["lease"], computed=True)
        stats = coordinator.status()["stats"]
        assert stats["requeues"] == 1
        assert stats["stale_acks"] == 1
        assert stats["traces_computed"] == 1

    def test_renewed_lease_outlives_the_timeout(self):
        # A slow-but-alive worker heartbeats: renewal pushes the
        # deadline out, so the task is neither requeued nor recomputed
        # and the eventual ack still counts.
        coordinator, clock = self._coordinator(timeout=10.0)
        coordinator.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        leased = coordinator.lease("slow-worker")
        clock["now"] = 8.0
        assert coordinator.renew(leased["id"], leased["lease"])
        clock["now"] = 15.0                   # past the original deadline
        assert coordinator.lease("thief") == {"wait": True}
        assert coordinator.ack(leased["id"], leased["lease"],
                               computed=True)
        assert coordinator.status()["stats"]["requeues"] == 0

    def test_stale_renew_is_rejected(self):
        coordinator, clock = self._coordinator(timeout=10.0)
        coordinator.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        doomed = coordinator.lease("crashed-worker")
        clock["now"] = 11.0
        retry = coordinator.lease("survivor")
        assert retry["lease"] != doomed["lease"]
        assert not coordinator.renew(doomed["id"], doomed["lease"])
        assert coordinator.renew(retry["id"], retry["lease"])

    def test_results_carry_the_job_id(self):
        coordinator, _clock = self._coordinator()
        receipt = coordinator.submit(_payloads(_specs()[:1]),
                                     scale="tiny", seed=0)
        assert coordinator.results_since(receipt["job"], 0)["job"] \
            == receipt["job"]

    def test_dead_fleet_is_observable_from_the_results_poll(self):
        # Requeue must not depend on a worker calling lease(): when the
        # whole fleet dies, the dispatch client's poll has to reclaim
        # the expired lease so it can see leased=0 and diagnose the
        # stall instead of waiting forever.
        coordinator, clock = self._coordinator(timeout=10.0)
        receipt = coordinator.submit(_payloads(_specs()[:1]),
                                     scale="tiny", seed=0)
        coordinator.lease("doomed-worker")
        assert coordinator.status()["leased"] == 1
        clock["now"] = 11.0
        coordinator.results_since(receipt["job"], 0)
        status = coordinator.status()
        assert status["leased"] == 0
        assert status["stats"]["requeues"] == 1

    def test_worker_error_fails_the_job_fast(self):
        coordinator, _clock = self._coordinator()
        receipt = coordinator.submit(_payloads(_specs()[:2]),
                                     scale="tiny", seed=0)
        trace = coordinator.lease("w")
        assert coordinator.ack(trace["id"], trace["lease"],
                               error="kernel exploded")
        verdict = coordinator.results_since(receipt["job"], 0)
        assert "kernel exploded" in verdict["failed"]
        assert coordinator.lease("w") == {"wait": True}

    def test_drain_tells_workers_to_shut_down(self):
        coordinator, _clock = self._coordinator()
        coordinator.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        coordinator.drain()
        assert coordinator.lease("w") == {"shutdown": True}
        with pytest.raises(DistributedError, match="shutting down"):
            coordinator.submit([], scale="tiny", seed=0)


# ----------------------------------------------------------------------
# Job scoping: one job slot, replaced by the next submit
# ----------------------------------------------------------------------
class TestMultiJob:
    def _coordinator(self, timeout=60.0):
        clock = {"now": 0.0}
        coordinator = Coordinator(
            lease_timeout=timeout, clock=lambda: clock["now"]
        )
        return coordinator, clock

    def _finish(self, coordinator, receipt):
        """Drive one job to completion through the lease protocol."""
        while True:
            batch = coordinator.results_since(receipt["job"], 0)
            if batch["done"]:
                return batch
            response = coordinator.lease("finisher")
            if "task" not in response:
                pytest.fail("job incomplete but nothing leasable")
            if response["task"]["kind"] == "trace":
                coordinator.ack(response["id"], response["lease"],
                                computed=True)
            else:
                coordinator.ack(response["id"], response["lease"],
                                result={"cycles": 1})

    def test_failure_releases_every_lease_the_job_holds(self):
        # A co-worker is mid-task on a job that another worker just
        # failed.  Its lease must be released immediately: the expiry
        # scan skips finished jobs, so a surviving lease would pin the
        # fleet-wide "leased" count forever — defeating the dispatch
        # stall diagnostic and stalling the shutdown drain.
        coordinator, _clock = self._coordinator()
        coordinator.submit(_payloads(_specs()[:2]), scale="tiny", seed=0)
        trace = coordinator.lease("setup")
        coordinator.ack(trace["id"], trace["lease"], computed=True)
        doomed = coordinator.lease("failer")
        survivor = coordinator.lease("co-worker")
        assert coordinator.status()["leased"] == 2
        assert coordinator.ack(doomed["id"], doomed["lease"],
                               error="kernel exploded")
        assert coordinator.status()["leased"] == 0
        # The co-worker's in-flight ack lands on a dead job: stale.
        assert not coordinator.ack(survivor["id"], survivor["lease"],
                                   result={"cycles": 1})

    def test_unknown_job_id_is_a_loud_error(self):
        coordinator, _clock = self._coordinator()
        with pytest.raises(DistributedError, match="unknown job"):
            coordinator.results_since("no-such-job", 0)
        with pytest.raises(DistributedError, match="unknown job"):
            coordinator.status("no-such-job")

    def test_per_job_status_view(self):
        coordinator, _clock = self._coordinator()
        # Before any submit the view still carries what the stall
        # diagnostic and the shutdown drain read.
        assert coordinator.status() == {"job": None, "leased": 0,
                                        "draining": False}
        receipt = coordinator.submit(_payloads(_specs()[:2]),
                                     scale="tiny", seed=0)
        status = coordinator.status(receipt["job"])
        assert status["job"] == receipt["job"]
        assert status["total"] == 2
        assert not status["done"]
        # Without a job id, the view is the current job's.
        assert coordinator.status() == status

    def test_second_submit_replaces_an_unfinished_job(self):
        # A driver that was interrupted (or stalled out) leaves its job
        # unfinished; the next driver's submit must replace it rather
        # than queue behind it or be refused.
        coordinator, _clock = self._coordinator()
        old = coordinator.submit(_payloads(_specs()[:2]), scale="tiny",
                                 seed=0)
        grant = coordinator.lease("w")
        assert coordinator.status()["leased"] == 1
        new = coordinator.submit(_payloads(_specs()[:1]), scale="tiny",
                                 seed=1)
        # The old job's lease is released: nothing pins "leased".
        assert coordinator.status()["leased"] == 0
        # Its late ack and renewal are stale, and its poll says why.
        assert not coordinator.ack(grant["id"], grant["lease"],
                                   computed=True)
        assert not coordinator.renew(grant["id"], grant["lease"])
        with pytest.raises(DistributedError,
                           match="replaced by a newer submission"):
            coordinator.results_since(old["job"], 0)
        batch = self._finish(coordinator, new)
        assert batch["failed"] is None
        assert batch["completed"] == 1
        # A finished job stays pollable until the next submit.
        assert coordinator.results_since(new["job"], 0)["done"]
        coordinator.submit(_payloads(_specs()[:1]), scale="tiny", seed=2)
        with pytest.raises(DistributedError, match="unknown job"):
            coordinator.results_since(new["job"], 0)


# ----------------------------------------------------------------------
# Batched leases and piggybacked acks
# ----------------------------------------------------------------------
class TestBatchedLease:
    def _coordinator(self, timeout=60.0):
        clock = {"now": 0.0}
        coordinator = Coordinator(
            lease_timeout=timeout, clock=lambda: clock["now"]
        )
        return coordinator, clock

    def test_lease_many_grants_up_to_the_limit(self):
        coordinator, _clock = self._coordinator()
        coordinator.submit(_payloads(_specs()[:4]), scale="tiny", seed=0)
        trace = coordinator.lease("w")
        assert trace["task"]["kind"] == "trace"
        coordinator.ack(trace["id"], trace["lease"], computed=True)
        second_trace = coordinator.lease("w")
        coordinator.ack(second_trace["id"], second_trace["lease"],
                        computed=True)
        batch = coordinator.lease_many("w", 3)
        assert len(batch["tasks"]) == 3
        assert {grant["task"]["kind"] for grant in batch["tasks"]} \
            == {"sim"}
        # The leases are distinct; each ack lands exactly once.
        leases = {grant["lease"] for grant in batch["tasks"]}
        assert len(leases) == 3

    def test_batched_leases_preserve_exactly_once_under_requeue(self):
        # A worker leases a whole batch and crashes; the survivor
        # re-leases the tasks, and the dead worker's piggybacked acks
        # (stale tokens) are discarded one by one — every task still
        # lands exactly one result.
        coordinator, clock = self._coordinator(timeout=10.0)
        receipt = coordinator.submit(_payloads(_specs()[:2]),
                                     scale="tiny", seed=0)
        trace = coordinator.lease("setup")
        coordinator.ack(trace["id"], trace["lease"], computed=True)
        doomed = coordinator.lease_many("doomed", 2)
        assert len(doomed["tasks"]) == 2
        clock["now"] = 11.0                      # the batch expired
        survivor = coordinator.lease_many("survivor", 2)
        assert {g["id"] for g in survivor["tasks"]} \
            == {g["id"] for g in doomed["tasks"]}
        for grant in survivor["tasks"]:
            assert coordinator.ack(grant["id"], grant["lease"],
                                   result={"cycles": 1})
        # The dead worker's batch of acks arrives late: all stale.
        for grant in doomed["tasks"]:
            assert not coordinator.ack(grant["id"], grant["lease"],
                                       result={"cycles": 999})
        batch = coordinator.results_since(receipt["job"], 0)
        assert sorted(i for i, _p in batch["results"]) == [0, 1]
        assert all(p == {"cycles": 1} for _i, p in batch["results"])
        stats = coordinator.status()["stats"]
        assert stats["requeues"] == 2
        assert stats["stale_acks"] == 2

    def test_http_lease_settles_piggybacked_acks_first(self, server):
        # One round trip: the trace ack rides on the lease call and is
        # settled *before* leasing, so the very sims it unblocks come
        # back in the same response.
        client = CoordinatorClient(server.url)
        client.submit(_payloads(_specs()[:2]), scale="tiny", seed=0)
        first = client.lease("w", max_tasks=1)
        grant = first["tasks"][0]
        assert grant["task"]["kind"] == "trace"
        response = client.lease("w", max_tasks=2, acks=[
            {"id": grant["id"], "lease": grant["lease"],
             "computed": True},
        ])
        assert response["acked"] == [True]
        assert len(response["tasks"]) == 2
        assert {g["task"]["kind"] for g in response["tasks"]} == {"sim"}

    def test_http_lease_reports_stale_ack_verdicts(self, server):
        client = CoordinatorClient(server.url)
        client.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        first = client.lease("w", max_tasks=1)
        grant = first["tasks"][0]
        response = client.lease("w", max_tasks=1, acks=[
            {"id": grant["id"], "lease": "L-not-mine", "computed": True},
            {"not": "an ack"},
        ])
        assert response["acked"] == [False, False]

    def test_http_batched_renew(self, server):
        client = CoordinatorClient(server.url)
        client.submit(_payloads(_specs()[:2]), scale="tiny", seed=0)
        first = client.lease("w", max_tasks=1)
        grant = first["tasks"][0]
        verdicts = client.renew_many([
            (grant["id"], grant["lease"]),
            ("bogus-task", "L-bogus"),
        ])
        assert verdicts == [True, False]

    def test_worker_cli_rejects_a_zero_lease_batch(self, capsys):
        assert main(["worker", "--connect", "http://localhost:1",
                     "--lease-batch", "0"]) == 2
        assert "--lease-batch" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The HTTP boundary
# ----------------------------------------------------------------------
class TestHTTPServer:
    def test_records_roundtrip_and_contains(self, server):
        backend = HTTPBackend(server.url)
        key = trace_cache_key("gemm", "tiny", 0)
        digest = fingerprint(key)
        assert backend.get(digest) is None
        backend.put(digest, {"key": dict(key), "payload": {"x": 1}})
        assert backend.contains(digest)
        assert backend.get(digest)["payload"] == {"x": 1}
        assert list(backend.iter_keys()) == [digest]

    def test_engines_share_records_live_through_the_server(self, server):
        producer = Engine(backend=HTTPBackend(server.url))
        assert producer.ensure_trace("gemm", "tiny", 0) is True
        consumer = Engine(backend=HTTPBackend(server.url))
        assert consumer.ensure_trace("gemm", "tiny", 0) is False
        assert consumer.stats.trace_cache_hits == 1

    def test_digest_mismatch_is_rejected(self, server):
        backend = HTTPBackend(server.url)
        with pytest.raises(DistributedError, match="HTTP 400"):
            backend.put("ff" * 32, {"key": {"kind": "trace"},
                                    "payload": {}})

    def test_negative_content_length_is_a_400_at_once(self, server):
        # rfile.read(-1) would wait for the client to hang up, so a
        # client holding the connection open would never get an answer.
        host, port = server.httpd.server_address[:2]
        for request_line in ("POST /queue/job", "POST /queue/lease",
                             f"PUT /records/{'ab' * 32}"):
            with socket.create_connection((host, port),
                                          timeout=2.0) as conn:
                conn.sendall(f"{request_line} HTTP/1.1\r\nHost: x\r\n"
                             f"Content-Length: -1\r\n\r\n".encode())
                status_line = conn.makefile("rb").readline()
            assert status_line.startswith(b"HTTP/1.1 400"), request_line

    def test_version_skew_rejects_the_job(self, server, monkeypatch):
        import repro.engine.distributed.worker as worker_module

        monkeypatch.setattr(worker_module, "ENGINE_VERSION", -1)
        client = CoordinatorClient(server.url)
        with pytest.raises(DistributedError, match="version"):
            client.check_version()
        with pytest.raises(DistributedError, match="skew"):
            client.submit([], scale="tiny", seed=0)

    def test_queue_protocol_skew_rejects_driver_and_worker(
            self, server, monkeypatch):
        # The queue wire format is versioned separately from the cache
        # envelope format: a build from before job-scoped results /
        # batched leases must be told to upgrade, not left to livelock.
        import repro.engine.distributed.worker as worker_module
        from repro.engine.distributed.backend import http_json

        monkeypatch.setattr(worker_module, "PROTOCOL_VERSION", -1)
        client = CoordinatorClient(server.url)
        with pytest.raises(DistributedError, match="protocol"):
            client.check_version()
        with pytest.raises(DistributedError, match="protocol skew"):
            client.submit([], scale="tiny", seed=0)
        # An old worker's lease body has no "max": its very first
        # lease call fails with the upgrade diagnostic.
        with pytest.raises(DistributedError, match="upgrade the worker"):
            http_json("POST", f"{server.url}/queue/lease",
                      body={"worker": "ancient"})

    def test_export_bridges_to_the_shard_merge_path(self, server,
                                                    tmp_path):
        specs = _specs()[:2]
        fleet = Engine(backend=HTTPBackend(server.url))
        fleet.execute(specs)
        document = CoordinatorClient(server.url).export(
            scale="tiny", seed=0
        )
        path = tmp_path / "fleet-export.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        merged = merge_shard_documents([read_shard_export(path)])
        replay = Engine()
        replay.cache.preload(merged["entries"])
        results = replay.execute(specs)
        assert all(run_result.cached for run_result in results)
        assert replay.stats.simulations == 0


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
class TestFailurePaths:
    def test_http_backend_connection_error_is_one_line(self):
        with pytest.raises(DistributedError) as excinfo:
            HTTPBackend(_dead_url(), timeout=2.0).get("ab" * 32)
        assert "\n" not in str(excinfo.value)
        assert "cannot reach" in str(excinfo.value)

    def test_worker_cli_against_dead_server_exits_2(self, capsys):
        assert main(["worker", "--connect", _dead_url()]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_dispatch_cli_against_dead_server_exits_2(self, capsys):
        assert main(["bench", "--scale", "tiny",
                     "--dispatch", _dead_url()]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_serve_on_an_occupied_port_exits_2(self, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            assert main(["serve", "--port", str(port)]) == 2
        finally:
            blocker.close()
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "cannot serve" in captured.err
        assert "Traceback" not in captured.err

    def test_non_repro_endpoint_is_not_reported_as_version_skew(self):
        with _not_repro_server() as url:
            with pytest.raises(DistributedError,
                               match="does not look like"):
                CoordinatorClient(url).check_version()

    def test_put_that_lands_nowhere_is_an_error_not_a_silent_drop(self):
        with _not_repro_server() as url:
            with pytest.raises(DistributedError, match="not stored"):
                HTTPBackend(url).put("ab" * 32, {"key": {}, "payload": {}})

    def test_rejected_ack_does_not_count_in_the_summary(self, server):
        class StaleClient(CoordinatorClient):
            """Every ack is rejected, as after a lease expiry."""

            def __init__(self, url):
                super().__init__(url)
                self.handed_out = False

            def lease(self, worker, *, max_tasks=1, acks=None):
                # Piggybacked acks all come back rejected (stale).
                verdicts = [False] * len(acks or [])
                if self.handed_out:
                    return {"shutdown": True, "acked": verdicts}
                self.handed_out = True
                return {"tasks": [{"task": {"kind": "trace",
                                            "workload": "gemm",
                                            "scale": "tiny", "seed": 0},
                                   "id": "t0", "lease": "L-stale"}],
                        "acked": verdicts}

            def ack(self, *args, **kwargs):
                return False

        fired = []
        summary = work_loop(server.url, client=StaleClient(server.url),
                            on_task=lambda kind, task: fired.append(kind))
        assert summary.traces_computed == 0
        assert summary.trace_cache_hits == 0
        assert not fired

    def test_failed_batch_siblings_are_skipped_not_computed(self, server):
        # A worker fails one task of a leased batch: the remaining
        # tasks of the *same job* are dead on arrival (the failure ack
        # released their leases), so the worker must skip them instead
        # of burning compute on acks that can only bounce as stale.
        class BatchFailer(CoordinatorClient):
            def __init__(self, url):
                super().__init__(url)
                self.handed_out = False
                self.error_acks = []
                self.piggybacked = []

            def lease(self, worker, *, max_tasks=1, acks=None):
                self.piggybacked.extend(acks or [])
                verdicts = [True] * len(acks or [])
                if self.handed_out:
                    return {"shutdown": True, "acked": verdicts}
                self.handed_out = True
                bad = {"kind": "sim", "index": 0,
                       "spec": {"workload": "gemm"}}     # malformed
                sibling = {"kind": "trace", "workload": "gemm",
                           "scale": "tiny", "seed": 0}
                return {"tasks": [
                    {"task": bad, "id": "j9-dead:s0", "lease": "L1"},
                    {"task": dict(sibling), "id": "j9-dead:t0",
                     "lease": "L2"},
                ], "acked": verdicts}

            def ack(self, task_id, lease, **kwargs):
                self.error_acks.append((task_id, kwargs.get("error")))
                return True

        client = BatchFailer(server.url)
        summary = work_loop(server.url, client=client)
        assert summary.failures == 1
        assert [task_id for task_id, _err in client.error_acks] \
            == ["j9-dead:s0"]
        # The sibling was neither computed nor acknowledged.
        assert client.piggybacked == []
        assert summary.traces_computed == 0

    def test_worker_survives_a_job_boundary(self, server):
        # A wait verdict between tasks is the job boundary where the
        # worker drops its per-job engine memos; the task after it must
        # still complete (served from the shared store, not the memo).
        task = {"kind": "trace", "workload": "gemm", "scale": "tiny",
                "seed": 0}

        class Sequencer(CoordinatorClient):
            def __init__(self, url):
                super().__init__(url)
                self.sequence = [
                    {"tasks": [{"task": dict(task), "id": "t0",
                                "lease": "L1"}]},
                    {"wait": True},
                    {"tasks": [{"task": dict(task), "id": "t1",
                                "lease": "L2"}]},
                    {"shutdown": True},
                ]

            def lease(self, worker, *, max_tasks=1, acks=None):
                response = dict(self.sequence.pop(0))
                response["acked"] = [True] * len(acks or [])
                return response

            def ack(self, *args, **kwargs):
                return True

        summary = work_loop(server.url, client=Sequencer(server.url),
                            poll=0.01)
        assert summary.traces_computed == 1
        assert summary.trace_cache_hits == 1

    def test_live_renewal_defeats_a_short_lease_timeout(self):
        # Over real HTTP: a lease renewed faster than it expires stays
        # live well past the timeout, and the ack still counts.
        server = DistributedServer(
            MemoryBackend(), Coordinator(lease_timeout=0.4)
        ).start()
        try:
            client = CoordinatorClient(server.url)
            receipt = client.submit(_payloads(_specs()[:1]),
                                    scale="tiny", seed=0)
            leased = client.lease("slow-worker")["tasks"][0]
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                assert client.renew(leased["id"], leased["lease"])
                # The driver's requeue poll must not steal the lease.
                client.results_since(receipt["job"], 0)
                time.sleep(0.1)
            assert client.ack(leased["id"], leased["lease"],
                              computed=True)
            assert client.status()["stats"]["requeues"] == 0
        finally:
            server.stop()

    def test_dispatch_rejects_results_from_a_different_job(self):
        class HijackedQueue:
            """submit() hands out job 1; results_since() serves job 2."""

            base_url = "http://hijacked"

            def check_version(self):
                return {}

            def submit(self, specs, *, scale, seed):
                return {"job": 1}

            def results_since(self, job_id, cursor):
                return {"job": 2, "results": [[0, {"cycles": 1}]],
                        "done": True, "failed": None}

        with pytest.raises(DistributedError, match="answered for job"):
            list(dispatch_job(HijackedQueue(), _payloads(_specs()[:1]),
                              scale="tiny", seed=0))

    def test_out_of_range_result_index_is_a_clean_error(self, capsys,
                                                        monkeypatch):
        def bogus_dispatch(client, specs, **kwargs):
            yield 999, {}

        monkeypatch.setattr(
            "repro.engine.distributed.worker.dispatch_job",
            bogus_dispatch,
        )
        assert main(["bench", "--scale", "tiny",
                     "--dispatch", _dead_url()]) == 2
        captured = capsys.readouterr()
        assert "outside our" in captured.err
        assert "Traceback" not in captured.err

    def test_shutdown_keeps_serving_while_a_lease_is_in_flight(self):
        server = DistributedServer(
            MemoryBackend(), Coordinator(), shutdown_grace=10.0
        ).start()
        client = CoordinatorClient(server.url)
        client.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        leased = client.lease("slow-worker")["tasks"][0]
        client.shutdown()
        # Mid-task ack still lands (drain()'s contract) ...
        assert client.ack(leased["id"], leased["lease"], computed=True)
        # ... and the server stops soon after the last lease resolves,
        # well before the 10s grace cap.  Stopping closes the listening
        # socket: a connect must be refused, not parked in the backlog
        # until the client's read timeout.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                client.status()
            except DistributedError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("server kept serving after its leases resolved")
        assert time.monotonic() < deadline, \
            "status() hung past the deadline instead of failing fast"
        server.httpd.server_close()

    def test_worker_ctrl_c_is_a_clean_one_line_exit(self, capsys,
                                                    monkeypatch):
        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "repro.engine.distributed.worker.work_loop", interrupted
        )
        assert main(["worker", "--connect", _dead_url()]) == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_job_body_is_a_400_not_a_server_crash(self, server):
        client = CoordinatorClient(server.url)
        with pytest.raises(DistributedError, match="HTTP 400"):
            client.submit([{"workload": "gemm"}], scale="tiny", seed=0)
        with pytest.raises(DistributedError, match="HTTP 400"):
            client.submit(["not-a-spec"], scale="tiny", seed=0)
        # The handler survived both rejections: the server still answers
        # and no half-submitted job was left behind.
        assert client.status()["job"] is None

    def test_dispatch_with_no_workers_stalls_out_with_a_diagnostic(
            self, server):
        client = CoordinatorClient(server.url)
        with pytest.raises(DistributedError, match="stalled"):
            list(dispatch_job(client, _payloads(_specs()[:1]),
                              scale="tiny", seed=0,
                              poll=0.02, stall_timeout=0.3))

    def test_replaced_dispatch_driver_exits_2_with_one_line(
            self, server, monkeypatch):
        # No workers: the first driver's job sits unfinished until a
        # second submission replaces it; the first driver's next poll
        # must end it with one diagnostic line, not a stall or a trace.
        submitted = threading.Event()
        submit = server.coordinator.submit

        def spy(*args, **kwargs):
            receipt = submit(*args, **kwargs)
            submitted.set()
            return receipt

        monkeypatch.setattr(server.coordinator, "submit", spy)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        driver = subprocess.Popen(
            [sys.executable, "-m", "repro", "bench", "--scale", "tiny",
             "--dispatch", server.url],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert submitted.wait(timeout=20.0), "driver never submitted"
            CoordinatorClient(server.url).submit(
                _payloads(_specs()[:1]), scale="tiny", seed=0
            )
            _out, err = driver.communicate(timeout=20.0)
        finally:
            driver.kill()
            driver.wait(timeout=10.0)
        assert driver.returncode == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("error:")
        assert "replaced by a newer submission" in lines[0]

    def test_crashed_worker_mid_lease_triggers_requeue(self):
        # Short leases so the test does not wait on real crash timers.
        server = DistributedServer(
            MemoryBackend(), Coordinator(lease_timeout=0.5)
        ).start()
        try:
            client = CoordinatorClient(server.url)
            specs = _specs()[:2]
            receipt = client.submit(_payloads(specs), scale="tiny",
                                    seed=0)
            # A worker leases the first task and dies without acking.
            doomed = client.lease("crashed")
            assert doomed.get("tasks")
            # A healthy worker loop finishes the whole job anyway.
            landed = {}
            poller = threading.Thread(
                target=lambda: landed.update(
                    (index, payload) for index, payload
                    in _poll_results(client, receipt["job"])
                ),
            )
            poller.start()
            summary = work_loop(server.url, poll=0.05, max_idle=2.0,
                                worker_id="survivor")
            poller.join(timeout=10.0)
            assert sorted(landed) == [0, 1]
            assert client.status()["stats"]["requeues"] >= 1
            assert summary.sims == 2
        finally:
            server.stop()

    def test_worker_task_failure_fails_the_dispatched_job(self, server):
        client = CoordinatorClient(server.url)
        bad = {"workload": "no_such_kernel", "scale": "tiny", "seed": 0,
               "model": VN.token(),
               "params": _specs()[0].to_payload()["params"]}
        worker = threading.Thread(
            target=work_loop, args=(server.url,),
            kwargs={"poll": 0.05, "max_idle": 2.0},
        )
        worker.start()
        try:
            with pytest.raises(DistributedError, match="no_such_kernel"):
                list(dispatch_job(client, [bad], scale="tiny", seed=0,
                                  poll=0.05))
        finally:
            worker.join(timeout=10.0)

    def test_shutdown_drains_workers_cleanly(self, server):
        client = CoordinatorClient(server.url)
        summaries = []
        worker = threading.Thread(
            target=lambda: summaries.append(
                work_loop(server.url, poll=0.05)
            ),
        )
        worker.start()
        receipt = client.submit(_payloads(_specs()[:1]), scale="tiny",
                                seed=0)
        landed = dict(_poll_results(client, receipt["job"]))
        client.shutdown()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert summaries and summaries[0].sims == 1
        assert sorted(landed) == [0]


def _poll_results(client: CoordinatorClient, job_id: str):
    import time as _time

    cursor = 0
    while True:
        batch = client.results_since(job_id, cursor)
        for index, payload in batch["results"]:
            yield index, payload
            cursor += 1
        if batch["done"] or batch["failed"]:
            return
        _time.sleep(0.05)


# ----------------------------------------------------------------------
# The acceptance end-to-end: real worker processes, byte-identity
# ----------------------------------------------------------------------
class TestDispatchEndToEnd:
    def test_dispatched_reports_are_byte_identical(self, capsys, server):
        local = {}
        for fmt in ("ascii", "json", "csv"):
            assert main(["bench", "--scale", "tiny",
                         "--format", fmt]) == 0
            local[fmt] = capsys.readouterr().out

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # One plain worker and one leasing in batches.
        worker_flags = [[], ["--lease-batch", "3"]]
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", server.url, "--poll", "0.05",
                 "--max-idle", "120", *flags],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            for flags in worker_flags
        ]
        client = CoordinatorClient(server.url)
        try:
            for fmt in ("ascii", "json", "csv"):
                assert main(["bench", "--scale", "tiny", "--format", fmt,
                             "--dispatch", server.url]) == 0
                captured = capsys.readouterr()
                assert captured.out == local[fmt]
                # A complete dispatched working set: nothing recomputed.
                assert "warning" not in captured.err

            # The first job computed every functional trace, so the
            # last job — the one the status view shows — was all
            # shared-cache hits.
            from repro.experiments.report import all_specs

            distinct = {spec.trace_key()
                        for spec in all_specs("tiny", 0)}
            stats = client.status()["stats"]
            assert stats["traces_computed"] == 0
            assert stats["trace_cache_hits"] == len(distinct)
        finally:
            client.shutdown()
            for worker in workers:
                worker.wait(timeout=30)
        assert all(worker.returncode == 0 for worker in workers)
        # Each trace was computed exactly once across the fleet and
        # all three jobs: the workers' exit summaries say so.
        fleet_traces = 0
        for worker in workers:
            tail = worker.stderr.read()
            fleet_traces += int(
                tail.rsplit("done: ", 1)[1].split(" traces computed")[0]
            )
        assert fleet_traces == len(distinct)

    def test_dispatched_arch_sweep_matches_local_sweep(self, capsys,
                                                       server):
        # The sweep's per-variant params travel inside the dispatched
        # spec payloads, so a fleet that knows nothing about arch files
        # still prices every variant correctly.
        sweep_dir = str(Path(SRC_DIR).parent / "examples" / "arch")
        local = {}
        for fmt in ("ascii", "json", "csv"):
            assert main(["bench", "--scale", "tiny", "--format", fmt,
                         "--arch", sweep_dir]) == 0
            local[fmt] = capsys.readouterr().out
        worker = threading.Thread(
            target=work_loop, args=(server.url,),
            kwargs={"poll": 0.05, "max_idle": 60.0},
        )
        worker.start()
        try:
            for fmt in ("ascii", "json", "csv"):
                assert main(["bench", "--scale", "tiny", "--format", fmt,
                             "--arch", sweep_dir,
                             "--dispatch", server.url]) == 0
                assert capsys.readouterr().out == local[fmt]
        finally:
            CoordinatorClient(server.url).shutdown()
            worker.join(timeout=30.0)

    def test_dispatch_stream_prints_progress_and_identical_report(
            self, capsys, server):
        assert main(["bench", "--scale", "tiny"]) == 0
        batch = capsys.readouterr().out
        worker = threading.Thread(
            target=work_loop, args=(server.url,),
            kwargs={"poll": 0.05, "max_idle": 30.0},
        )
        worker.start()
        try:
            assert main(["bench", "--scale", "tiny", "--stream",
                         "--dispatch", server.url]) == 0
            captured = capsys.readouterr()
            assert captured.out == batch
            progress = [line for line in captured.err.splitlines()
                        if line.startswith("[")]
            assert progress and "cycles" in progress[0]
        finally:
            CoordinatorClient(server.url).shutdown()
            worker.join(timeout=20.0)


class TestDispatchFlagValidation:
    @pytest.mark.parametrize("argv", [
        ["bench", "--dispatch", "http://x", "--shard", "1/2"],
        ["bench", "--dispatch", "http://x", "--merge-shards", "a.json"],
        ["bench", "--dispatch", "http://x", "--jobs", "4"],
        ["bench", "--dispatch", "http://x", "--cache-dir", "/tmp/c"],
        ["bench", "--dispatch", "http://x", "--profile"],
    ])
    def test_no_effect_combinations_are_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Fleet reliability: heartbeat race, reconnect backoff, wire contracts
# ----------------------------------------------------------------------
class TestFleetReliability:
    @pytest.fixture()
    def fast_backoff(self, monkeypatch):
        """Millisecond-scale reconnect backoff, so tests do not sleep."""
        from repro.engine.distributed import worker as worker_module

        monkeypatch.setattr(worker_module, "RECONNECT_BASE_DELAY", 0.001)
        monkeypatch.setattr(worker_module, "RECONNECT_MAX_DELAY", 0.002)

    def test_malformed_batch_renew_entry_is_a_400(self, server):
        # Wire contract: the batch form rejects a malformed entry with
        # 400 exactly like the single form.  The old behaviour — a
        # False verdict — read as "lease gone" to the heartbeat loop,
        # which then stopped renewing *healthy* leases and turned one
        # buggy renew body into a fleet-wide recompute storm.
        from repro.engine.distributed.backend import http_json

        client = CoordinatorClient(server.url)
        client.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        grant = client.lease("w", max_tasks=1)["tasks"][0]
        with pytest.raises(DistributedError, match="HTTP 400"):
            http_json("POST", f"{server.url}/queue/renew", body={
                "renews": [
                    {"id": grant["id"], "lease": grant["lease"]},
                    {"not": "a renew"},
                ],
            })
        # Well-formed-but-unknown entries still map to False verdicts
        # (stale is an answer, not a client bug) ...
        assert client.renew_many([
            (grant["id"], grant["lease"]), ("bogus-task", "L-bogus"),
        ]) == [True, False]
        # ... and the rejected call did not touch the healthy lease.
        assert client.ack(grant["id"], grant["lease"], computed=True)

    def test_heartbeat_survives_pop_while_renew(self, monkeypatch):
        # Regression hammer for the `held` data race: the renew thread
        # snapshots the dict every millisecond while the main loop pops
        # hundreds of entries.  Unsynchronized, this dies with
        # "RuntimeError: dictionary changed size during iteration" —
        # silently, in a daemon thread, taking the heartbeat (and then
        # every lease in the batch) with it.
        class RacyClient:
            base_url = "stub://racy"

            def __init__(self, batch=400, rounds=3):
                self.batch, self.rounds = batch, rounds
                self.round = 0

            def check_version(self):
                return {"lease_timeout": 0.003}   # ~1ms renew interval

            def lease(self, worker, max_tasks=1, acks=None):
                self.round += 1
                if self.round > self.rounds:
                    return {"shutdown": True, "acked": []}
                return {"acked": [], "tasks": [
                    {"task": {"kind": "sim", "index": i,
                              "spec": {"malformed": True}},
                     "id": f"j{self.round}-x:s{i}",
                     "lease": f"L{self.round}.{i}"}
                    for i in range(self.batch)
                ]}

            def renew_many(self, leases):
                return [True] * len(leases)

            def ack(self, task_id, lease, **_kwargs):
                return True

        crashed = []
        monkeypatch.setattr(
            threading, "excepthook",
            lambda args, _record=crashed: _record.append(args),
        )
        summary = work_loop("stub://racy", client=RacyClient(),
                            poll=0.001, worker_id="racer")
        assert not crashed, (
            f"heartbeat thread died: {crashed[0].exc_type.__name__}: "
            f"{crashed[0].exc_value}"
        )
        # One malformed spec fails each round's job; the siblings are
        # skipped (popped from `held`) — which is the hammer itself.
        assert summary.failures == 3

    def test_server_death_mid_response_is_transport_class(self):
        # A SIGKILLed serve can die between sending its headers and
        # finishing the body; urllib surfaces that as
        # http.client.IncompleteRead — an HTTPException, *not* an
        # OSError.  It must map to DistributedUnavailable (retryable)
        # like every other flavour of "the server went away": the
        # restart-survival lane caught a worker dying on the raw
        # traceback instead of riding the restart out.
        from repro.engine.distributed.backend import http_json

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def half_answer():
            conn, _addr = listener.accept()
            conn.recv(65536)
            conn.sendall(b"HTTP/1.0 200 OK\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 100\r\n\r\n{\"tr")
            conn.close()

        thread = threading.Thread(target=half_answer, daemon=True)
        thread.start()
        try:
            with pytest.raises(DistributedUnavailable):
                http_json("GET", f"http://127.0.0.1:{port}/health",
                          timeout=10.0)
        finally:
            thread.join(timeout=10)
            listener.close()

    def test_server_death_mid_miss_is_still_a_miss(self):
        # The same death after a 404's headers: a cache miss needs no
        # body, so the caller gets its miss instead of a raw
        # IncompleteRead that kills the worker thread.
        from repro.engine.distributed.backend import http_json

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def half_miss():
            conn, _addr = listener.accept()
            conn.recv(65536)
            conn.sendall(b"HTTP/1.0 404 Not Found\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 100\r\n\r\n{\"er")
            conn.close()

        thread = threading.Thread(target=half_miss, daemon=True)
        thread.start()
        try:
            assert http_json("GET", f"http://127.0.0.1:{port}/cache/ab",
                             timeout=10.0) == (404, None)
        finally:
            thread.join(timeout=10)
            assert not thread.is_alive()
            listener.close()

    def test_worker_rides_out_a_transient_outage(self, fast_backoff):
        class FlakyClient:
            base_url = "stub://flaky"

            def __init__(self, failures=4):
                self.failures = failures
                self.calls = 0

            def check_version(self):
                return {"lease_timeout": 30.0}

            def lease(self, worker, max_tasks=1, acks=None):
                self.calls += 1
                if self.calls <= self.failures:
                    raise DistributedUnavailable("server restarting")
                return {"shutdown": True, "acked": []}

        client = FlakyClient()
        work_loop("stub://flaky", client=client, poll=0.001,
                  reconnect=30.0)
        assert client.calls == 5   # 4 failures ridden out, then done

    def test_worker_gives_up_after_the_outage_window(self,
                                                     fast_backoff):
        class DeadClient:
            base_url = "stub://dead"
            calls = 0

            def check_version(self):
                return {"lease_timeout": 30.0}

            def lease(self, worker, max_tasks=1, acks=None):
                self.calls += 1
                raise DistributedUnavailable("still gone")

        with pytest.raises(DistributedUnavailable, match="still gone"):
            work_loop("stub://dead", client=DeadClient(), poll=0.001,
                      reconnect=0.05)

    def test_reconnect_zero_fails_on_the_first_transport_error(self):
        class DeadClient:
            base_url = "stub://dead"
            calls = 0

            def check_version(self):
                return {"lease_timeout": 30.0}

            def lease(self, worker, max_tasks=1, acks=None):
                self.calls += 1
                raise DistributedUnavailable("gone")

        client = DeadClient()
        with pytest.raises(DistributedUnavailable):
            work_loop("stub://dead", client=client, poll=0.001,
                      reconnect=0.0)
        assert client.calls == 1

    def test_protocol_errors_are_never_retried(self, fast_backoff):
        # "unknown job", version skew, malformed bodies: retrying
        # cannot fix those, so they must pass straight through the
        # reconnect machinery however generous the window.
        class RejectingClient:
            base_url = "stub://reject"
            calls = 0

            def check_version(self):
                return {"lease_timeout": 30.0}

            def lease(self, worker, max_tasks=1, acks=None):
                self.calls += 1
                raise DistributedError("queue protocol skew")

        client = RejectingClient()
        with pytest.raises(DistributedError, match="protocol skew"):
            work_loop("stub://reject", client=client, poll=0.001,
                      reconnect=3600.0)
        assert client.calls == 1

    def test_dispatch_poll_rides_out_an_outage(self, fast_backoff):
        class FlakyQueue:
            base_url = "stub://flaky"

            def __init__(self):
                self.polls = 0

            def check_version(self):
                return {}

            def submit(self, specs, *, scale, seed):
                return {"job": "j1-x"}

            def results_since(self, job_id, cursor):
                self.polls += 1
                if self.polls <= 3:
                    raise DistributedUnavailable("server restarting")
                return {"job": "j1-x",
                        "results": [[0, {"cycles": 1}]],
                        "done": True, "failed": None}

        landed = list(dispatch_job(
            FlakyQueue(), _payloads(_specs()[:1]), scale="tiny",
            seed=0, poll=0.001, reconnect=30.0,
        ))
        assert landed == [(0, {"cycles": 1})]

    def test_dispatch_poll_gives_up_after_the_window(self,
                                                     fast_backoff):
        class DeadQueue:
            base_url = "stub://dead"

            def check_version(self):
                return {}

            def submit(self, specs, *, scale, seed):
                return {"job": "j1-x"}

            def results_since(self, job_id, cursor):
                raise DistributedUnavailable("still gone")

        with pytest.raises(DistributedUnavailable, match="still gone"):
            list(dispatch_job(
                DeadQueue(), _payloads(_specs()[:1]), scale="tiny",
                seed=0, poll=0.001, reconnect=0.05,
            ))
