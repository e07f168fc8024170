"""The standing sweep service: daemon, job lifecycle, service backend.

Covers the acceptance criteria of the service tier: two clients
submitting sweeps concurrently to one daemon (a real subprocess, with a
real worker subprocess) both receive results byte-identical to serial
``evaluate_batch``; a higher-priority job's shards are scheduled ahead
of a lower-priority job's remaining shards; cancelling one job does not
disturb the other.  Also: the shared-secret handshake on cluster and
service connections, worker reconnect after a coordinator restart,
``run_stream`` ordering/early-exit across thread, process and service
backends, and the ``submit``/``status``/``cancel``/``cache`` CLI verbs.
"""

from __future__ import annotations

import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    CartesianGrid,
    ClusterBackend,
    EvaluationEngine,
    InstanceSpec,
    ServiceBackend,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    SweepSpec,
    nearest_neighbor,
    resolve_backend,
    run,
    run_stream,
)
from repro.engine import Backend
from repro.engine.cluster.protocol import (
    AUTH,
    CHALLENGE,
    GET,
    JOB_DONE,
    JOB_RESULT,
    PING,
    SECRET_ENV,
    SHARD,
    SHUTDOWN,
    SUBMIT,
    SUBMITTED,
    RESULT,
    WELCOME,
    auth_digest,
    decode_payload,
    hello,
    recv_message,
    resolve_secret,
    send_message,
)
from repro.engine.cluster import worker as worker_module
from repro.engine.cluster.worker import run_worker
from repro.service import parse_service_spec

from .test_backends import _requests, _signature
from .test_cluster import _spawn_worker, _worker_env


@pytest.fixture(scope="module")
def serial_results():
    return EvaluationEngine(max_workers=1).evaluate_batch(_requests())


def _spawn_daemon(*extra: str) -> tuple[subprocess.Popen, int]:
    """A serve-jobs daemon subprocess; returns it plus its bound port."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "serve-jobs",
            "--bind",
            "127.0.0.1:0",
            *extra,
        ],
        env=_worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60
    while True:
        line = proc.stdout.readline()
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            return proc, port
        if not line or time.monotonic() > deadline:  # pragma: no cover
            proc.kill()
            raise RuntimeError(f"daemon did not come up: {line!r}")


def _stop_daemon(proc: subprocess.Popen) -> int:
    proc.send_signal(signal.SIGINT)
    code = proc.wait(timeout=30)
    proc.stdout.close()
    return code


@pytest.fixture(scope="module")
def service():
    """One daemon subprocess plus one real (serial) worker subprocess."""
    daemon, port = _spawn_daemon()
    worker = _spawn_worker(port)
    yield port
    assert _stop_daemon(daemon) == 0
    assert worker.wait(timeout=30) == 0  # SHUTDOWN reached the worker


class _FakeServiceWorker:
    """A hand-driven worker for deterministic scheduling assertions."""

    def __init__(self, port: int, secret: str | None = None):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        send_message(self.sock, hello({"fake": True}))
        reply = recv_message(self.sock)
        if reply is not None and reply[0] == CHALLENGE:
            send_message(self.sock, (AUTH, auth_digest(secret or "", reply[1])))
            reply = recv_message(self.sock)
        assert reply is not None and reply[0] == WELCOME, reply

    def pull(self) -> tuple:
        send_message(self.sock, (GET,))
        message = recv_message(self.sock)
        assert message is not None and message[0] == SHARD, message
        return message

    def finish(self, shard_id: int, items: list) -> None:
        send_message(
            self.sock,
            (RESULT, shard_id, [f"payload-{shard_id}" for _ in items]),
        )

    def close(self) -> None:
        self.sock.close()


# ----------------------------------------------------------------------
# The service backend against a real daemon + worker (subprocesses)
# ----------------------------------------------------------------------
class TestServiceBackend:
    def test_satisfies_protocol(self):
        backend = ServiceBackend("127.0.0.1", 1)  # constructing never connects
        assert isinstance(backend, Backend)
        backend.close()

    def test_batch_byte_identical_to_serial(self, service, serial_results):
        with ServiceBackend("127.0.0.1", service) as backend:
            results = backend.evaluate_batch(_requests())
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )

    def test_stream_byte_identical_to_serial(self, service, serial_results):
        with ServiceBackend("127.0.0.1", service) as backend:
            streamed = list(backend.evaluate_stream(_requests()))
        assert sorted(map(_signature, streamed)) == sorted(
            map(_signature, serial_results)
        )

    def test_results_keep_original_requests_and_tags(self, service):
        marker = object()  # unpicklable payloads must never cross the wire
        requests = _requests(tagger=lambda i, name: (i, name, marker))
        with ServiceBackend("127.0.0.1", service) as backend:
            results = backend.evaluate_batch(requests)
        assert all(r.request is req for r, req in zip(results, requests))
        assert all(r.request.tag[2] is marker for r in results)

    def test_empty_batch(self, service):
        with ServiceBackend("127.0.0.1", service) as backend:
            assert backend.evaluate_batch([]) == []

    def test_two_concurrent_clients_byte_identical(
        self, service, serial_results
    ):
        """Acceptance: two clients, one daemon, both sweeps byte-exact."""
        boxes: list[dict] = [{}, {}]

        def client(box: dict, priority: int) -> None:
            try:
                with ServiceBackend(
                    "127.0.0.1", service, priority=priority
                ) as backend:
                    box["results"] = backend.evaluate_batch(_requests())
            except Exception as exc:  # pragma: no cover - surfaced below
                box["error"] = exc

        threads = [
            threading.Thread(target=client, args=(boxes[0], 0)),
            threading.Thread(target=client, args=(boxes[1], 5)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not any(t.is_alive() for t in threads)
        assert not any("error" in box for box in boxes), boxes
        for box in boxes:
            assert list(map(_signature, box["results"])) == list(
                map(_signature, serial_results)
            )

    def test_sweep_api_through_spec_string(self, service):
        """resolve_backend("service:...") drops into repro.run unchanged."""
        spec = SweepSpec(
            instances=[InstanceSpec.from_nodes(4, 8)],
            stencils=["nearest_neighbor"],
            mappers=["blocked", "hyperplane"],
        )
        local = run(spec).to_rows()
        remote = run(spec, backend=f"service:127.0.0.1:{service}").to_rows()
        assert remote == local

    def test_weighted_metric_byte_identical_to_serial(self, service):
        from .test_backends import _weighted_requests

        with EvaluationEngine(max_workers=1) as engine:
            serial = engine.evaluate_batch(_weighted_requests())
        with ServiceBackend("127.0.0.1", service) as backend:
            results = backend.evaluate_batch(_weighted_requests())
        assert list(map(_signature, results)) == list(map(_signature, serial))
        assert any(r.metrics for r in results)


# ----------------------------------------------------------------------
# Job lifecycle against a real daemon subprocess, hand-driven worker
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def job_daemon():
    """A daemon subprocess with no real workers (tests drive their own)."""
    daemon, port = _spawn_daemon()
    yield port
    assert _stop_daemon(daemon) == 0


class TestJobLifecycle:
    def test_priority_ahead_of_remaining_shards(self, job_daemon):
        """Acceptance: a later, higher-priority job's shards are handed
        to workers before the earlier job's remaining shards."""
        client = ServiceClient("127.0.0.1", job_daemon)
        worker = _FakeServiceWorker(job_daemon)
        low = client.submit(
            [[("low", i)] for i in range(3)], priority=0, label="low"
        )
        high = None
        try:
            first = worker.pull()  # holds one low shard mid-"evaluation"
            assert first[1] in low.shard_ids
            high = client.submit(
                [[("high", i)] for i in range(2)], priority=5, label="high"
            )
            order = []
            for _ in range(4):
                message = worker.pull()
                order.append("high" if message[1] in high.shard_ids else "low")
                worker.finish(message[1], message[2])
            worker.finish(first[1], first[2])
            assert order == ["high", "high", "low", "low"]
            assert len(list(high.results())) == 2
            assert len(list(low.results())) == 3
        finally:
            worker.close()
            low.close()
            if high is not None:
                high.close()

    def test_cancel_one_job_leaves_the_other(self, job_daemon):
        """Acceptance: cancelling one job does not disturb the other."""
        client = ServiceClient("127.0.0.1", job_daemon)
        worker = _FakeServiceWorker(job_daemon)
        doomed = client.submit([[("doomed", i)] for i in range(2)], label="doomed")
        kept = client.submit([[("kept", 0)]], label="kept")
        try:
            assert client.cancel(doomed.job_id) is True
            # The worker only ever sees the surviving job's shard.
            message = worker.pull()
            assert message[1] in kept.shard_ids
            worker.finish(message[1], message[2])
            assert len(list(kept.results())) == 1
            with pytest.raises(ServiceError, match="cancelled"):
                list(doomed.results())
            states = {r["job"]: r["state"] for r in client.status()}
            assert states[doomed.job_id] == "cancelled"
            assert states[kept.job_id] == "done"
        finally:
            worker.close()
            doomed.close()
            kept.close()

    def test_cancel_unknown_job_is_false(self, job_daemon):
        client = ServiceClient("127.0.0.1", job_daemon)
        assert client.cancel("job-999999") is False

    def test_status_single_job_and_fields(self, job_daemon):
        client = ServiceClient("127.0.0.1", job_daemon)
        handle = client.submit([[("s", 0)]], priority=3, label="fields")
        try:
            (record,) = client.status(handle.job_id)
            assert record["state"] == "queued"  # no worker pulled it yet
            assert record["priority"] == 3
            assert record["label"] == "fields"
            assert record["shards"] == 1
            assert record["completed"] == 0
            assert record["submitted_at"] > 0
            assert record["age"] >= 0.0  # monotonic queue age
            assert client.status("job-999999") == []
        finally:
            assert client.cancel(handle.job_id) is True
            handle.close()

    def test_empty_job_is_done_immediately(self, job_daemon):
        client = ServiceClient("127.0.0.1", job_daemon)
        with client.submit([]) as handle:
            assert handle.shard_ids == []
            assert list(handle.results()) == []
        (record,) = client.status(handle.job_id)
        assert record["state"] == "done"


class TestDaemonLifecycle:
    def test_client_disconnect_cancels_its_jobs(self):
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=2.0) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port)
            handle = client.submit([[("x", 0)]], label="abandoned")
            handle.close()  # walk away without draining
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                (record,) = daemon.jobs(handle.job_id)
                if record["state"] == "cancelled":
                    break
                time.sleep(0.1)
            assert record["state"] == "cancelled"
            # the daemon is unharmed: a fresh job still completes
            worker = _FakeServiceWorker(daemon.port)
            fresh = client.submit([[("y", 0)]])
            message = worker.pull()
            worker.finish(message[1], message[2])
            assert len(list(fresh.results())) == 1
            worker.close()
            fresh.close()

    def test_daemon_close_fails_open_jobs(self):
        daemon = ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=6.0)
        client = ServiceClient("127.0.0.1", daemon.port)
        handle = client.submit([[("x", 0)]], label="orphaned")
        daemon.close()
        with pytest.raises(ServiceError, match="shut down|closed|lost"):
            list(handle.results())
        handle.close()

    def test_plain_cluster_coordinator_rejects_clients(self):
        with ClusterBackend("127.0.0.1", 0, heartbeat_timeout=6.0) as backend:
            client = ServiceClient("127.0.0.1", backend.port)
            with pytest.raises(ServiceError, match="serve-jobs"):
                client.status()


# ----------------------------------------------------------------------
# Shared-secret handshake (cluster and service connections)
# ----------------------------------------------------------------------
class TestSharedSecret:
    def test_worker_with_matching_secret_serves_sweep(self, serial_results):
        with ClusterBackend(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="tops3cret"
        ) as backend:
            box: dict = {}

            def serve() -> None:
                box["code"] = run_worker(
                    f"127.0.0.1:{backend.port}",
                    backend_spec="serial",
                    secret="tops3cret",
                    log=lambda *_: None,
                )

            worker = threading.Thread(target=serve)
            worker.start()
            results = backend.evaluate_batch(_requests())
            backend.close()
            worker.join(timeout=30)
        assert box["code"] == 0
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )

    def test_worker_with_wrong_secret_rejected(self):
        with ClusterBackend(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="tops3cret"
        ) as backend:
            logged: list[str] = []
            code = run_worker(
                f"127.0.0.1:{backend.port}",
                backend_spec="serial",
                secret="wrong",
                log=logged.append,
            )
        assert code == 2
        assert any("authentication failed" in line for line in logged)

    def test_worker_without_secret_rejected(self):
        with ClusterBackend(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="tops3cret"
        ) as backend:
            logged: list[str] = []
            code = run_worker(
                f"127.0.0.1:{backend.port}",
                backend_spec="serial",
                log=logged.append,
            )
        assert code == 2
        assert any("requires a shared secret" in line for line in logged)

    def test_service_client_secrets(self):
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="tops3cret"
        ) as daemon:
            with pytest.raises(ServiceError, match="requires a shared secret"):
                ServiceClient("127.0.0.1", daemon.port).status()
            with pytest.raises(ServiceError, match="authentication failed"):
                ServiceClient("127.0.0.1", daemon.port, secret="bad").status()
            client = ServiceClient(
                "127.0.0.1", daemon.port, secret="tops3cret"
            )
            assert client.status() == []

    def test_resolve_secret_precedence(self, monkeypatch):
        monkeypatch.delenv(SECRET_ENV, raising=False)
        assert resolve_secret(None) is None
        assert resolve_secret("s") == "s"
        monkeypatch.setenv(SECRET_ENV, "from-env")
        assert resolve_secret(None) == "from-env"
        assert resolve_secret("explicit") == "explicit"
        assert resolve_secret("") == "from-env" or resolve_secret("") is None
        monkeypatch.setenv(SECRET_ENV, "")
        assert resolve_secret(None) is None

    def test_subprocess_worker_env_secret(self, serial_results):
        """A real worker subprocess authenticates via the env variable."""
        with ClusterBackend(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="envsecret"
        ) as backend:
            env = _worker_env()
            env[SECRET_ENV] = "envsecret"
            worker = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.engine.cluster.worker",
                    "--connect",
                    f"127.0.0.1:{backend.port}",
                    "--backend",
                    "serial",
                    "--connect-timeout",
                    "30",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            results = backend.evaluate_batch(_requests())
            backend.close()
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )
        assert worker.wait(timeout=30) == 0


# ----------------------------------------------------------------------
# Worker reconnect after a coordinator restart
# ----------------------------------------------------------------------
class _FlakyCoordinator:
    """Accepts twice: drops the first connection abruptly, then SHUTDOWNs."""

    def __init__(self, drop_first: bool = True):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(2)
        self.port = self.listener.getsockname()[1]
        self.accepts = 0
        self.drop_first = drop_first
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _recv_until(self, conn: socket.socket, kind: str) -> None:
        while True:
            message = recv_message(conn)
            if message is None or message[0] == kind:
                return

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        self.accepts += 1
        recv_message(conn)  # HELLO
        send_message(conn, (WELCOME, {"heartbeat_interval": 1.0}))
        self._recv_until(conn, GET)
        conn.close()  # abrupt: no SHUTDOWN — a crashed/restarted daemon
        if not self.drop_first:
            return
        conn, _ = self.listener.accept()
        self.accepts += 1
        recv_message(conn)  # HELLO
        send_message(conn, (WELCOME, {"heartbeat_interval": 1.0}))
        self._recv_until(conn, GET)
        send_message(conn, (SHUTDOWN,))
        self._recv_until(conn, "never")  # drain until the worker closes

    def close(self) -> None:
        self.listener.close()


class TestWorkerReconnect:
    def test_reconnects_after_coordinator_restart(self):
        fake = _FlakyCoordinator()
        logged: list[str] = []
        try:
            code = run_worker(
                f"127.0.0.1:{fake.port}",
                backend_spec="serial",
                reconnect_timeout=30.0,
                log=logged.append,
            )
        finally:
            fake.close()
        assert code == 0  # the *second* connection delivered SHUTDOWN
        assert fake.accepts == 2
        assert any("reconnecting" in line for line in logged)

    def test_reconnect_disabled_exits_on_loss(self):
        fake = _FlakyCoordinator(drop_first=False)
        try:
            code = run_worker(
                f"127.0.0.1:{fake.port}",
                backend_spec="serial",
                reconnect_timeout=0.0,
                log=lambda *_: None,
            )
        finally:
            fake.close()
        assert code == 1
        assert fake.accepts == 1


# ----------------------------------------------------------------------
# The Nagle/delayed-ACK stall: every blocking peer socket sets
# TCP_NODELAY, so a request/reply round-trip costs no 40 ms ACK wait
# ----------------------------------------------------------------------
def _nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestNoNagleStall:
    def test_client_socket_sets_nodelay(self):
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            sock, _ = ServiceClient("127.0.0.1", daemon.port)._connect()
            try:
                assert _nodelay(sock) == 1
            finally:
                sock.close()

    def test_worker_socket_sets_nodelay(self, monkeypatch):
        seen: list[int] = []
        serve = worker_module._serve_connection

        def spy(sock, *args, **kwargs):
            seen.append(_nodelay(sock))
            return serve(sock, *args, **kwargs)

        monkeypatch.setattr(worker_module, "_serve_connection", spy)
        fake = _FlakyCoordinator(drop_first=False)
        try:
            code = run_worker(
                f"127.0.0.1:{fake.port}",
                backend_spec="serial",
                reconnect_timeout=0.0,
                log=lambda *_: None,
            )
        finally:
            fake.close()
        assert code == 1
        assert seen == [1]

    def test_status_roundtrip_median_under_10ms(self):
        """A bare STATUS round-trip (connect, handshake, request, reply)
        against an in-process daemon.  On a 2-vCPU Linux host it takes
        about 0.9 ms with TCP_NODELAY and 44 ms with Nagle's algorithm
        on.  Median of per-call timings, not a best-of."""
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port)
            client.status()  # warm-up: imports, first accept
            timings = []
            for _ in range(20):
                start = time.perf_counter()
                client.status()
                timings.append(time.perf_counter() - start)
        median = statistics.median(timings)
        assert median < 0.010, (
            f"STATUS round-trip median {median * 1e3:.1f} ms (budget 10 ms)"
        )


# ----------------------------------------------------------------------
# Job connections: a drained job's connection serves the next submit,
# and one heartbeat thread serves every live job
# ----------------------------------------------------------------------
def _finish_next(worker: _FakeServiceWorker) -> None:
    message = worker.pull()
    worker.finish(message[1], message[2])


def _heartbeat_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if t.name == "repro-service-heartbeat"
    ]


class TestJobConnections:
    def test_drained_job_hands_its_connection_to_the_next(self):
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            try:
                with ServiceClient("127.0.0.1", daemon.port) as client:
                    with client.submit([[("a", 0)]]) as first:
                        _finish_next(worker)
                        assert len(list(first.results())) == 1
                    with client.submit([[("b", 0)]]) as second:
                        assert second._sock is first._sock
                        _finish_next(worker)
                        assert len(list(second.results())) == 1
                assert first._sock.fileno() == -1  # closed with the client
                assert [r["state"] for r in daemon.jobs()] == ["done", "done"]
            finally:
                worker.close()

    def test_undrained_job_does_not_hand_back_its_connection(self):
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                abandoned = client.submit([[("a", 0)]])
                abandoned.close()
                with client.submit([]) as fresh:
                    assert fresh._sock is not abandoned._sock
                    assert list(fresh.results()) == []

    def test_connection_idle_past_the_heartbeat_interval_is_replaced(self):
        # heartbeat_timeout 0.3 s: the WELCOME interval is 0.1 s.
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=0.3) as daemon:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                with client.submit([]) as first:
                    list(first.results())
                time.sleep(0.2)
                with client.submit([]) as second:
                    assert second._sock is not first._sock
                    assert list(second.results()) == []

    def test_dropped_idle_connection_falls_back_to_a_fresh_one(self):
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                with client.submit([]) as first:
                    list(first.results())
                first._sock.shutdown(socket.SHUT_RDWR)  # the session is gone
                with client.submit([]) as second:
                    assert second._sock is not first._sock
                    assert list(second.results()) == []
            assert len(daemon.jobs()) == 2

    def test_jobs_of_one_client_share_one_heartbeat_thread(self):
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                before = set(_heartbeat_threads())
                with client.submit([]) as first:
                    list(first.results())
                with client.submit([]) as second:
                    list(second.results())
                handles = [client.submit([[("x", i)]]) for i in range(5)]
                try:
                    assert len(set(_heartbeat_threads()) - before) == 1
                finally:
                    for handle in handles:
                        handle.close()

    def test_slow_consumer_is_kept_alive_by_heartbeats(self):
        """The daemon drops a client silent for its heartbeat timeout;
        pings keep a job alive while its consumer dwells on a result."""
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=0.6) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            try:
                with ServiceClient("127.0.0.1", daemon.port) as client:
                    with client.submit([[("x", 0)], [("x", 1)]]) as handle:
                        _finish_next(worker)
                        stream = handle.results()
                        next(stream)
                        for _ in range(5):  # two and a half heartbeat timeouts
                            time.sleep(0.3)
                            send_message(worker.sock, (PING,))  # the worker's own
                        _finish_next(worker)
                        assert len(list(stream)) == 1
                (record,) = daemon.jobs(handle.job_id)
                assert record["state"] == "done"
            finally:
                worker.close()


# ----------------------------------------------------------------------
# run_stream ordering and early-consumer exit, across backends
# ----------------------------------------------------------------------
def _stream_spec() -> SweepSpec:
    return SweepSpec(
        instances=[InstanceSpec.from_nodes(n, 8) for n in (4, 6)],
        stencils=["nearest_neighbor"],
        mappers=["blocked", "hyperplane", "stencil_strips"],
    )


def _row_key(row):
    return (row.instance, row.stencil, row.mapper)


class TestRunStream:
    @pytest.fixture(params=["thread:2", "process:2", "service"])
    def stream_backend(self, request):
        if request.param == "service":
            port = request.getfixturevalue("service")
            yield f"service:127.0.0.1:{port}"
        else:
            yield request.param

    def test_rows_arrive_per_shard_and_cover_the_spec(self, stream_backend):
        from repro import ResultSet

        spec = _stream_spec()
        key = lambda r: (r["instance"], r["stencil"], r["mapper"])  # noqa: E731
        expected = sorted(run(spec).to_rows(), key=key)
        streamed = list(run_stream(spec, backend=stream_backend))
        assert all(row.ok for row in streamed)
        # Completion order may differ from spec order; coverage and
        # values must not.
        assert sorted(ResultSet(streamed).to_rows(), key=key) == expected

    def test_early_consumer_exit_cancels_cleanly(self, stream_backend):
        spec = _stream_spec()
        stream = run_stream(spec, backend=stream_backend)
        first = next(stream)
        stream.close()  # the consumer walks away mid-sweep
        assert first.instance  # a real row arrived before the exit
        # The backend (and for service: the daemon) survives — the same
        # spec still runs to completion afterwards.
        results = run(spec, backend=stream_backend)
        assert all(row.ok for row in results.rows)

    def test_service_jobs_all_terminal_after_early_exit(self, service):
        """Closing the stream cancels the job daemon-side (no zombie
        jobs holding queue slots)."""
        spec = _stream_spec()
        stream = run_stream(spec, backend=f"service:127.0.0.1:{service}")
        next(stream)
        stream.close()
        client = ServiceClient("127.0.0.1", service)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            states = {r["state"] for r in client.status()}
            if states <= {"done", "cancelled", "failed"}:
                return
            time.sleep(0.1)
        pytest.fail(f"jobs left non-terminal: {client.status()}")


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
class TestServiceSpec:
    def test_parse_service_spec(self):
        assert parse_service_spec("7077") == ("127.0.0.1", 7077, 0)
        assert parse_service_spec("head:7077") == ("head", 7077, 0)
        assert parse_service_spec("7077:5") == ("127.0.0.1", 7077, 5)
        assert parse_service_spec("7077:-5") == ("127.0.0.1", 7077, -5)
        assert parse_service_spec("head:7077:5") == ("head", 7077, 5)
        assert parse_service_spec(":7077:5") == ("127.0.0.1", 7077, 5)
        with pytest.raises(ValueError):
            parse_service_spec("")
        with pytest.raises(ValueError):
            parse_service_spec("head:notaport")
        with pytest.raises(ValueError):
            parse_service_spec("head:7077:high")
        with pytest.raises(ValueError):
            parse_service_spec("a:b:c:d")

    def test_resolve_backend_service_spec(self):
        backend = resolve_backend("service:127.0.0.1:7077:4")
        try:
            assert isinstance(backend, ServiceBackend)
            assert (backend.host, backend.port, backend.priority) == (
                "127.0.0.1",
                7077,
                4,
            )
        finally:
            backend.close()

    def test_resolve_backend_rejects_shards(self):
        with pytest.raises(ValueError, match="shards"):
            resolve_backend("service:7077", shards=4)

    def test_worker_refuses_service_backend(self):
        with pytest.raises(ValueError, match="cannot itself"):
            run_worker("127.0.0.1:1", backend_spec="service:7077")


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class TestServiceCLI:
    def test_submit_status_roundtrip(self, service, capsys):
        from repro.experiments.__main__ import main as experiments_main

        code = experiments_main(
            [
                "submit",
                "sweep",
                "--connect",
                f"127.0.0.1:{service}",
                "--priority",
                "2",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] and all(r["ok"] for r in doc["rows"])

        code = experiments_main(
            ["status", "--connect", f"127.0.0.1:{service}", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(
            r["state"] == "done" and r["priority"] == 2 for r in doc["jobs"]
        )
        # the full document carries the per-client and pool sections
        assert doc["clients"] and doc["clients"][0]["jobs_submitted"] >= 1
        assert doc["pool"]["workers"] >= 1

    def test_status_table_lists_columns(self, service, capsys):
        from repro.experiments.__main__ import main as experiments_main

        assert experiments_main(
            ["status", "--connect", f"127.0.0.1:{service}"]
        ) == 0
        out = capsys.readouterr().out
        assert "job" in out and "state" in out and "priority" in out

    def test_cancel_unknown_job_exits_1(self, service, capsys):
        from repro.experiments.__main__ import main as experiments_main

        code = experiments_main(
            [
                "cancel",
                "--connect",
                f"127.0.0.1:{service}",
                "--job",
                "job-999999",
            ]
        )
        assert code == 1

    def test_submit_requires_connect(self):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(["submit", "sweep"])

    def test_submit_rejects_unknown_target(self, service):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(
                ["submit", "figure6", "--connect", f"127.0.0.1:{service}"]
            )


class TestCacheCLI:
    @staticmethod
    def _seed(tmp_path) -> None:
        from repro.engine.diskcache import DiskEdgeCache

        cache = DiskEdgeCache(tmp_path)
        grid = CartesianGrid([4, 4])
        cache.store(grid, nearest_neighbor(2), np.zeros((6, 2), dtype=np.int64))
        assert cache.stats().entries == 1
        assert cache.stats().total_bytes > 0

    def test_stats_and_clear(self, tmp_path):
        from repro.engine.diskcache import DiskEdgeCache

        self._seed(tmp_path)
        cache = DiskEdgeCache(tmp_path)
        assert cache.clear() == 1
        stats = cache.stats()
        assert stats.entries == 0 and stats.total_bytes == 0

    def test_cache_cli_table_json_clear(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as experiments_main

        from repro.engine.diskcache import STORE_KINDS, DiskStore

        self._seed(tmp_path)
        DiskStore(tmp_path, "result").store("a" * 64, ("perm", None, None, {}))
        assert experiments_main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(tmp_path) in out
        assert "result" in out

        assert experiments_main(
            [
                "cache",
                "--cache-dir",
                str(tmp_path),
                "--clear",
                "--format",
                "json",
            ]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        by_kind = {record["kind"]: record for record in records}
        assert set(by_kind) == set(STORE_KINDS)
        assert by_kind["edges"]["removed"] == 1
        assert by_kind["result"]["removed"] == 1
        assert by_kind["perm"]["removed"] == 0
        assert all(record["entries"] == 0 for record in records)

    def test_cache_cli_without_directory_fails(self, monkeypatch):
        from repro.engine.diskcache import CACHE_DIR_ENV
        from repro.experiments.__main__ import main as experiments_main

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        with pytest.raises(SystemExit, match="no cache directory"):
            experiments_main(["cache"])


# ----------------------------------------------------------------------
# The memoized result-serving layer (content-addressed result store)
# ----------------------------------------------------------------------
def _row_signature(row) -> tuple:
    """Byte-exact comparable form of one wire row
    ``(index, perm, cost, error, metrics)``."""
    index, perm, cost, error, metrics = row
    return (
        index,
        None if perm is None else perm.tobytes(),
        None
        if cost is None
        else (cost.jsum, cost.jmax, cost.per_node.tobytes()),
        error,
        tuple(sorted(metrics.items())),
    )


def _worker_rows(items: list) -> list:
    """What a real worker would answer for one shard, computed locally."""
    with EvaluationEngine(max_workers=1) as engine:
        results = engine.evaluate_batch([request for _, request in items])
    return [
        (index, result.perm, result.cost, result.error, result.metrics)
        for (index, _), result in zip(items, results)
    ]


class TestResultStore:
    def test_same_sweep_twice_with_restart_serves_from_store(self, tmp_path):
        """Golden: a repeat SweepSpec submitted after a daemon restart
        (same cache dir) returns byte-identical rows with zero shards
        dispatched — the second daemon has no workers at all."""
        spec = SweepSpec(
            instances=[
                InstanceSpec.from_nodes(4, 8),
                InstanceSpec.from_nodes(6, 8),
            ],
            stencils=["nearest_neighbor"],
            mappers=["blocked", "hyperplane", "nodecart"],
        )
        assert spec.fingerprint() == spec.fingerprint()
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _spawn_worker(daemon.port)
            try:
                daemon.wait_for_workers(1, timeout=60)
                with ServiceBackend("127.0.0.1", daemon.port) as backend:
                    first = run(spec, backend).to_rows()
            finally:
                pass  # daemon close shuts the worker down
        assert worker.wait(timeout=30) == 0

        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            assert daemon.num_workers == 0
            with ServiceBackend("127.0.0.1", daemon.port) as backend:
                second = run(spec, backend).to_rows()
            (record,) = daemon.jobs()
            assert record["shards"] == 0  # nothing dispatched
            assert record["state"] == "done"
        assert second == first
        serial = run(spec, EvaluationEngine(max_workers=1)).to_rows()
        assert second == serial

    def test_concurrent_identical_cells_compute_once(self, tmp_path):
        """Two clients submitting identical in-flight cells trigger
        exactly one computation, fanned out to both jobs."""
        payload = [(i, r) for i, r in enumerate(_requests()[:4])]
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            a = ServiceClient("127.0.0.1", daemon.port)
            b = ServiceClient("127.0.0.1", daemon.port)
            try:
                ha = a.submit([payload], label="owner")
                message = worker.pull()  # job A's only shard
                hb = b.submit([payload], label="subscriber")
                # B dispatched nothing: all its cells subscribed to A's
                (record,) = b.status(hb.job_id)
                assert record["shards"] == 0
                # exactly the one computation answers both jobs
                rows = _worker_rows(message[2])
                send_message(worker.sock, (RESULT, message[1], rows))
                got_a = [p for _, p in ha.results()]
                got_b = [p for _, p in hb.results()]
                assert len(got_a) == 1 and len(got_b) == 1
                assert list(map(_row_signature, got_b[0])) == list(
                    map(_row_signature, got_a[0])
                )
                # no rescue/extra jobs ever appeared
                assert len(daemon.jobs()) == 2
            finally:
                worker.close()
                for handle in (ha, hb):
                    handle.close()

    def test_cancelling_the_owner_rescues_the_subscriber(self, tmp_path):
        """Cancelling the job that owns an in-flight cell re-dispatches
        the cell on behalf of a job still waiting for it."""
        payload = [(i, r) for i, r in enumerate(_requests()[:2])]
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            a = ServiceClient("127.0.0.1", daemon.port)
            b = ServiceClient("127.0.0.1", daemon.port)
            try:
                ha = a.submit([payload], label="owner")
                worker.pull()  # A's shard is in flight on the worker
                hb = b.submit([payload], label="subscriber")
                assert b.status(hb.job_id)[0]["shards"] == 0
                assert a.cancel(ha.job_id) is True
                with pytest.raises(ServiceError, match="cancelled"):
                    list(ha.results())
                # the subscriber inherited the cells: a rescue shard
                rescue = worker.pull()
                rows = _worker_rows(rescue[2])
                send_message(worker.sock, (RESULT, rescue[1], rows))
                got_b = [p for _, p in hb.results()]
                assert len(got_b) == 1
                assert list(map(_row_signature, got_b[0])) == list(
                    map(_row_signature, rows)
                )
            finally:
                worker.close()
                for handle in (ha, hb):
                    handle.close()

    def test_partial_hits_dispatch_only_unknown_cells(self, tmp_path):
        """A job mixing known and novel cells ships only the novel ones."""
        requests = _requests()[:4]
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            client = ServiceClient("127.0.0.1", daemon.port)
            try:
                warm = [(i, r) for i, r in enumerate(requests[:2])]
                h1 = client.submit([warm], label="warm")
                message = worker.pull()
                send_message(
                    worker.sock,
                    (RESULT, message[1], _worker_rows(message[2])),
                )
                assert len(list(h1.results())) == 1
                # repeat the two known cells plus two novel ones
                mixed = [(i, r) for i, r in enumerate(requests)]
                h2 = client.submit([mixed], label="mixed")
                message = worker.pull()
                assert len(message[2]) == 2  # only the novel cells shipped
                send_message(
                    worker.sock,
                    (RESULT, message[1], _worker_rows(message[2])),
                )
                (got,) = [p for _, p in h2.results()]
                assert [row[0] for row in got] == [0, 1, 2, 3]
                assert all(row[1] is not None for row in got)
            finally:
                worker.close()
                h1.close()
                h2.close()

    def test_store_dir_is_not_advertised_to_workers(self, tmp_path):
        """The result store answers repeat cells, so the daemon tells
        workers to keep no per-cell disk tiers of their own."""
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=30
            ) as sock:
                send_message(sock, hello({"fake": True}))
                welcome = recv_message(sock)
        assert welcome[0] == WELCOME
        assert welcome[1]["cache_dir"] is None

    def test_store_answered_job_is_one_write(self, tmp_path):
        """A job the store answers whole reaches the client as one
        write: SUBMITTED, every JOB_RESULT and JOB_DONE together."""
        payload = [(i, r) for i, r in enumerate(_requests()[:2])]
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            try:
                with ServiceClient("127.0.0.1", daemon.port) as client:
                    with client.submit([payload]) as first:
                        message = worker.pull()
                        send_message(
                            worker.sock,
                            (RESULT, message[1], _worker_rows(message[2])),
                        )
                        list(first.results())
            finally:
                worker.close()
            sock, _ = ServiceClient("127.0.0.1", daemon.port)._connect()
            try:
                send_message(sock, (SUBMIT, [payload], {}))
                data = sock.recv(1 << 20)
            finally:
                sock.close()
        kinds = []
        while data:
            size = int.from_bytes(data[:4], "big")
            kinds.append(decode_payload(data[4 : 4 + size])[0])
            data = data[4 + size :]
        assert kinds == [SUBMITTED, JOB_RESULT, JOB_DONE]

    def test_torn_store_entry_is_a_counted_miss(self, tmp_path):
        """A truncated ``result-*.pkl`` reads as a miss, counted as
        corrupt in METRICS, and its cell is recomputed correctly."""
        payload = [(i, r) for i, r in enumerate(_requests()[:2])]
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            client = ServiceClient("127.0.0.1", daemon.port)
            try:
                first = client.submit([payload], label="first")
                message = worker.pull()
                expected = _worker_rows(message[2])
                send_message(worker.sock, (RESULT, message[1], expected))
                assert len(list(first.results())) == 1
                torn, _ = sorted(tmp_path.glob("result-*.pkl"))
                torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])

                repeat = client.submit([payload], label="repeat")
                message = worker.pull()
                assert len(message[2]) == 1  # only the torn cell shipped
                send_message(
                    worker.sock,
                    (RESULT, message[1], _worker_rows(message[2])),
                )
                ((_, got),) = list(repeat.results())
                store = daemon.metrics()["store"]
            finally:
                worker.close()
                first.close()
                repeat.close()
        assert list(map(_row_signature, got)) == list(
            map(_row_signature, expected)
        )
        assert store["corrupt"] == 1
        assert store["hits"] == 1

    def test_opaque_payloads_pass_through_untouched(self, tmp_path):
        """Unkeyable items are dispatched verbatim and their payloads
        forwarded unparsed, even with the store armed."""
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            client = ServiceClient("127.0.0.1", daemon.port)
            try:
                handle = client.submit([[("opaque", 0)]], label="raw")
                message = worker.pull()
                assert message[2] == [("opaque", 0)]
                worker.finish(message[1], message[2])
                ((_, payload),) = list(handle.results())
                assert payload == [f"payload-{message[1]}"]
            finally:
                worker.close()
                handle.close()
