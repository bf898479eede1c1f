"""Serving-layer resilience: deadlines, rate limits, retrying client,
graceful drain, and chaos-at-the-wire.

The contract under test extends the repo's bit-identity discipline to the
wire: whatever the fault — an overdue request, a rate-limited tenant, a
dropped connection, a malformed frame, a mid-request server kill — every
client outcome is either a *typed* error or a result SHA-256-identical to
a direct ``Engine.run``. No hangs, no corrupted frames, no silently wrong
values, and the server's admission accounting stays consistent throughout.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.errors import ConfigError
from repro.server import (ChaosDriver, ClientError, ClientTimeout,
                          ProtocolError, RetryBudgetExceeded, ServerClient,
                          ServerHandle, ServerSupervisor, WireFaultPlan,
                          array_digest, decode_array, encode_array,
                          parse_request)

ALGORITHM, DATASET, SCALE, ITERATIONS = "gd", "cri1", 0.25, 4
#: A fingerprint no other test warms (cold compiles take ~100ms+, the
#: window the deadline/drain tests need).
COLD_ITERATIONS = 7


@pytest.fixture(scope="module")
def reference_sha256() -> str:
    """Digest of the warm workload via a direct run, as pinned (and
    reproduced) by ``test_identity.py``."""
    golden = Path(__file__).parent / "data" / "identity_golden.json"
    return json.loads(golden.read_text())["served/gd/cri1"]["outputs"]["x"]


def _run_payload(iterations: int = ITERATIONS, tenant: str = "t",
                 **extra) -> dict:
    return {"op": "run", "tenant": tenant, "algorithm": ALGORITHM,
            "dataset": DATASET, "scale": SCALE, "iterations": iterations,
            **extra}


def _slow_payload(tenant: str = "slow", **extra) -> dict:
    """A cold request heavy enough (100 ms and more) to be in flight, most
    likely, while a test whose outcome does not depend on it races it.
    A test that *needs* a request in flight holds it: ``_execute_held``."""
    return {"op": "run", "tenant": tenant, "algorithm": "dfp",
            "dataset": "cri1", "scale": 0.5, "iterations": 30, **extra}


#: The bound on every wait the held-execute tests make for another thread.
WAIT = 30.0


@contextmanager
def _execute_held(service):
    """Hold the service's execute stage: a ``run`` admitted inside the
    block stays in flight, by construction and not by being heavy, until
    the test sets ``release``. Yields ``(entered, release)``."""
    entered, release = threading.Event(), threading.Event()
    execute = service._execute_and_package

    def held(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=WAIT), "the test never released execute"
        return execute(*args, **kwargs)

    service._execute_and_package = held  # shadows the method on this instance
    try:
        yield entered, release
    finally:
        release.set()
        del service._execute_and_package


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# ----------------------------------------------------------------------
# (a) Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_exceeded_while_in_quota_requests_complete(
            self, reference_sha256):
        with ServerHandle(ServerConfig(port=0, max_queue=16,
                                       tenant_quota=8)) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.request(_run_payload(tenant="prewarm"))

            responses, lock = [], threading.Lock()

            def overdue() -> None:
                # Cold fingerprint (full compile) with a deadline it
                # cannot possibly meet.
                with ServerClient(handle.host, handle.port) as c:
                    r = c.run(ALGORITHM, DATASET, scale=SCALE,
                              iterations=COLD_ITERATIONS, tenant="doomed",
                              deadline_seconds=0.001)
                    with lock:
                        responses.append(("doomed", r))

            def in_quota(index: int) -> None:
                with ServerClient(handle.host, handle.port) as c:
                    r = c.run(ALGORITHM, DATASET, scale=SCALE,
                              iterations=ITERATIONS,
                              tenant=f"quiet-{index}")
                    with lock:
                        responses.append(("quiet", r))

            threads = [threading.Thread(target=overdue)] + \
                [threading.Thread(target=in_quota, args=(i,))
                 for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            doomed = [r for tag, r in responses if tag == "doomed"]
            quiet = [r for tag, r in responses if tag == "quiet"]
            assert len(doomed) == 1 and len(quiet) == 3
            assert doomed[0]["status"] == "error"
            assert doomed[0]["error"] == "deadline_exceeded"
            assert doomed[0]["deadline_seconds"] == 0.001
            assert doomed[0]["elapsed_ms"] >= 1.0
            for response in quiet:
                assert response["status"] == "ok"
                assert response["results"]["x"]["sha256"] \
                    == reference_sha256
            stats = handle.service.stats()
            assert stats["counters"]["deadline_exceeded"] >= 1
            # The pool is not wedged: the server keeps serving after the
            # overdue request was abandoned.
            with ServerClient(handle.host, handle.port) as client:
                again = client.run(ALGORITHM, DATASET, scale=SCALE,
                                   iterations=ITERATIONS, tenant="after")
            assert again["status"] == "ok"
            assert again["results"]["x"]["sha256"] == reference_sha256

    def test_server_default_deadline_applies(self):
        config = ServerConfig(port=0, default_deadline_seconds=0.001)
        with ServerHandle(config) as handle:
            with ServerClient(handle.host, handle.port) as client:
                response = client.request(
                    _run_payload(iterations=COLD_ITERATIONS))
            assert response["status"] == "error"
            assert response["error"] == "deadline_exceeded"

    def test_spent_deadline_is_typed_on_the_loop_path(
            self, compile_pool_submits):
        """A warm request is resolved on the event loop; the deadline
        check the compile-pool hop used to make is made there."""
        fields = dict(scale=SCALE, iterations=ITERATIONS)
        with ServerHandle(ServerConfig(port=0)) as handle:
            service = handle.service
            with ServerClient(handle.host, handle.port) as client:
                assert client.optimize(ALGORITHM, DATASET,
                                       **fields)["status"] == "ok"
                submitted = compile_pool_submits(service)
                response = client.optimize(ALGORITHM, DATASET, **fields,
                                           deadline_seconds=1e-9)
                assert response["status"] == "error"
                assert response["error"] == "deadline_exceeded"
                assert response["deadline_seconds"] == 1e-9
                assert service.counters["deadline_exceeded"] == 1
                assert not submitted  # answered without leaving the loop
                # The slot was released and the next request is served.
                assert service.in_flight == 0
                assert client.optimize(ALGORITHM, DATASET,
                                       **fields)["plan_cache"] == "hit"

    def test_deadline_field_validation(self):
        for bad in (0, -1.0, "soon", float("nan"), True, 1e9):
            with pytest.raises(ProtocolError, match="deadline_seconds"):
                parse_request(_run_payload(deadline_seconds=bad))
        request = parse_request(_run_payload(deadline_seconds=2.5))
        assert request.deadline_seconds == 2.5
        assert parse_request(_run_payload()).deadline_seconds is None

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServerConfig(default_deadline_seconds=0.0)
        with pytest.raises(ConfigError):
            ServerConfig(tenant_rate=-1.0)
        with pytest.raises(ConfigError):
            ServerConfig(tenant_burst=0.5)
        with pytest.raises(ConfigError):
            ServerConfig(drain_deadline_seconds=float("nan"))
        with pytest.raises(ConfigError):
            ServerConfig(max_frame_bytes=16)


# ----------------------------------------------------------------------
# (b) Rate limits + retrying client
# ----------------------------------------------------------------------
class TestRateLimits:
    def test_rejections_carry_computed_retry_after(self):
        # Slow refill (one token per 2s) so a warm back-to-back pair is
        # guaranteed to outrun the bucket.
        config = ServerConfig(port=0, tenant_rate=0.5, tenant_burst=1.0)
        with ServerHandle(config) as handle:
            with ServerClient(handle.host, handle.port) as client:
                # Warm the workload under another tenant so the limited
                # tenant's requests are milliseconds apart.
                client.request(_run_payload(tenant="prewarm"))
                first = client.request(_run_payload(tenant="limited"))
                assert first["status"] == "ok"
                second = client.request(_run_payload(tenant="limited"))
            assert second["status"] == "rejected"
            assert second["error"] == "rate_limited"
            # Computed from bucket refill time (~1/rate), floored at the
            # configured constant.
            assert config.retry_after_seconds <= second["retry_after"] \
                <= 1.0 / config.tenant_rate + 0.01
            stats = handle.service.stats()
            assert stats["counters"]["rejected_rate"] >= 1
            health = handle.service.health()
            assert "limited" in health["rate_buckets"]

    def test_retrying_client_succeeds_within_budget(self, reference_sha256):
        config = ServerConfig(port=0, tenant_rate=4.0, tenant_burst=1.0)
        with ServerHandle(config) as handle:
            client = ServerClient(handle.host, handle.port,
                                  max_retries=30, max_retry_seconds=60.0,
                                  retry_jitter_seed=11)
            with client:
                # Warmed under another tenant: steady requests come warm.
                client.request(_run_payload(tenant="prewarm"))
                responses = [client.request(_run_payload(tenant="steady"))
                             for _ in range(4)]
            assert all(r["status"] == "ok" for r in responses)
            assert all(r["results"]["x"]["sha256"] == reference_sha256
                       for r in responses)
            # The budget was actually exercised: the bucket (burst 1,
            # 4/s refill) cannot admit warm back-to-back requests (~3 ms
            # each) first try, so at least one rejection was retried through.
            assert client.retries_used >= 1
            assert handle.service.counters["rejected_rate"] >= 1

    def test_unlimited_by_default(self):
        with ServerHandle(ServerConfig(port=0)) as handle:
            with ServerClient(handle.host, handle.port) as client:
                responses = [client.request(_run_payload(tenant="free"))
                             for _ in range(3)]
            assert all(r["status"] == "ok" for r in responses)
            assert handle.service.counters["rejected_rate"] == 0


# ----------------------------------------------------------------------
# (c) Graceful drain + health/ready
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_completes_in_flight_and_admits_none_after(self):
        config = ServerConfig(port=0, drain_deadline_seconds=30.0)
        with ServerHandle(config) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.request(_run_payload(tenant="prewarm"))

            in_flight_response = []

            def held_request() -> None:
                with ServerClient(handle.host, handle.port,
                                  timeout=WAIT) as c:
                    in_flight_response.append(c.request(
                        _run_payload(COLD_ITERATIONS, tenant="slow")))

            worker = threading.Thread(target=held_request)
            with _execute_held(handle.service) as (entered, release):
                worker.start()
                assert entered.wait(timeout=WAIT)
                assert handle.service.in_flight == 1
                with ServerClient(handle.host, handle.port,
                                  timeout=WAIT) as client:
                    ack = client.drain()
                assert ack["status"] == "ok" and ack["op"] == "drain"
                # Acknowledged with the request still held: it is the
                # drain that waits for it, not the other way round.
                assert not in_flight_response
                release.set()
                worker.join(timeout=WAIT)
                assert not worker.is_alive()
            # The admitted request finished despite the drain.
            assert in_flight_response[0]["status"] == "ok"
            stats = handle.stop()
        assert stats["drain"] is not None
        assert stats["drain"]["shed"] == 0
        assert stats["drain"]["completed_during_drain"] >= 1
        assert stats["in_flight"] == 0

    def test_draining_server_rejects_new_requests(self):
        with ServerHandle(ServerConfig(port=0)) as handle:
            # Deterministic: flip the drain gate directly (the event-loop
            # path is exercised by the end-to-end test above).
            handle.service.draining = True
            with ServerClient(handle.host, handle.port) as client:
                response = client.request(_run_payload(tenant="late"))
                assert response["status"] == "rejected"
                assert response["error"] == "draining"
                assert not client.ready()
            handle.service.draining = False
            assert handle.service.counters["rejected_draining"] == 1

    def test_stop_drains_and_reports(self):
        handle = ServerHandle(ServerConfig(port=0))
        stats = handle.stop()
        assert stats["drain"] == {"completed_during_drain": 0, "shed": 0,
                                  "deadline_hit": False}

    def test_health_and_ready_ops(self):
        with ServerHandle(ServerConfig(port=0, max_queue=4,
                                       tenant_quota=4)) as handle:
            with ServerClient(handle.host, handle.port) as client:
                assert client.ready()
                health = client.health()
            assert health["in_flight"] == 0
            assert health["capacity_remaining"] == 4
            assert health["draining"] is False
            assert health["resident_workloads"] == 0
            assert "rate_buckets" in health

    def test_drain_disabled_with_remote_shutdown(self):
        config = ServerConfig(port=0, allow_remote_shutdown=False)
        with ServerHandle(config) as handle:
            with ServerClient(handle.host, handle.port) as client:
                response = client.drain()
                assert response["status"] == "error"
                assert client.ping()  # still serving


# ----------------------------------------------------------------------
# Satellite: typed client failures
# ----------------------------------------------------------------------
class TestClientResilience:
    def test_read_timeout_is_typed_and_burns_the_connection(self):
        with ServerHandle(ServerConfig(port=0)) as handle:
            client = ServerClient(handle.host, handle.port, timeout=0.05)
            with client, _execute_held(handle.service) as (entered, release):
                # No answer can come before ``release``: the 50 ms read
                # timeout fires however fast the server has become.
                with pytest.raises(ClientTimeout):
                    client.request(_run_payload(tenant="impatient"))
                # The socket was closed — no stale half-read frame can
                # leak into the next exchange.
                assert not client.connected
                client._timeout = WAIT  # reconnect with a sane timeout
                response = client.request({"op": "ping", "id": "fresh"})
                assert entered.wait(timeout=WAIT)
                assert handle.service.in_flight == 1
                release.set()
            assert response["op"] == "ping"
            assert response["id"] == "fresh"
            # The abandoned run finishes, so stats settle.
            assert _wait_until(lambda: handle.service.in_flight == 0,
                               timeout=WAIT)

    def test_budget_zero_raises_on_dropped_connection(self):
        handle = ServerHandle(ServerConfig(port=0))
        client = ServerClient(handle.host, handle.port)
        handle.stop()
        # The stopped server closed this idle connection: the client reads
        # EOF at once, not its own read timeout.
        started = time.monotonic()
        with pytest.raises(ClientError):
            client.ping()
        assert time.monotonic() - started < 2.0
        client.close()

    def test_client_reconnects_across_server_restart(self):
        # Reserve a fixed port so the restarted server is reachable at
        # the same address the client knows.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        first = ServerHandle(ServerConfig(port=port))
        client = ServerClient("127.0.0.1", port, max_retries=8,
                              max_retry_seconds=20.0, retry_jitter_seed=3)
        with client:
            assert client.ping()
            first.kill()
            second = ServerHandle(ServerConfig(port=port))
            try:
                response = client.request(_run_payload(tenant="phoenix"))
                assert response["status"] == "ok"
                assert client.retries_used >= 1
            finally:
                second.stop()

    def test_backoff_never_oversleeps_what_is_left_of_the_budget(self):
        # A stub that answers late once, then rejects everything with a
        # long retry_after: the client has spent 0.3 s of its 0.5 s when it
        # backs off, so it may sleep 0.2 s more, not the whole budget.
        budget, late = 0.5, 0.3
        listener = socket.create_server(("127.0.0.1", 0))

        def reject_everything():
            connection, _ = listener.accept()
            with connection, connection.makefile("rwb") as stream:
                for index, line in enumerate(stream):
                    if index == 0:
                        time.sleep(late)
                    frame = {"id": json.loads(line)["id"],
                             "status": "rejected", "reason": "rate_limited",
                             "retry_after": 10.0}
                    stream.write(json.dumps(frame).encode() + b"\n")
                    stream.flush()

        stub = threading.Thread(target=reject_everything, daemon=True)
        stub.start()
        try:
            client = ServerClient(*listener.getsockname(), max_retries=5,
                                  max_retry_seconds=budget,
                                  retry_jitter_seed=1)
            started = time.monotonic()
            with client:
                response = client.request({"op": "ping"})
            elapsed = time.monotonic() - started
        finally:
            listener.close()
        stub.join(timeout=2.0)
        assert not stub.is_alive()
        assert response["status"] == "rejected"  # the final rejection
        assert client.retries_used == 1
        assert budget <= elapsed < budget + 0.2

    @staticmethod
    @contextmanager
    def _scripted_peer(replies):
        """The address of a listener that answers connection ``k`` with
        ``replies[k]`` (raw bytes, or a callable taking the socket) and
        closes it; on exit, every scripted connection must have come."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            for reply in replies:
                connection, _ = listener.accept()
                with connection, connection.makefile("rb") as stream:
                    stream.readline()
                    if callable(reply):
                        reply(connection)
                    else:
                        connection.sendall(reply)

        peer = threading.Thread(target=serve, daemon=True)
        peer.start()
        try:
            yield listener.getsockname()
        finally:
            listener.close()
        peer.join(timeout=5.0)
        assert not peer.is_alive()

    @staticmethod
    def _frame(array, **lies) -> tuple[bytes, bytes]:
        """(header line, raw section) of a values response for ``array``;
        ``lies`` overwrite header fields of the one result entry."""
        entry = {"sha256": array_digest(array), **encode_array(array)}
        section = bytes(entry.pop("data"))
        header = {"id": 1, "status": "ok", "results": {"x": {**entry, **lies}}}
        return json.dumps(header).encode() + b"\n", section

    def test_torn_section_is_a_dropped_connection_and_is_retried(self):
        array = np.arange(4096, dtype=np.float64).reshape(64, 64)
        header, section = self._frame(array)
        torn = header + section[:len(section) // 2]
        with self._scripted_peer([torn, header + section,
                                  torn, torn]) as address:
            with ServerClient(*address, max_retries=1,
                              retry_jitter_seed=5) as client:
                response = client.request({"op": "run"})
                assert client.retries_used == 1 and client.connected
                entry = response["results"]["x"]
                assert np.array_equal(decode_array(entry), array)
                assert array_digest(decode_array(entry)) == entry["sha256"]
            # Torn every time: the budget runs out, typed, socket burned.
            with ServerClient(*address, max_retries=1,
                              retry_jitter_seed=5) as client:
                with pytest.raises(RetryBudgetExceeded,
                                   match="bytes into a 32768-byte"):
                    client.request({"op": "run"})
                assert client.retries_used == 1 and not client.connected

    @pytest.mark.parametrize("lies", [
        {"nbytes": 8}, {"nbytes": 2 ** 40}, {"nbytes": -8},
        {"shape": [3, -1]}, {"shape": [1.5, 2]}, {"shape": 6},
        {"shape": [True, 6]}, {"dtype": "|O"}, {"dtype": "<U"},
        {"dtype": "nonsense"}, {"dtype": 8}, {"dtype": None}], ids=str)
    def test_section_header_that_does_not_add_up_is_typed(self, lies):
        header, section = self._frame(np.ones((2, 3)), **lies)
        with self._scripted_peer([header + section]) as address:
            with ServerClient(*address) as client:
                with pytest.raises(ClientError, match="corrupted response"):
                    client.request({"op": "run"})
                assert not client.connected

    def test_silence_inside_a_section_is_a_typed_timeout(self):
        header, section = self._frame(np.ones((2, 3)))
        released = threading.Event()

        def header_then_silence(connection):
            connection.sendall(header + section[:8])
            released.wait(timeout=10.0)

        with self._scripted_peer([header_then_silence]) as address:
            try:
                # A retry budget, to show a timeout does not spend it.
                with ServerClient(*address, timeout=0.2,
                                  max_retries=3) as client:
                    with pytest.raises(ClientTimeout):
                        client.request({"op": "run"})
                    assert client.retries_used == 0 and not client.connected
            finally:
                released.set()

    def test_client_validates_budget_args(self):
        # Both validations fire before any connection attempt.
        with pytest.raises(ValueError, match="max_retries"):
            ServerClient("127.0.0.1", 1, max_retries=-1)
        with pytest.raises(ValueError, match="max_retry_seconds"):
            ServerClient("127.0.0.1", 1, max_retry_seconds=0.0)


# ----------------------------------------------------------------------
# Satellite: connection-level failures leave the service consistent
# ----------------------------------------------------------------------
class TestConnectionFailures:
    def test_client_disconnect_mid_request(self, reference_sha256):
        with ServerHandle(ServerConfig(port=0)) as handle:
            payload = json.dumps(_run_payload(tenant="vanisher"))
            with socket.create_connection(
                    (handle.host, handle.port)) as doomed:
                doomed.sendall(payload.encode() + b"\n")
            # The socket is gone before the response lands; the service
            # must finish its accounting and keep serving.
            assert _wait_until(
                lambda: handle.service.counters["completed"]
                + handle.service.counters["failed"] >= 1
                and handle.service.in_flight == 0, timeout=30.0)
            counters = handle.service.counters
            assert counters["accepted"] \
                == counters["completed"] + counters["failed"] \
                + counters["deadline_exceeded"]
            with ServerClient(handle.host, handle.port) as client:
                response = client.request(_run_payload(tenant="next"))
            assert response["status"] == "ok"
            assert response["results"]["x"]["sha256"] == reference_sha256

    def test_oversized_frame_gets_typed_error(self):
        config = ServerConfig(port=0, max_frame_bytes=4096)
        with ServerHandle(config) as handle:
            with socket.create_connection(
                    (handle.host, handle.port)) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"x" * 8192 + b"\n")
                response = json.loads(reader.readline())
            assert response["status"] == "error"
            assert "too long" in response["error"]
            # The connection is closed, but the server keeps serving.
            with ServerClient(handle.host, handle.port) as client:
                assert client.ping()
            assert handle.service.in_flight == 0

    def test_malformed_json_then_valid_request(self):
        with ServerHandle(ServerConfig(port=0)) as handle:
            with socket.create_connection(
                    (handle.host, handle.port)) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b'{"op": "run", "tenant": \n')
                assert json.loads(reader.readline())["status"] == "error"
                sock.sendall(b'{"op": "ping", "id": 2}\n')
                assert json.loads(reader.readline())["status"] == "ok"
            assert handle.service.in_flight == 0

    def test_shutdown_racing_in_flight_requests(self):
        with ServerHandle(ServerConfig(port=0)) as handle:
            outcomes, lock = [], threading.Lock()

            def in_flight() -> None:
                try:
                    with ServerClient(handle.host, handle.port) as c:
                        response = c.request(_slow_payload(tenant="racer"))
                        with lock:
                            outcomes.append(response.get("status"))
                except ClientError as error:
                    with lock:
                        outcomes.append(f"typed:{type(error).__name__}")

            worker = threading.Thread(target=in_flight)
            worker.start()
            assert _wait_until(lambda: handle.service.in_flight > 0)
            with ServerClient(handle.host, handle.port) as client:
                client.shutdown()
            worker.join(timeout=30.0)
            assert not worker.is_alive()
            # The raced request resolved one way or the other — ok, a
            # typed response, or a typed client error. Never a hang.
            assert len(outcomes) == 1
            assert outcomes[0] == "ok" \
                or outcomes[0].startswith(("typed:", "error", "rejected"))
            handle.stop()
        assert handle.service.in_flight == 0


# ----------------------------------------------------------------------
# (d) Chaos at the wire
# ----------------------------------------------------------------------
def _supervisor(**overrides) -> ServerSupervisor:
    def factory() -> ServerConfig:
        return ServerConfig(port=0, max_queue=16, tenant_quota=8,
                            **overrides)
    return ServerSupervisor(factory)


class TestWireFaultPlan:
    def test_deterministic_per_seed_and_index(self):
        plan = WireFaultPlan.from_seed(23)
        again = WireFaultPlan.from_seed(23)
        faults = [plan.fault_for(i) for i in range(64)]
        assert faults == [again.fault_for(i) for i in range(64)]
        assert any(f is not None for f in faults)
        assert WireFaultPlan.from_seed(24).rates != plan.rates

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown wire fault"):
            WireFaultPlan(rates={"gremlins": 0.5})
        with pytest.raises(ConfigError, match="sum"):
            WireFaultPlan(rates={"stall_read": 0.7,
                                 "malformed_frame": 0.7})
        with pytest.raises(ConfigError, match="rate"):
            WireFaultPlan(rates={"stall_read": float("nan")})

    def test_dump_load_roundtrip(self, tmp_path):
        plan = WireFaultPlan.from_seed(5)
        path = tmp_path / "wire.json"
        plan.dump(str(path))
        assert WireFaultPlan.load(str(path)) == plan
        with pytest.raises(ConfigError, match="unknown wire fault plan"):
            WireFaultPlan.from_dict({"crashs": []})


class TestChaos:
    def _assert_outcomes(self, outcomes, reference_sha256,
                         require_ok: bool = True):
        for outcome in outcomes:
            assert outcome["outcome"] in ("ok", "rejected", "typed_error",
                                          "client_error"), outcome
            if outcome["outcome"] == "ok":
                digest = outcome["response"]["results"]["x"]["sha256"]
                assert digest == reference_sha256, outcome
            if outcome["fault"] == "malformed_frame":
                # Answered on the line, not by closing the connection.
                assert outcome.get("malformed_answered"), outcome
        if require_ok:
            assert any(o["outcome"] == "ok" for o in outcomes)

    def _mixed_faults(self, reference_sha256, **extra):
        supervisor = _supervisor()
        try:
            plan = WireFaultPlan(
                rates={"drop_before_send": 0.2, "drop_after_send": 0.2,
                       "stall_read": 0.2, "malformed_frame": 0.2},
                seed=17, stall_seconds=0.05)
            driver = ChaosDriver(supervisor, plan, timeout=60.0,
                                 max_retries=6, max_retry_seconds=30.0)
            faults = {plan.fault_for(i) for i in range(12)}
            assert len(faults) >= 3  # the seed exercises a real mix
            outcomes = [driver.run_request(
                _run_payload(tenant="chaos", **extra), i) for i in range(12)]
            self._assert_outcomes(outcomes, reference_sha256)
            return outcomes
        finally:
            supervisor.stop()

    def test_every_outcome_typed_or_bit_identical(self, reference_sha256):
        self._mixed_faults(reference_sha256)

    def test_every_outcome_typed_or_bit_identical_with_values(
            self, reference_sha256):
        """The same plan over responses that carry raw sections: every
        fault path reads them through the client's one reader, and what it
        read — not only the digest the header quotes — is the direct run."""
        outcomes = self._mixed_faults(reference_sha256, return_values=True)
        served = [outcome["response"]["results"]["x"]
                  for outcome in outcomes if outcome["outcome"] == "ok"]
        assert {outcome["fault"] for outcome in outcomes
                if outcome["outcome"] == "ok"} >= {"stall_read",
                                                   "malformed_frame", None}
        for entry in served:
            assert array_digest(decode_array(entry)) == reference_sha256

    def test_mid_request_kill_then_warm_restart(self, reference_sha256):
        supervisor = _supervisor()
        try:
            plan = WireFaultPlan(rates={"kill_server": 1.0}, seed=3,
                                 max_kills=1)
            driver = ChaosDriver(supervisor, plan, timeout=60.0,
                                 max_retries=6, max_retry_seconds=30.0)
            first = driver.run_request(_run_payload(tenant="kill"), 0)
            assert first["outcome"] == "ok"
            assert first.get("server_restarted")
            assert supervisor.restarts == 1
            assert first["response"]["results"]["x"]["sha256"] \
                == reference_sha256
            # Draws past max_kills degrade to drop_after_send; the
            # restarted server re-serves from a repopulated cache.
            second = driver.run_request(_run_payload(tenant="kill"), 1)
            assert second["outcome"] == "ok"
            assert "server_restarted" not in second
            assert second["response"]["results"]["x"]["sha256"] \
                == reference_sha256
            assert second["response"]["plan_cache"] in ("hit", "coalesced")
        finally:
            supervisor.stop()
