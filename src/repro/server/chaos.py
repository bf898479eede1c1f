"""Chaos-at-the-wire for the compile/run server: seeded wire-fault plans.

The cluster-side fault story (:mod:`repro.cluster.faults`) proves plans
stay bit-identical under crashes, stragglers, and lost transmissions.
This module extends the same discipline up the stack to the serving
wire: a seeded, fully deterministic :class:`WireFaultPlan` describes
connection-level faults — dropped connections before/after a request is
sent, stalled reads, malformed frames, and mid-request server
kill/restart — and :class:`ChaosDriver` replays one plan against a live
server, one decision per request index.

The invariant the harness asserts (``tests/test_server_resilience.py``,
``benchmarks/bench_serving_resilience.py``): under *any* wire-fault
plan, every client outcome is either a **typed error** (a ``rejected``/
``error`` response, or a typed :class:`~repro.server.client.ClientError`)
or a result **SHA-256-identical** to a direct ``Engine.run`` — no hangs,
no corrupted frames, no silently wrong values.

Determinism: the fault for request ``k`` is a pure function of
``(plan.seed, k)`` — per-index seeded draws, so the decision sequence
does not depend on thread interleaving or how many faults fired before.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field

from ..errors import ConfigError
from .client import ClientError, ServerClient
from .net import ServerHandle

#: Wire-fault kinds a plan may inject, in deterministic draw order.
WIRE_FAULT_KINDS = (
    "drop_before_send",   # connection dies before the request leaves
    "drop_after_send",    # request lands, connection dies before the reply
    "stall_read",         # client stalls before reading the buffered reply
    "malformed_frame",    # a garbage line precedes the real request
    "kill_server",        # server hard-killed mid-request, then restarted
)


@dataclass(frozen=True)
class WireFaultPlan:
    """A deterministic schedule of wire faults for one serving run.

    ``rates`` maps a :data:`WIRE_FAULT_KINDS` name to the probability
    that one request draws that fault; the draws partition ``[0, 1)`` in
    kind order, so the rates must sum to at most 1. The fault for request
    ``k`` is decided by ``random.Random(f"{seed}:{k}")`` — the same seed
    always produces the same fault sequence, independent of timing.
    """

    rates: dict[str, float] = field(default_factory=dict)
    seed: int = 0
    #: How long a ``stall_read`` fault parks before reading the reply.
    stall_seconds: float = 0.2
    #: Ceiling on ``kill_server`` faults per run (restarts are expensive);
    #: draws past the ceiling degrade to ``drop_after_send``.
    max_kills: int = 1

    def __post_init__(self) -> None:
        total = 0.0
        for kind, rate in self.rates.items():
            if kind not in WIRE_FAULT_KINDS:
                raise ConfigError(
                    f"unknown wire fault kind {kind!r} (expected one of "
                    f"{', '.join(WIRE_FAULT_KINDS)})")
            if not 0.0 <= rate <= 1.0:  # rejects NaN
                raise ConfigError(
                    f"rate for {kind!r} must be in [0, 1], got {rate}")
            total += rate
        if total > 1.0 + 1e-9:
            raise ConfigError(
                f"wire fault rates sum to {total}, must be <= 1")
        if not self.stall_seconds >= 0.0:  # rejects NaN
            raise ConfigError(
                f"stall_seconds must be >= 0, got {self.stall_seconds}")
        if self.max_kills < 0:
            raise ConfigError(
                f"max_kills must be >= 0, got {self.max_kills}")

    @property
    def empty(self) -> bool:
        return not any(self.rates.values())

    @classmethod
    def from_seed(cls, seed: int, intensity: float = 0.3) -> "WireFaultPlan":
        """A mixed plan: ``intensity`` total fault probability spread over
        every kind (kills kept rare). Same seed, same plan."""
        rng = random.Random(seed)
        weights = {kind: rng.uniform(0.5, 1.5) for kind in WIRE_FAULT_KINDS}
        weights["kill_server"] *= 0.15  # restarts dominate wall time
        total = sum(weights.values())
        rates = {kind: round(intensity * weight / total, 6)
                 for kind, weight in weights.items()}
        return cls(rates=rates, seed=seed)

    def fault_for(self, index: int) -> str | None:
        """The fault injected on request ``index`` (None = clean)."""
        draw = random.Random(f"{self.seed}:{index}").random()
        edge = 0.0
        for kind in WIRE_FAULT_KINDS:
            edge += self.rates.get(kind, 0.0)
            if draw < edge:
                return kind
        return None

    # ------------------------------------------------------------------
    # Serialization (mirrors FaultPlan.dump/load)
    # ------------------------------------------------------------------
    _TOP_LEVEL_KEYS = frozenset({"rates", "seed", "stall_seconds",
                                 "max_kills"})

    def to_dict(self) -> dict:
        return {"rates": dict(self.rates), "seed": self.seed,
                "stall_seconds": self.stall_seconds,
                "max_kills": self.max_kills}

    @classmethod
    def from_dict(cls, payload: dict) -> "WireFaultPlan":
        unknown = sorted(set(payload) - cls._TOP_LEVEL_KEYS)
        if unknown:
            raise ConfigError(
                f"unknown wire fault plan key(s) "
                f"{', '.join(map(repr, unknown))} (expected a subset of "
                f"{', '.join(sorted(cls._TOP_LEVEL_KEYS))})")
        try:
            rates = {str(k): float(v)
                     for k, v in payload.get("rates", {}).items()}
            return cls(rates=rates, seed=int(payload.get("seed", 0)),
                       stall_seconds=float(payload.get("stall_seconds", 0.2)),
                       max_kills=int(payload.get("max_kills", 1)))
        except ConfigError:
            raise
        except (TypeError, ValueError) as error:
            raise ConfigError(
                f"malformed wire fault plan: {error}") from None

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "WireFaultPlan":
        with open(path) as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as error:
                raise ConfigError(f"wire fault plan {path!r} is not valid "
                                  f"JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ConfigError(
                f"wire fault plan {path!r} must be a JSON object, "
                f"got {type(payload).__name__}")
        try:
            return cls.from_dict(payload)
        except ConfigError as error:
            raise ConfigError(f"wire fault plan {path!r}: {error}") from None


class ServerSupervisor:
    """Owns a :class:`ServerHandle` the chaos plan may kill and restart.

    Thread-safe: concurrent drivers read ``host``/``port`` under the same
    lock ``kill_and_restart`` holds while the handle is swapped, so a
    request never races a half-restarted server address.
    """

    def __init__(self, config_factory, cluster=None):
        #: Zero-argument callable building a fresh ServerConfig per start
        #: (ephemeral ports mean each incarnation binds anew).
        self._config_factory = config_factory
        self._cluster = cluster
        self._lock = threading.Lock()
        self._handle: ServerHandle | None = ServerHandle(
            config_factory(), cluster)
        self.restarts = 0
        self.final_stats: list[dict] = []

    @property
    def handle(self) -> ServerHandle:
        with self._lock:
            return self._handle

    def address(self) -> tuple[str, int]:
        with self._lock:
            return self._handle.host, self._handle.port

    def kill_and_restart(self) -> None:
        """Hard-kill the live server mid-request, then bring up a fresh
        one (cold process-level cache: the first request after restart
        repopulates it — the warm-restart path the harness asserts)."""
        with self._lock:
            stats = self._handle.kill()
            if stats is not None:
                self.final_stats.append(stats)
            self._handle = ServerHandle(self._config_factory(),
                                        self._cluster)
            self.restarts += 1

    def stop(self) -> dict | None:
        with self._lock:
            stats = self._handle.stop()
            if stats is not None:
                self.final_stats.append(stats)
            return stats


class ChaosDriver:
    """Replays a :class:`WireFaultPlan` against a supervised server.

    One driver per client thread. Every request goes through
    :meth:`run_request`, which injects the plan's fault for that request
    index and classifies the outcome: ``ok`` (carries the result
    digests), ``rejected``, ``typed_error``, or ``client_error`` (a typed
    :class:`ClientError`). Anything else — a hang, a corrupted frame, an
    untyped crash — escapes as an exception and fails the harness.
    """

    def __init__(self, supervisor: ServerSupervisor, plan: WireFaultPlan,
                 timeout: float = 60.0, max_retries: int = 8,
                 max_retry_seconds: float = 30.0, jitter_seed: int = 0):
        self.supervisor = supervisor
        self.plan = plan
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_retry_seconds = max_retry_seconds
        self.jitter_seed = jitter_seed
        self._kills_used = 0
        self._kill_lock = threading.Lock()

    def _client(self) -> ServerClient:
        host, port = self.supervisor.address()
        return ServerClient(host, port, timeout=self.timeout,
                            max_retries=self.max_retries,
                            max_retry_seconds=self.max_retry_seconds,
                            retry_jitter_seed=self.jitter_seed)

    def _take_kill_slot(self) -> bool:
        with self._kill_lock:
            if self._kills_used >= self.plan.max_kills:
                return False
            self._kills_used += 1
            return True

    # ------------------------------------------------------------------
    def run_request(self, payload: dict, index: int) -> dict:
        """Issue one request under the plan's fault for ``index``."""
        fault = self.plan.fault_for(index)
        if fault == "kill_server" and not self._take_kill_slot():
            fault = "drop_after_send"
        outcome = {"index": index, "fault": fault, "retried": 0}
        try:
            if fault is None:
                response = self._clean(payload, outcome)
            elif fault == "drop_before_send":
                response = self._drop_before_send(payload, outcome)
            elif fault == "drop_after_send":
                response = self._drop_after_send(payload, outcome)
            elif fault == "stall_read":
                response = self._stall_read(payload, outcome)
            elif fault == "malformed_frame":
                response = self._malformed_frame(payload, outcome)
            else:  # kill_server
                response = self._kill_server(payload, outcome)
        except (ClientError, OSError) as error:
            # Typed, terminal, and frame-safe: the connection that failed
            # was burned, no partial frame is ever surfaced as a result.
            outcome["outcome"] = "client_error"
            outcome["error"] = f"{type(error).__name__}: {error}"
            return outcome
        status = response.get("status")
        if status == "ok":
            outcome["outcome"] = "ok"
            outcome["response"] = response
        elif status == "rejected":
            outcome["outcome"] = "rejected"
            outcome["error"] = response.get("error")
        else:
            outcome["outcome"] = "typed_error"
            outcome["error"] = response.get("error")
        return outcome

    # ------------------------------------------------------------------
    # Fault implementations
    # ------------------------------------------------------------------
    def _clean(self, payload: dict, outcome: dict,
               attempts: int = 3) -> dict:
        """One request with address re-resolution between attempts: a
        concurrent ``kill_server`` fault may have moved the server to a
        new port after this driver last looked."""
        last_error: Exception | None = None
        for attempt in range(attempts):
            try:
                with self._client() as client:
                    response = client.request(dict(payload))
                    outcome["retried"] += client.retries_used
                    return response
            except (ClientError, OSError) as error:
                last_error = error
                outcome["retried"] += 1
                time.sleep(0.05 * (attempt + 1))
        if isinstance(last_error, ClientError):
            raise last_error
        raise ClientError(f"{type(last_error).__name__}: {last_error}")

    def _drop_before_send(self, payload: dict, outcome: dict) -> dict:
        # A connection is established and immediately torn down — the
        # server sees a zero-byte session — then the request runs clean.
        host, port = self.supervisor.address()
        try:
            socket.create_connection((host, port), timeout=self.timeout).close()
        except OSError:
            pass
        outcome["retried"] += 1
        return self._clean(payload, outcome)

    def _drop_after_send(self, payload: dict, outcome: dict) -> dict:
        # The request reaches the server but the reply has no socket to
        # land on (server logs a reset, must stay consistent); the
        # retrying client then resends.
        host, port = self.supervisor.address()
        frame = json.dumps({**payload, "id": f"dropped-{outcome['index']}"})
        try:
            with socket.create_connection((host, port),
                                          timeout=self.timeout) as doomed:
                doomed.sendall(frame.encode() + b"\n")
        except OSError:
            pass
        outcome["retried"] += 1
        return self._clean(payload, outcome)

    def _stall_read(self, payload: dict, outcome: dict) -> dict:
        # A slow reader: the request is sent, the client parks, then
        # reads; the server must buffer the reply without wedging.
        host, port = self.supervisor.address()
        client = ServerClient(host, port, timeout=self.timeout,
                              max_retries=self.max_retries,
                              max_retry_seconds=self.max_retry_seconds,
                              retry_jitter_seed=self.jitter_seed)
        try:
            frame = json.dumps({**payload, "id": f"stall-{outcome['index']}"})
            client._writer.write(frame.encode() + b"\n")
            client._writer.flush()
            time.sleep(self.plan.stall_seconds)
            return client._read_response()
        except OSError:
            outcome["retried"] += 1
            return self._clean(payload, outcome)
        finally:
            client.close()

    def _malformed_frame(self, payload: dict, outcome: dict) -> dict:
        # Garbage precedes the real request on one connection; the server
        # must answer the garbage with a typed error and keep the
        # connection usable for the real frame.
        with self._client() as client:
            client._writer.write(b'{"op": "run", "algorithm": \xff garbage\n')
            client._writer.flush()
            outcome["malformed_answered"] = \
                client._read_response().get("status") == "error"
            response = client.request(dict(payload))
            outcome["retried"] += client.retries_used
            return response

    def _kill_server(self, payload: dict, outcome: dict) -> dict:
        # The request is in flight when the server dies; the client sees
        # the drop, the supervisor restarts, the resend lands on the new
        # incarnation (whose first compile repopulates the cache).
        host, port = self.supervisor.address()
        frame = json.dumps({**payload, "id": f"killed-{outcome['index']}"})
        doomed = None
        try:
            doomed = socket.create_connection((host, port),
                                              timeout=self.timeout)
            doomed.sendall(frame.encode() + b"\n")
        except OSError:
            pass
        self.supervisor.kill_and_restart()
        if doomed is not None:
            try:
                doomed.close()
            except OSError:
                pass
        outcome["server_restarted"] = True
        outcome["retried"] += 1
        return self._clean(payload, outcome)
