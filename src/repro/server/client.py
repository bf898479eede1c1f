"""Blocking JSON-lines client for the compile/run server.

One socket, one request/response at a time. Thread-unsafe by design:
the load generator and tests open one :class:`ServerClient` per worker
thread, which is also how the server's admission control sees concurrent
tenants. Every response is read by :meth:`ServerClient._read_response`:
the JSON line and, after a ``run`` with ``return_values``, the raw result
sections that follow it (the frame in :mod:`repro.server.protocol`), each
received into a fresh ``bytearray`` stored under ``entry["data"]``.

Resilience (docs/architecture.md §15): the client connects lazily and
**reconnects transparently** when the server drops or half-closes the
socket mid-exchange — safe to resend because every op is read-only
against the serving state (``run``/``optimize`` recompute, never
mutate). Retries are budgeted like :class:`~repro.runtime.recovery.
RecoveryConfig` budgets transmission retries: at most ``max_retries``
resends within ``max_retry_seconds`` wall time, with exponential backoff
plus *deterministic seeded jitter* so two clients with different seeds
desynchronize their retry storms reproducibly. Admission rejections
(status ``rejected``) are retried after the server's computed
``retry_after``. Failures are **typed**: a read timeout marks the
connection broken, closes the socket, and raises :class:`ClientTimeout`
(never leaving a half-read frame for the next call); an exhausted budget
raises :class:`RetryBudgetExceeded`.
"""

from __future__ import annotations

import json
import math
import random
import socket
import time

import numpy as np


class ClientError(ConnectionError):
    """Typed base for client-side failures (subclasses ConnectionError so
    pre-existing ``except ConnectionError`` call sites keep working)."""


class ClientTimeout(ClientError):
    """The server did not answer within the socket timeout. The connection
    is closed and marked broken — the response may still arrive on the old
    socket, so reusing it would desynchronize request/response framing."""


class RetryBudgetExceeded(ClientError):
    """Reconnect/resend attempts exhausted ``max_retries`` or
    ``max_retry_seconds`` without landing a response."""


def _announced_sections(response: object) -> list[tuple[dict, int]]:
    """(entry, byte length) of each raw section a response line announces.

    Checked before anything is allocated for it: ``dtype`` parses to a
    fixed-size non-object dtype, ``shape`` is a list of non-negative ints,
    ``nbytes`` is their product. ``ValueError`` otherwise.
    """
    results = response.get("results") if isinstance(response, dict) else None
    sections = []
    for entry in results.values() if isinstance(results, dict) else ():
        if not isinstance(entry, dict) or "nbytes" not in entry:
            continue
        dtype, shape = entry.get("dtype"), entry.get("shape")
        try:
            dtype = np.dtype(dtype) if isinstance(dtype, str) else None
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.hasobject or not dtype.itemsize \
                or not isinstance(shape, list) \
                or not all(type(extent) is int and extent >= 0
                           for extent in shape) \
                or entry["nbytes"] != (
                    nbytes := math.prod(shape) * dtype.itemsize):
            raise ValueError(f"bad result section header {entry!r}")
        sections.append((entry, nbytes))
    return sections


class ServerClient:
    """A synchronous connection to a running ``repro serve`` instance.

    ``max_retries=0`` (the default) is single-shot: a dropped connection
    raises, a rejection is returned verbatim. With a positive budget the
    client retries both — see the module docstring for the policy.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7763,
                 timeout: float = 30.0, *, max_retries: int = 0,
                 max_retry_seconds: float | None = None,
                 backoff_base_seconds: float = 0.05,
                 retry_jitter_seed: int = 0):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if max_retry_seconds is not None and not max_retry_seconds > 0.0:
            raise ValueError(f"max_retry_seconds must be positive or None, "
                             f"got {max_retry_seconds}")
        self._host = host
        self._port = port
        self._timeout = timeout
        self.max_retries = max_retries
        self.max_retry_seconds = max_retry_seconds
        self.backoff_base_seconds = backoff_base_seconds
        self._rng = random.Random(retry_jitter_seed)
        self._sock: socket.socket | None = None
        self._reader = None
        self._writer = None
        self._counter = 0
        #: Responses retried past a rejection or a dropped connection —
        #: the chaos harness and benchmark read these.
        self.retries_used = 0
        self._connect()

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _connect(self) -> None:
        self._sock = socket.create_connection((self._host, self._port),
                                              timeout=self._timeout)
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")

    def _mark_broken(self) -> None:
        """Close and forget the socket: the next request reconnects fresh
        instead of reading whatever stale frame the old one might carry."""
        self.close()

    # ------------------------------------------------------------------
    def request(self, payload: dict) -> dict:
        """Send one request object; block for and return its response.

        Retries (reconnect + resend on connection loss, back-off + resend
        on ``rejected``) up to the budget; a rejection that survives the
        budget is returned to the caller as-is. Read timeouts are *not*
        retried — the request may still be running server-side, so the
        caller decides — they raise :class:`ClientTimeout`.
        """
        if "id" not in payload:
            self._counter += 1
            payload = {**payload, "id": self._counter}
        started = time.monotonic()
        attempt = 0
        while True:
            try:
                response = self._exchange(payload)
            except ClientTimeout:
                raise
            except (ConnectionError, OSError) as error:
                self._mark_broken()
                if not self._budget_left(attempt, started):
                    raise RetryBudgetExceeded(
                        f"gave up after {attempt} retries "
                        f"({type(error).__name__}: {error})") from error
                self._sleep(self._backoff(attempt), started)
                attempt += 1
                self.retries_used += 1
                continue
            if response.get("status") == "rejected" \
                    and self._budget_left(attempt, started):
                self._sleep(float(response.get("retry_after", 0.0))
                            + self._jitter(), started)
                attempt += 1
                self.retries_used += 1
                continue
            return response

    def _exchange(self, payload: dict) -> dict:
        if self._sock is None:
            self._connect()
        try:
            self._writer.write(json.dumps(payload).encode() + b"\n")
            self._writer.flush()
            return self._read_response()
        except socket.timeout:
            # The frame (if it ever lands) belongs to *this* request; a
            # later read would desynchronize. Burn the connection.
            self._mark_broken()
            raise ClientTimeout(
                f"no response within {self._timeout}s; "
                f"connection closed") from None

    def _read_response(self) -> dict:
        """Read one whole response: its JSON line, then the raw section of
        every result entry that announces one, in ``results`` order.

        The only reader of the wire. A torn line, a section header that
        does not add up, or EOF inside a section raises ``ConnectionError``
        (never garbage: :meth:`request` burns the connection and resends);
        a ``socket.timeout`` anywhere in the frame is the caller's to type.
        """
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            response = json.loads(line)
            sections = _announced_sections(response)
        except ValueError as error:  # json.JSONDecodeError is one
            raise ConnectionError(
                f"corrupted response frame: {error}") from None
        for entry, nbytes in sections:
            entry["data"] = data = bytearray(nbytes)
            view, received = memoryview(data), 0
            while received < nbytes:
                count = self._reader.readinto(view[received:])
                if not count:
                    raise ConnectionError(
                        f"server closed the connection {received} bytes "
                        f"into a {nbytes}-byte result section")
                received += count
        return response

    # ------------------------------------------------------------------
    # Retry budget
    # ------------------------------------------------------------------
    def _budget_left(self, attempt: int, started: float) -> bool:
        if attempt >= self.max_retries:
            return False
        if self.max_retry_seconds is not None \
                and time.monotonic() - started >= self.max_retry_seconds:
            return False
        return True

    def _backoff(self, attempt: int) -> float:
        return self.backoff_base_seconds * (2 ** attempt) + self._jitter()

    def _jitter(self) -> float:
        return self._rng.uniform(0.0, self.backoff_base_seconds)

    def _sleep(self, seconds: float, started: float) -> None:
        """Back off, but never past what is left of the retry budget."""
        if self.max_retry_seconds is not None:
            left = self.max_retry_seconds - (time.monotonic() - started)
            seconds = min(seconds, max(0.0, left))
        time.sleep(seconds)

    # Convenience wrappers ------------------------------------------------
    def run(self, algorithm: str = "dfp", dataset: str = "cri1", *,
            tenant: str = "anonymous", scale: float = 0.5,
            iterations: int = 10, engine: str | None = None,
            outputs=(), return_values: bool = False,
            deadline_seconds: float | None = None) -> dict:
        payload = {"op": "run", "tenant": tenant, "algorithm": algorithm,
                   "dataset": dataset, "scale": scale,
                   "iterations": iterations,
                   "return_values": return_values}
        if engine is not None:
            payload["engine"] = engine
        if outputs:
            payload["outputs"] = list(outputs)
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        return self.request(payload)

    def optimize(self, algorithm: str = "dfp", dataset: str = "cri1", *,
                 tenant: str = "anonymous", scale: float = 0.5,
                 iterations: int = 10, engine: str | None = None,
                 deadline_seconds: float | None = None) -> dict:
        payload = {"op": "optimize", "tenant": tenant,
                   "algorithm": algorithm, "dataset": dataset,
                   "scale": scale, "iterations": iterations}
        if engine is not None:
            payload["engine"] = engine
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        return self.request(payload)

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def health(self) -> dict:
        return self.request({"op": "health"})["health"]

    def ready(self) -> bool:
        return self.request({"op": "ready"}).get("ready", False)

    def ping(self) -> bool:
        return self.request({"op": "ping"}).get("status") == "ok"

    def drain(self) -> dict:
        return self.request({"op": "drain"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    # ------------------------------------------------------------------
    def close(self) -> None:
        for stream in (self._writer, self._reader):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        try:
            if self._sock is not None:
                self._sock.close()
        except OSError:
            pass
        self._sock = None
        self._reader = None
        self._writer = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
