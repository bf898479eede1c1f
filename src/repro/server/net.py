"""Asyncio TCP front end for the compile/run service: JSON lines, stdlib only.

:func:`run_server` is the blocking CLI entry point (``python -m repro
serve``); :class:`ServerHandle` hosts the same server on a daemon thread
with its own event loop for tests and the load generator, exposing the
bound port, a threadsafe :meth:`~ServerHandle.stop` that *drains*
gracefully (stop admitting, finish in-flight work up to
``drain_deadline_seconds``, report what was shed) and raises if the
thread fails to join, and a :meth:`~ServerHandle.kill` hard stop for the
chaos harness. The ``drain`` op triggers the same graceful sequence from
the wire.

The handler itself is one readline loop per connection: decode a line,
``await service.submit``, write the response line and, when the response
carries result values, their raw sections straight after it (the frame in
:mod:`repro.server.protocol`; the loop never serialises the values).
Concurrency comes from asyncio multiplexing connections while the
service's worker pools run the compile/execute stages; malformed JSON, or
anything ``submit`` raises, yields an error response on that line and the
connection stays usable.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading

from ..config import ClusterConfig, ServerConfig
from .protocol import error_response
from .service import OptimizerService

logger = logging.getLogger(__name__)


class _ServerCore:
    """One service + one asyncio server + a stop event, loop-agnostic."""

    def __init__(self, config: ServerConfig | None = None,
                 cluster: ClusterConfig | None = None):
        self.config = config or ServerConfig()
        self.service = OptimizerService(self.config, cluster)
        self.stop_event: asyncio.Event | None = None
        self.host: str | None = None
        self.port: int | None = None
        #: Every open connection: its handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._drain_task: asyncio.Task | None = None

    async def _accept_loop(self, listener: socket.socket) -> None:
        """Accept connections until cancelled.

        Accepting here rather than through ``asyncio.start_server`` keeps
        shutdown exact: once this task is cancelled no connection is
        half-way between the kernel and :attr:`_connections`, whereas a
        closed ``asyncio.Server`` can still be finishing an accept whose
        socket then belongs to nobody and is never closed.
        """
        loop = asyncio.get_running_loop()
        while True:
            try:
                conn, _address = await loop.sock_accept(listener)
            except OSError:  # out of descriptors: back off, as asyncio does
                await asyncio.sleep(1.0)
                continue
            reader = asyncio.StreamReader(limit=self.config.max_frame_bytes)
            protocol = asyncio.StreamReaderProtocol(reader, self._connected)
            await loop.connect_accepted_socket(lambda: protocol, conn)

    def _connected(self, reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
        """Start and register one connection's handler.

        A plain callback, so the writer is on record the moment the
        connection exists: a handler task that shutdown cancels before
        its first step never reaches its own ``finally``.
        """
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(_encode({"status": "error",
                                          "error": "request line too long"}))
                    await writer.drain()
                    break
                if not line:
                    break
                text = line.strip()
                if not text:
                    continue
                try:
                    payload = json.loads(text)
                except (json.JSONDecodeError, UnicodeDecodeError) as error:
                    payload = None
                    response = error_response(None, f"invalid JSON: {error}")
                else:
                    response = await self._submit(payload)
                # The values leave as they are, after the header line.
                sections = [entry.pop("data")
                            for entry in response.get("results", {}).values()
                            if "data" in entry]
                writer.write(_encode(response))
                for section in sections:
                    writer.write(section)
                await writer.drain()
                op = payload.get("op") if isinstance(payload, dict) else None
                if op == "shutdown" and response.get("status") == "ok" \
                        and self.config.allow_remote_shutdown:
                    self.stop_event.set()
                    break
                if op == "drain" and response.get("status") == "ok" \
                        and self.config.allow_remote_shutdown:
                    self.begin_drain()
                    # Keep the connection open: the drain initiator may
                    # poll health/ready until the server stops.
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-response; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _submit(self, payload: object) -> dict:
        """``service.submit``, whatever it raises answered as an error: no
        request may end its connection untyped, or a retrying client
        resends it until its budget is gone."""
        try:
            return await self.service.submit(payload)
        except Exception as error:
            logger.exception("request handler failed")
            request_id = payload.get("id") if isinstance(payload, dict) \
                else None
            return error_response(request_id,
                                  f"{type(error).__name__}: {error}")

    def begin_drain(self) -> None:
        """Stop admitting, let in-flight work finish, then stop the server.

        Idempotent; must run on the event-loop thread (schedule with
        ``call_soon_threadsafe`` from outside). The drain deadline comes
        from ``ServerConfig.drain_deadline_seconds``; whatever is still in
        flight when it expires is shed (its handler task cancelled) and
        reported in the final stats under ``drain``.
        """
        if self.stop_event is None or self.stop_event.is_set():
            return  # already stopping: nothing left to drain
        if self._drain_task is None:
            self.service.begin_drain()
            self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_deadline_seconds
        while self.service.in_flight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        self.service.finish_drain(shed=self.service.in_flight)
        self.stop_event.set()

    async def serve(self, ready: threading.Event | None = None) -> dict:
        """Serve until the stop event fires; returns the final stats."""
        self.stop_event = asyncio.Event()
        listener = socket.create_server((self.config.host, self.config.port),
                                        backlog=100)
        listener.setblocking(False)
        self.host, self.port = listener.getsockname()[:2]
        accepting = asyncio.ensure_future(self._accept_loop(listener))
        if ready is not None:
            ready.set()
        try:
            await self.stop_event.wait()
        finally:
            # Stop, drain-finish and kill all end here. Stop accepting
            # (the kernel resets what still queues on the listener), then
            # close every connection, idle or mid-request, and wait until
            # it is closed: clients see EOF at once, and no handler task
            # or transport outlives the loop.
            accepting.cancel()
            await asyncio.gather(accepting, return_exceptions=True)
            listener.close()
            connections = list(self._connections.items())
            for task, writer in connections:
                task.cancel()
                writer.close()
            await asyncio.gather(
                *(task for task, _ in connections),
                *(writer.wait_closed() for _, writer in connections),
                return_exceptions=True)
            stats = self.service.stats()
            self.service.close()
        return stats


def _encode(response: dict) -> bytes:
    return (json.dumps(response, separators=(",", ":")) + "\n").encode()


def run_server(config: ServerConfig | None = None,
               cluster: ClusterConfig | None = None,
               announce=print) -> dict:
    """Blocking serve loop for the CLI; returns final stats on shutdown."""
    core = _ServerCore(config, cluster)

    async def _main() -> dict:
        task = asyncio.ensure_future(core.serve())
        # Yield once so serve() binds the socket before we announce.
        while core.port is None and not task.done():
            await asyncio.sleep(0.01)
        if core.port is not None and announce is not None:
            announce(f"repro server listening on {core.host}:{core.port} "
                     f"(max_queue={core.config.max_queue}, "
                     f"tenant_quota={core.config.tenant_quota})")
        return await task

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        # asyncio.run cancelled serve(); pools may still need teardown.
        core.service.close()
        return core.service.stats()


class ServerHandle:
    """A live server on a background daemon thread (tests, benchmarks).

    Usage::

        with ServerHandle(config) as handle:
            client = ServerClient(handle.host, handle.port)
            ...
        stats = handle.final_stats  # populated after stop()
    """

    def __init__(self, config: ServerConfig | None = None,
                 cluster: ClusterConfig | None = None):
        if config is None:
            config = ServerConfig(port=0)  # ephemeral port by default
        self._core = _ServerCore(config, cluster)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-server")
        self.final_stats: dict | None = None
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server failed to start within 30s")

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self.final_stats = self._loop.run_until_complete(
                self._core.serve(self._ready))
        finally:
            self._loop.close()
            self._ready.set()  # unblock waiters even on startup failure

    @property
    def host(self) -> str:
        return self._core.host

    @property
    def port(self) -> int:
        return self._core.port

    @property
    def service(self) -> "OptimizerService":
        return self._core.service

    def stop(self, timeout: float = 30.0, drain: bool = True) -> dict | None:
        """Gracefully stop: drain, join the thread, return the final stats.

        ``drain=True`` (default) stops admitting, lets in-flight requests
        finish up to the server's drain deadline, and reports what was
        shed in the final stats. A stop that did not actually stop is
        never reported as clean: if the server thread fails to join
        within ``timeout``, this *raises* ``RuntimeError`` instead of
        silently returning.
        """
        if self._thread.is_alive() and self._loop is not None \
                and self._core.stop_event is not None:
            target = self._core.begin_drain if drain \
                else self._core.stop_event.set
            try:
                self._loop.call_soon_threadsafe(target)
            except RuntimeError:
                pass  # loop already closed: the thread is on its way out
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"server thread did not stop within {timeout}s "
                f"({self._core.service.in_flight} requests in flight)")
        return self.final_stats

    def kill(self, timeout: float = 30.0) -> dict | None:
        """Hard stop: shed in-flight requests without draining.

        The chaos harness's mid-request server kill; handler tasks are
        cancelled, their clients see a dropped connection.
        """
        return self.stop(timeout=timeout, drain=False)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
