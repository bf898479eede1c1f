"""The multi-tenant compile/run service (transport-independent core).

:class:`OptimizerService` owns every piece of *shared* warm state in the
serving process and exposes one ``async submit(payload) -> response``
entry point the TCP front end (:mod:`repro.server.net`) drives:

* **Shared state** — one process-wide :class:`~repro.core.plancache.
  PlanCache` adopted by every engine (fingerprints embed engine
  config/policy, so engines cannot collide), resident workloads per
  ``(algorithm, dataset, scale)`` whose inputs the service owns in two
  forms — the raw arrays, so data-identity tokens stay stable across
  requests (the thing that makes warm hits possible at all), and the
  grids every ``run`` executes on, partitioned once by the first.
* **Admission control** — checked synchronously on the event loop before
  any work queues, in containment order: the drain gate, a per-tenant
  token-bucket request rate (``tenant_rate``/``tenant_burst``), a global
  in-flight bound (``max_queue``), and a per-tenant in-flight bound
  (``tenant_quota``). Violations return 429-style rejections whose
  ``retry_after`` is *computed* from the violated state (bucket refill
  time, or queue depth times the observed service-time EWMA), floored at
  ``retry_after_seconds`` — so an abusive tenant is clipped and told
  honestly when to come back.
* **Deadlines** — requests carry ``deadline_seconds`` (or inherit
  ``default_deadline_seconds``); a watchdog awards each stage only the
  remaining budget and cancels/abandons overdue pool futures, answering
  with the typed ``deadline_exceeded`` response, so one pathological
  workload can never wedge a pool slot forever.
* **Decoupled stages** — the event loop does what is a lookup: finding a
  resident workload whose program is already parsed, and the plan-cache
  probe. The compile pool does what generates, parses or compiles (a
  new workload, a new ``iterations``, a cold plan — where the optimizer's
  single-flight layer coalesces concurrent duplicates into one compile);
  the execute pool partitions a workload's inputs on its first ``run``
  and executes. A warm request therefore never enters the compile pool
  and is never queued behind slow cold compiles.
* **Heap policy** — glibc's mmap and trim thresholds, fixed once per
  process at start, so a warm request does not fault back in the arena
  the previous one freed; each ``run`` reports its execute thread's minor
  faults as ``execute_minor_faults``.

Responses are bit-identical to a direct ``Engine.run`` of the same
workload — the serving layer adds scheduling and accounting, never
arithmetic — pinned by SHA-256 digests in ``tests/test_server.py``.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..config import ClusterConfig, ServerConfig
from ..algorithms import get_algorithm
from ..core.plancache import PlanCache
from ..data import load_dataset
from ..engines import make_engine
from ..matrix.blocked import BlockedMatrix
from . import protocol
from .protocol import ProtocolError, Request


try:  # the calling thread's usage alone; without it no fault is reported
    from resource import RUSAGE_THREAD as _RUSAGE_THREAD, getrusage
except ImportError:
    _RUSAGE_THREAD = None

# glibc ``mallopt`` parameters (malloc.h), its default mmap threshold and
# the largest one it accepts on a 64-bit build.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MIN = 128 << 10
_MMAP_THRESHOLD_MAX = 32 << 20
_heap_policy_tile = 0


def _fix_heap_policy(block_size: int) -> None:
    """Fix glibc's mmap and trim thresholds for a serving process.

    A warm ``run`` executes on an execute-pool thread whose arena holds
    little but the request's temporaries; with glibc's defaults, freeing
    them trims the arena and the next request faults every page back in.
    Blocks up to two of the largest dense tiles ``block_size`` makes
    (8·b² bytes; never below glibc's default, never above its ceiling)
    stay in the arenas, larger one-off buffers are mmapped and go back
    to the OS, and up to 16 mmap thresholds of free arena top are kept
    between requests. Setting either threshold turns off glibc's dynamic
    mmap threshold, which is why both are set. The heap is the process's,
    so later services in it only raise the thresholds, never lower them;
    a no-op off glibc.
    """
    global _heap_policy_tile
    tile = 8 * block_size * block_size
    if tile <= _heap_policy_tile:
        return
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError):
        glibc = None
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_threshold = min(max(2 * tile, _MMAP_THRESHOLD_MIN),
                         _MMAP_THRESHOLD_MAX)
    if mallopt(_M_MMAP_THRESHOLD, mmap_threshold) \
            and mallopt(_M_TRIM_THRESHOLD, 16 * mmap_threshold):
        _heap_policy_tile = tile


def _thread_minor_faults() -> int:
    return getrusage(_RUSAGE_THREAD).ru_minflt


class _DeadlineExceeded(Exception):
    """Internal signal: a request stage outlived the request deadline."""

    def __init__(self, deadline_seconds: float, elapsed_seconds: float):
        super().__init__(f"deadline of {deadline_seconds}s exceeded after "
                         f"{elapsed_seconds:.3f}s")
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds


class _TokenBucket:
    """One tenant's request-rate bucket: ``rate`` tokens/sec, ``burst`` cap.

    Only touched on the event-loop thread, so plain attributes suffice.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def try_take(self, now: float) -> float:
        """Take one token; 0.0 on success, else seconds until one refills."""
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class _ResidentWorkload:
    """One resident ``(algorithm, dataset, scale)`` and its inputs, owned
    by the service in two forms for as long as it is resident: ``data`` as
    ``make_inputs`` returned it (what compile sketches and the plan cache's
    identity tokens name) and :meth:`grids`, the same inputs partitioned,
    which every ``run`` executes on and none edits.
    """

    __slots__ = ("algo", "meta", "data", "_grids", "_lock")

    def __init__(self, algo, meta: dict, data: dict):
        self.algo = algo
        self.meta = meta
        self.data = data
        self._grids: dict | None = None
        self._lock = threading.Lock()

    def grids(self, block_size: int) -> dict:
        """The partitioned inputs, built by the first caller under a lock
        held for all of it — so execute-pool threads only, never the loop."""
        with self._lock:
            if self._grids is None:
                symmetric = self.algo.symmetric_inputs
                self._grids = {
                    name: value if isinstance(value, (int, float))
                    else BlockedMatrix.from_any(value, block_size=block_size,
                                                symmetric=name in symmetric)
                    for name, value in self.data.items()}
            return self._grids


class OptimizerService:
    """Shared warm optimizer state + admission control, one per process."""

    def __init__(self, config: ServerConfig | None = None,
                 cluster: ClusterConfig | None = None):
        self.config = config or ServerConfig()
        self.cluster = cluster or ClusterConfig()
        self.started_at = time.time()
        _fix_heap_policy(self.cluster.block_size)
        #: Process-wide compiled-plan cache, shared by every engine.
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        self._engines: dict[str, object] = {}
        self._sessions: dict[tuple[str, str], object] = {}
        self._workloads: dict[tuple[str, str, float], _ResidentWorkload] = {}
        self._workloads_lock = threading.Lock()
        self._compile_pool = ThreadPoolExecutor(
            max_workers=self.config.compile_workers,
            thread_name_prefix="repro-compile")
        self._execute_pool = ThreadPoolExecutor(
            max_workers=self.config.execute_workers,
            thread_name_prefix="repro-execute")
        # Admission accounting; only touched on the event-loop thread.
        self._admitted = 0
        self._tenant_inflight: dict[str, int] = {}
        self._rate_buckets: dict[str, _TokenBucket] = {}
        #: EWMA of completed run/optimize wall seconds — the basis for
        #: computed ``retry_after`` suggestions. None until one completes.
        self._service_seconds_ewma: float | None = None
        self.draining = False
        self.drain_report: dict | None = None
        self._drain_completed_base = 0
        self.counters = {"received": 0, "accepted": 0, "completed": 0,
                         "failed": 0, "rejected_busy": 0,
                         "rejected_quota": 0, "rejected_rate": 0,
                         "rejected_draining": 0, "deadline_exceeded": 0,
                         "shed": 0}
        if _RUSAGE_THREAD is not None:
            self.counters["execute_minor_faults"] = 0
        self.closed = False

    @property
    def in_flight(self) -> int:
        """Requests currently admitted (queued or running, both stages)."""
        return self._admitted

    # ------------------------------------------------------------------
    # Shared-state accessors
    # ------------------------------------------------------------------
    def engine(self, name: str | None):
        """The shared warm engine for ``name`` (lazily built, cache adopted)."""
        name = name or self.config.default_engine
        engine = self._engines.get(name)
        if engine is None:
            engine = make_engine(name, self.cluster)
            engine.adopt_plan_cache(self.plan_cache)
            self._engines[name] = engine
        return engine

    def session(self, tenant: str, engine_name: str | None):
        """The tenant's :class:`~repro.engines.session.Session` (lazy)."""
        engine = self.engine(engine_name)
        key = (tenant, engine.name)
        session = self._sessions.get(key)
        if session is None:
            session = engine.session(tenant)
            self._sessions[key] = session
        return session

    def _resident(self, request: Request) -> _ResidentWorkload | None:
        """The request's workload, if it is resident *and* its program for
        ``request.iterations`` is parsed: two dict reads, no lock, nothing
        generated — this runs on the event loop."""
        workload = self._workloads.get(
            (request.algorithm, request.dataset, request.scale))
        if workload is not None \
                and request.iterations in workload.algo._program_cache:
            return workload
        return None

    def _workload(self, request: Request) -> _ResidentWorkload:
        """Make the request's workload resident and parse its program, on
        a compile-pool thread (either can be slow), hence the lock.

        One workload per ``(algorithm, dataset, scale)`` keeps the *same*
        input objects bound across requests, so the plan cache's identity
        tokens match and repeated submissions become warm hits — the
        resident-dataset serving model.
        """
        key = (request.algorithm, request.dataset, request.scale)
        with self._workloads_lock:
            workload = self._workloads.get(key)
        if workload is None:
            algo = get_algorithm(request.algorithm)
            dataset = load_dataset(request.dataset, scale=request.scale)
            meta, data = algo.make_inputs(dataset.matrix)
            with self._workloads_lock:
                workload = self._workloads.setdefault(
                    key, _ResidentWorkload(algo, meta, data))
        workload.algo.program(request.iterations)
        return workload

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _drain_estimate(self, slots_ahead: int, parallelism: int) -> float:
        """Seconds until ``slots_ahead`` in-flight slots free up, floored.

        Estimated from the EWMA of observed request service time; before
        any request has completed, the configured floor is all we know.
        """
        floor = self.config.retry_after_seconds
        if self._service_seconds_ewma is None:
            return floor
        estimate = slots_ahead * self._service_seconds_ewma \
            / max(1, parallelism)
        return max(floor, estimate)

    def _admit(self, request: Request) -> dict | None:
        """Reserve capacity, or return the rejection response.

        Checked in containment order: drain gate, per-tenant request rate
        (token bucket), global in-flight bound, per-tenant in-flight
        quota. Every rejection carries a ``retry_after`` computed from the
        state that caused it (bucket refill time or estimated queue
        drain), floored at ``retry_after_seconds``.
        """
        if self.draining:
            self.counters["rejected_draining"] += 1
            return protocol.rejection(request, "draining",
                                      self.config.retry_after_seconds)
        if self.config.tenant_rate is not None:
            now = time.monotonic()
            bucket = self._rate_buckets.get(request.tenant)
            if bucket is None:
                bucket = _TokenBucket(self.config.tenant_rate,
                                      self.config.tenant_burst, now)
                self._rate_buckets[request.tenant] = bucket
            wait = bucket.try_take(now)
            if wait > 0.0:
                self.counters["rejected_rate"] += 1
                return protocol.rejection(
                    request, "rate_limited",
                    max(self.config.retry_after_seconds, wait))
        if self._admitted >= self.config.max_queue:
            self.counters["rejected_busy"] += 1
            slots_over = self._admitted - self.config.max_queue + 1
            return protocol.rejection(
                request, "server_busy",
                self._drain_estimate(slots_over,
                                     self.config.compile_workers
                                     + self.config.execute_workers))
        tenant_load = self._tenant_inflight.get(request.tenant, 0)
        if tenant_load >= self.config.tenant_quota:
            self.counters["rejected_quota"] += 1
            slots_over = tenant_load - self.config.tenant_quota + 1
            return protocol.rejection(
                request, "quota_exceeded",
                self._drain_estimate(slots_over, self.config.tenant_quota))
        self._admitted += 1
        self._tenant_inflight[request.tenant] = tenant_load + 1
        self.counters["accepted"] += 1
        return None

    def _release(self, request: Request) -> None:
        self._admitted -= 1
        remaining = self._tenant_inflight.get(request.tenant, 1) - 1
        if remaining <= 0:
            self._tenant_inflight.pop(request.tenant, None)
        else:
            self._tenant_inflight[request.tenant] = remaining

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    async def submit(self, payload: object) -> dict:
        """Process one decoded request payload; always returns a response."""
        self.counters["received"] += 1
        try:
            request = protocol.parse_request(payload)
        except ProtocolError as error:
            self.counters["failed"] += 1
            request_id = payload.get("id") if isinstance(payload, dict) else None
            return protocol.error_response(request_id, str(error))
        if request.op == "ping":
            return {"id": request.id, "status": "ok", "op": "ping"}
        if request.op == "stats":
            return {"id": request.id, "status": "ok", "op": "stats",
                    "stats": self.stats()}
        if request.op == "health":
            return {"id": request.id, "status": "ok", "op": "health",
                    "health": self.health()}
        if request.op == "ready":
            ready = not self.draining \
                and self._admitted < self.config.max_queue
            return {"id": request.id, "status": "ok", "op": "ready",
                    "ready": ready, "draining": self.draining}
        if request.op in ("shutdown", "drain"):
            allowed = self.config.allow_remote_shutdown
            return {"id": request.id, "status": "ok" if allowed else "error",
                    "op": request.op,
                    **({"in_flight": self._admitted} if allowed
                       else {"error": f"{request.op} disabled"})}
        rejection = self._admit(request)
        if rejection is not None:
            return rejection
        started = time.monotonic()
        try:
            response = await self._process(request)
            self.counters["completed"] += 1
            self._observe_service_time(time.monotonic() - started)
            return response
        except _DeadlineExceeded as exceeded:
            self.counters["deadline_exceeded"] += 1
            return protocol.deadline_exceeded(
                request, exceeded.deadline_seconds, exceeded.elapsed_seconds)
        except Exception as error:  # surface, never kill the server
            self.counters["failed"] += 1
            return protocol.error_response(
                request.id, f"{type(error).__name__}: {error}")
        finally:
            self._release(request)

    def _observe_service_time(self, seconds: float) -> None:
        if self._service_seconds_ewma is None:
            self._service_seconds_ewma = seconds
        else:
            self._service_seconds_ewma = \
                0.8 * self._service_seconds_ewma + 0.2 * seconds

    async def _process(self, request: Request) -> dict:
        loop = asyncio.get_running_loop()
        received = time.perf_counter()
        budget = request.deadline_seconds \
            if request.deadline_seconds is not None \
            else self.config.default_deadline_seconds

        async def watchdog(awaitable):
            """Award the stage only its remaining share of the deadline.

            On overrun the wrapped future is cancelled — queued pool work
            is truly cancelled, already-running work is abandoned (its
            result discarded) — so an overdue request frees its admission
            slot instead of wedging the pipeline.
            """
            if budget is None:
                return await awaitable
            remaining = budget - (time.perf_counter() - received)
            if remaining <= 0.0:
                raise _DeadlineExceeded(budget,
                                        time.perf_counter() - received)
            try:
                return await asyncio.wait_for(awaitable, timeout=remaining)
            except asyncio.TimeoutError:
                raise _DeadlineExceeded(
                    budget, time.perf_counter() - received) from None

        session = self.session(request.tenant, request.engine)
        # A resident workload is found right here, one that has to be
        # generated or parsed goes to the compile pool; either way a
        # deadline already spent is answered before anything else.
        workload = self._resident(request)
        if workload is None:
            workload = await watchdog(loop.run_in_executor(
                self._compile_pool, self._workload, request))
        elif budget is not None and time.perf_counter() - received >= budget:
            raise _DeadlineExceeded(budget, time.perf_counter() - received)
        algo, meta, data = workload.algo, workload.meta, workload.data
        program = algo.program(request.iterations)
        queued = time.perf_counter()

        # Decoupled stages: the warm probe runs right here on the loop —
        # a cache hit routes straight to the execute pool and is never
        # queued behind a cold compile.
        compiled = session.cached_plan(program, meta, data,
                                       iterations=request.iterations)
        if compiled is None:
            compiled = await watchdog(loop.run_in_executor(
                self._compile_pool, lambda: session.compile(
                    program, meta, data, iterations=request.iterations)))
        compiled_at = time.perf_counter()
        outcome = compiled.notes.get("plan_cache", "off")

        if request.op == "optimize":
            return {
                "id": request.id, "status": "ok", "op": "optimize",
                "tenant": request.tenant, "engine": session.engine.name,
                "plan_cache": outcome,
                "compile_ms": round((compiled_at - queued) * 1e3, 3),
                "queue_ms": round((queued - received) * 1e3, 3),
                "estimated_cost_s": compiled.estimated_cost,
                "options_found": compiled.notes.get("options_found"),
                "applied_options": [str(o) for o in compiled.applied_options],
            }

        outputs = request.outputs or algo.outputs
        packaged = await watchdog(loop.run_in_executor(
            self._execute_pool, lambda: self._execute_and_package(
                session, workload, compiled, outputs,
                request.return_values)))
        finished = time.perf_counter()
        packaged.update({
            "id": request.id, "status": "ok", "op": "run",
            "tenant": request.tenant, "engine": session.engine.name,
            "plan_cache": outcome,
            "queue_ms": round((queued - received) * 1e3, 3),
            "compile_ms": round((compiled_at - queued) * 1e3, 3),
            "execute_ms": round((finished - compiled_at) * 1e3, 3),
            "total_ms": round((finished - received) * 1e3, 3),
        })
        if "execute_minor_faults" in packaged:
            self.counters["execute_minor_faults"] += \
                packaged["execute_minor_faults"]
        return packaged

    def _execute_and_package(self, session, workload, compiled, outputs,
                             return_values: bool) -> dict:
        """Execute stage: private executor over the resident grids (which
        a workload's first ``run`` partitions here), then digest/encode.

        Each output is canonicalised once; the digest is taken over, and
        ``entry["data"]`` is a view of, that one buffer (the front end
        sends it after the header line, see :mod:`repro.server.protocol`).
        The thread's minor page faults over both, where the platform
        counts them per thread, go out as ``execute_minor_faults``.
        """
        if _RUSAGE_THREAD is not None:
            faults_before = _thread_minor_faults()
        result = session.execute(compiled,
                                 workload.grids(self.cluster.block_size),
                                 symmetric=workload.algo.symmetric_inputs,
                                 compile_wall_seconds=compiled.compile_seconds)
        assert result.metrics.fault_summary is None, \
            "resident grids are shared: no recovery on the serve path"
        results = {}
        for name in outputs:
            value = protocol.canonical(result.value(name))
            entry = {"sha256": protocol.array_digest(value)}
            if return_values:
                entry.update(protocol.encode_array(value))
            results[name] = entry
        packaged = {
            "results": results,
            "simulated_execution_s": result.execution_seconds,
            "simulated_total_s": result.total_seconds,
            "applied_options": result.compiled.num_applied,
        }
        if _RUSAGE_THREAD is not None:
            packaged["execute_minor_faults"] = \
                _thread_minor_faults() - faults_before
        return packaged

    # ------------------------------------------------------------------
    # Drain lifecycle
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting; in-flight requests keep running (event loop)."""
        if not self.draining:
            self.draining = True
            self._drain_completed_base = self.counters["completed"]

    def finish_drain(self, shed: int) -> dict:
        """Record the drain outcome: what finished, what was abandoned."""
        completed = self.counters["completed"] \
            - self._drain_completed_base
        self.counters["shed"] += shed
        self.drain_report = {"completed_during_drain": completed,
                             "shed": shed,
                             "deadline_hit": shed > 0}
        return self.drain_report

    def health(self) -> dict:
        """Liveness snapshot: queue depth, bucket state, resident workloads."""
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "draining": self.draining,
            "ready": not self.draining
            and self._admitted < self.config.max_queue,
            "in_flight": self._admitted,
            "capacity_remaining": max(0,
                                      self.config.max_queue - self._admitted),
            "tenants_in_flight": dict(self._tenant_inflight),
            "rate_buckets": {tenant: round(bucket.tokens, 3)
                             for tenant, bucket
                             in self._rate_buckets.items()},
            "resident_workloads": len(self._workloads),
            "deadline_exceeded": self.counters["deadline_exceeded"],
            "rejected_rate": self.counters["rejected_rate"],
        }

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service-wide snapshot: counters, cache, memo, tenants."""
        sessions = [session.summary() for session in self._sessions.values()]
        sketch = None
        if self._engines:
            # Every engine shares the plan cache; sketch memos are
            # per-optimizer — report the default engine's.
            default = self._engines.get(self.config.default_engine)
            if default is not None:
                sketch = default.optimizer.sketch_memo.as_dict()
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "in_flight": self._admitted,
            "draining": self.draining,
            "drain": self.drain_report,
            "tenants_in_flight": dict(self._tenant_inflight),
            "counters": dict(self.counters),
            "plan_cache": self.plan_cache.stats_dict(),
            "plan_cache_entries": len(self.plan_cache),
            "sketch_memo": sketch,
            "engines": sorted(self._engines),
            "sessions": sessions,
            "config": {
                "max_queue": self.config.max_queue,
                "tenant_quota": self.config.tenant_quota,
                "tenant_rate": self.config.tenant_rate,
                "tenant_burst": self.config.tenant_burst,
                "compile_workers": self.config.compile_workers,
                "execute_workers": self.config.execute_workers,
                "default_deadline_seconds":
                    self.config.default_deadline_seconds,
                "drain_deadline_seconds":
                    self.config.drain_deadline_seconds,
            },
        }

    def close(self) -> None:
        """Tear down the compile and execute pools, exactly once."""
        if self.closed:
            return
        self.closed = True
        self._compile_pool.shutdown(wait=True)
        self._execute_pool.shutdown(wait=True)
