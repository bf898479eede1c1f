"""Shared worker pools for block-level kernels (the execution fast path).

:mod:`repro.matrix.blocked` operations loop over grid tiles whose payload
arithmetic is NumPy/SciPy kernels, so fanning the per-tile work out across
host workers is a real wall-clock speedup on multi-core machines. This
module owns that fan-out:

* :func:`map_blocks` maps a function over a batch of independent tile
  tasks, preserving input order so every caller's reduction (partial-sum
  merges, grid insertion, float folds) runs in exactly the serial order —
  parallelism reschedules independent work, it never reorders arithmetic.
  Results, simulated time, and metrics are therefore bit-identical to the
  serial path by construction.
* Two backends. ``"thread"`` fans tasks over a shared
  ``ThreadPoolExecutor`` — right when the tile kernels release the GIL
  (large dense BLAS calls). ``"process"`` ships tasks to a shared
  ``ProcessPoolExecutor`` so the GIL stops bounding the portions of
  NumPy/SciPy kernels that hold it; large dense tile payloads travel
  through ``multiprocessing.shared_memory`` segments instead of the
  executor's pickle pipe. The process backend requires importable
  (module-level) task functions; closures silently fall back to threads,
  and a broken/unavailable process pool falls back the same way — the
  backend knob is perf-only in every case.
* Batched per-worker submission. A parallel batch is chunked into at most
  ``width`` contiguous slices and each slice is submitted as one task, so
  dispatch overhead is paid per worker, not per tile. Slice results are
  concatenated in submission order, which preserves input order by
  construction.
* A per-host calibrated serial/parallel gate. Callers pass ``work_hint``
  (estimated *cell touches per task*; see :func:`map_blocks`) and the
  gate keeps batches below the break-even point serial. The break-even
  threshold is measured once per process and backend by a tiny probe
  (serial vs pooled element-wise kernels over a ladder of tile sizes)
  instead of being hard-coded, so it reflects the machine it runs on — on
  a single-core host the probe finds that pooling never wins and the gate
  keeps everything serial. Override it with
  :class:`KernelDispatch.threshold` / ``ClusterConfig.
  kernel_parallel_threshold`` or :func:`set_parallel_work_threshold`.
* Pools are shared per (backend, width) and reused across operations;
  :func:`shutdown_pools` (idempotent, also registered ``atexit``) releases
  the pooled threads and worker processes.

The knobs follow :data:`repro.config.ClusterConfig.kernel_workers` /
``kernel_backend`` and the ``--kernel-workers`` / ``--kernel-backend`` CLI
flags: width ``1`` (the default everywhere) is the serial seed behaviour
with zero pool overhead, ``0`` means one worker per CPU, ``n > 1`` means
that many workers. This module lives under :mod:`repro.matrix` (not
:mod:`repro.runtime`) because the blocked-matrix layer may not import the
runtime — the dependency points the other way.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .block import Block

Item = TypeVar("Item")
Result = TypeVar("Result")

THREAD_BACKEND = "thread"
PROCESS_BACKEND = "process"
#: The valid ``kernel_backend`` knob values, in documentation order.
KERNEL_BACKENDS = (THREAD_BACKEND, PROCESS_BACKEND)


@dataclass(frozen=True)
class KernelDispatch:
    """How block-kernel batches fan out: width, backend, and gate override.

    An instance is accepted anywhere a plain ``workers`` int is (the
    runtime threads ``ClusterConfig.kernel_dispatch()`` through every
    kernel). ``threshold`` overrides the calibrated serial/parallel gate:
    ``None`` (default) calibrates per host, ``0.0`` always parallelizes,
    ``float("inf")`` always stays serial. All three fields are perf-only.
    """

    workers: int = 1
    backend: str = THREAD_BACKEND
    threshold: float | None = None


#: Module default used when an operation is called without an explicit
#: worker count (direct :class:`~repro.matrix.blocked.BlockedMatrix` use in
#: tests and scripts). 1 = serial, the seed behaviour.
_default_workers = 1
_default_backend = THREAD_BACKEND

_pools: dict[tuple[str, int], ThreadPoolExecutor | ProcessPoolExecutor] = {}
_pools_lock = threading.Lock()
#: First process-pool failure reason; once set, the process backend is
#: considered unavailable for the rest of this process and every dispatch
#: falls back to threads.
_process_pool_error: str | None = None


def resolve_kernel_workers(workers: int | KernelDispatch | None) -> int:
    """Normalize a kernel-worker knob to an effective worker count.

    ``None`` defers to the module default (see
    :func:`set_default_kernel_workers`); ``0`` means one worker per CPU;
    anything else is clamped to at least 1. A :class:`KernelDispatch`
    resolves by its ``workers`` field.
    """
    if isinstance(workers, KernelDispatch):
        workers = workers.workers
    if workers is None:
        workers = _default_workers
    if workers == 0:
        return os.cpu_count() or 1
    return max(1, workers)


def set_default_kernel_workers(workers: int) -> int:
    """Set the module default used when no explicit count is given.

    Returns the previous default so callers can restore it (tests and
    benchmarks use this as a scoped override).
    """
    global _default_workers
    previous = _default_workers
    _default_workers = workers
    return previous


def default_kernel_workers() -> int:
    """The current module default (1 = serial unless overridden)."""
    return _default_workers


def _resolve_dispatch(workers: int | KernelDispatch | None
                      ) -> tuple[int, str, float | None]:
    """(effective width, backend, threshold override) for one dispatch."""
    if isinstance(workers, KernelDispatch):
        return (resolve_kernel_workers(workers.workers), workers.backend,
                workers.threshold)
    return resolve_kernel_workers(workers), _default_backend, None


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
def _worker_init() -> None:
    """Reset inherited pool state inside a forked/spawned worker process.

    A worker must never dispatch through executors it inherited from the
    parent (their queues belong to the parent's threads), so nested
    ``map_blocks`` calls inside a task degrade to serial.
    """
    global _default_workers, _process_pool_error
    _pools.clear()
    _default_workers = 1
    _process_pool_error = "nested inside a kernel worker process"


def _make_pool(backend: str, width: int):
    if backend == THREAD_BACKEND:
        return ThreadPoolExecutor(max_workers=width,
                                  thread_name_prefix="repro-kernel")
    import multiprocessing

    # Prefer fork (instant workers, inherited imports); spawn elsewhere.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"
    return ProcessPoolExecutor(max_workers=width,
                               mp_context=multiprocessing.get_context(method),
                               initializer=_worker_init)


def _shared_pool(backend: str, width: int):
    """The process-wide pool of ``width`` workers, created on first use.

    The lookup takes ``_pools_lock`` *before* reading ``_pools``: a plain
    ``dict.get`` outside the lock raced concurrent first-use insertion
    (two callers could observe a half-registered executor during a
    resize of the dict's internal table).
    """
    key = (backend, width)
    with _pools_lock:
        pool = _pools.get(key)
        if pool is None:
            pool = _make_pool(backend, width)
            _pools[key] = pool
        return pool


def _process_pool(width: int) -> ProcessPoolExecutor | None:
    """The shared process pool, or ``None`` when unavailable on this host."""
    global _process_pool_error
    if _process_pool_error is not None:
        return None
    try:
        return _shared_pool(PROCESS_BACKEND, width)
    except (OSError, ValueError, ImportError) as error:
        # Containers and sandboxes commonly forbid the primitives process
        # pools need (sem_open, /dev/shm); record why and fall back.
        _process_pool_error = f"{type(error).__name__}: {error}"
        return None


def _discard_process_pools(reason: str) -> None:
    """Drop broken process pools and mark the backend unavailable."""
    global _process_pool_error
    _process_pool_error = reason
    with _pools_lock:
        broken = [key for key in _pools if key[0] == PROCESS_BACKEND]
        pools = [_pools.pop(key) for key in broken]
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


def process_backend_available(width: int = 2) -> bool:
    """Whether this host can run the process backend (probes on first call)."""
    pool = _process_pool(width)
    if pool is None:
        return False
    try:
        return pool.submit(_probe_noop).result(timeout=60.0) is None
    except Exception as error:  # BrokenProcessPool, TimeoutError, ...
        _discard_process_pools(f"{type(error).__name__}: {error}")
        return False


def shutdown_pools() -> None:
    """Shut down every shared kernel pool (threads and worker processes).

    Idempotent — safe to call repeatedly and registered ``atexit`` — so
    pooled threads and worker processes never leak across test or
    benchmark runs. Pools are recreated lazily on the next dispatch.
    """
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# Calibrated serial/parallel gate
# ----------------------------------------------------------------------
#: Used when the calibration probe cannot run (e.g. the process backend is
#: unavailable before the thread fallback engages). Matches the constant
#: the gate hard-coded before calibration existed.
FALLBACK_WORK_THRESHOLD = 262_144.0

#: Tile sizes (cells) the probe ladders through, ascending.
_PROBE_CELLS = (4_096, 16_384, 65_536, 262_144, 1_048_576)
_PROBE_TASKS = 8
_PROBE_REPEATS = 3
#: Pooling must beat serial by this factor at a probe rung to win it —
#: a strict margin so scheduler noise cannot flip a single-core host into
#: parallel dispatch (the regression calibration exists to prevent).
_PROBE_MARGIN = 0.9

_calibrated: dict[str, float] = {}
_calibration_lock = threading.Lock()


def _probe_noop() -> None:
    return None


def _probe_ewise(task: tuple[np.ndarray, np.ndarray]) -> float:
    """One probe tile: an element-wise kernel shaped like ``_zip`` work."""
    left, right = task
    return float(np.add(left, right)[0, 0])


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _calibrate(backend: str) -> float:
    """Measure this host's serial/parallel break-even, in cells per task.

    Runs a small batch of element-wise tile kernels serially and through
    the pooled path (batched submission included) over an ascending ladder
    of tile sizes, and returns the first size where pooling wins. When
    pooling never wins — single-core hosts, or overhead-dominated
    backends — returns ``inf`` so the gate keeps every hinted batch
    serial: exactly the machines where the pool was a regression.
    """
    width = min(4, max(2, os.cpu_count() or 1))
    if backend == PROCESS_BACKEND and _process_pool(width) is None:
        return float("inf")
    rng = np.random.default_rng(0)
    for cells in _PROBE_CELLS:
        side = max(1, int(np.sqrt(cells)))
        left = rng.random((side, side))
        right = rng.random((side, side))
        batch = [(left, right)] * _PROBE_TASKS
        try:
            # Warm both paths (allocator, pool spin-up) before timing.
            _run_slice(_probe_ewise, batch)
            _parallel_map(_probe_ewise, batch, width, backend)
            serial = _best_of(lambda: _run_slice(_probe_ewise, batch),
                              _PROBE_REPEATS)
            pooled = _best_of(
                lambda: _parallel_map(_probe_ewise, batch, width, backend),
                _PROBE_REPEATS)
        except Exception:
            return float("inf")
        if pooled < serial * _PROBE_MARGIN:
            return float(cells)
    return float("inf")


def parallel_work_threshold(backend: str = THREAD_BACKEND) -> float:
    """This host's calibrated gate for ``backend``, in cells per task.

    Calibrated once per process per backend (a few milliseconds) and
    cached; ``work_hint`` values below it stay serial. Override per
    dispatch via :class:`KernelDispatch.threshold` or globally via
    :func:`set_parallel_work_threshold`.
    """
    with _calibration_lock:
        cached = _calibrated.get(backend)
    if cached is not None:
        return cached
    value = _calibrate(backend)
    with _calibration_lock:
        return _calibrated.setdefault(backend, value)


def set_parallel_work_threshold(value: float | None,
                                backend: str = THREAD_BACKEND) -> float | None:
    """Pin (or, with ``None``, drop back to calibrating) the gate.

    Returns the previously pinned value, if any, so tests and benchmarks
    can scope their overrides.
    """
    with _calibration_lock:
        previous = _calibrated.get(backend)
        if value is None:
            _calibrated.pop(backend, None)
        else:
            _calibrated[backend] = float(value)
        return previous


# ----------------------------------------------------------------------
# Batched submission
# ----------------------------------------------------------------------
def _contiguous_slices(batch: Sequence[Item], width: int) -> list[Sequence[Item]]:
    """Split ``batch`` into at most ``width`` contiguous, order-preserving
    slices whose sizes differ by at most one (ragged batches included).
    Concatenating the slices reproduces ``batch`` exactly."""
    count = min(width, len(batch))
    base, extra = divmod(len(batch), count)
    slices: list[Sequence[Item]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        slices.append(batch[start:start + size])
        start += size
    return slices


def _run_slice(fn: Callable[[Item], Result],
               chunk: Sequence[Item]) -> list[Result]:
    return [fn(item) for item in chunk]


# ----------------------------------------------------------------------
# Process backend: shared-memory tile shipping
# ----------------------------------------------------------------------
#: Dense payloads at or above this many bytes travel through a
#: ``multiprocessing.shared_memory`` segment instead of the executor's
#: pickle pipe (one memcpy each side beats pickling through a pipe, and
#: keeps the pickled task message tiny).
SHM_MIN_BYTES = 65_536


@dataclass(frozen=True)
class _ShmArray:
    """Handle to a dense ndarray parked in a shared-memory segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    #: Memory order of the source ("F" for a transposed view): BLAS sums
    #: in a layout-dependent order, so a worker must see the same layout.
    order: str


@dataclass(frozen=True, eq=False)  # may hold an (unhashable) small array
class _TransposeOf:
    """A dense array that is the transposed view of ``source``, shipped as
    its (encoded) source so that it is a view again on the other side:
    NumPy multiplies a payload by its own transposed view (``t(X) %*% X``)
    through another BLAS routine than it uses for a copy, and the two do
    not sum in the same order."""

    source: object


@dataclass(frozen=True, eq=False)  # one handle object per block and slice
class _ShmBlock:
    """Handle to a dense :class:`Block` whose payload ships by handle."""

    array: "_ShmArray | _TransposeOf"
    nnz: int | None  # the block's count, if it had one: it travels too


def _is_transposed_view(array: np.ndarray) -> bool:
    base = array.base
    return isinstance(base, np.ndarray) and array.ndim == 2 \
        and base.ndim == 2 and array.shape == base.shape[::-1] \
        and array.strides == base.strides[::-1] \
        and array.ctypes.data == base.ctypes.data


def _encode(obj, segments: list, memo: dict):
    """Replace large dense arrays in a task structure with shm handles.

    ``memo`` dedupes by object identity across one whole submission: a
    block referenced by many tile tasks (every matmul operand is) ships
    through a single segment, not once per referencing task.
    """
    if isinstance(obj, np.ndarray) and _is_transposed_view(obj):
        return _TransposeOf(_encode(obj.base, segments, memo))
    if isinstance(obj, np.ndarray) and obj.nbytes >= SHM_MIN_BYTES:
        handle = memo.get(id(obj))
        if handle is None:
            from multiprocessing import shared_memory
            segment = shared_memory.SharedMemory(create=True, size=obj.nbytes)
            order = "F" if obj.flags.f_contiguous \
                and not obj.flags.c_contiguous else "C"
            view = np.ndarray(obj.shape, dtype=obj.dtype, buffer=segment.buf,
                              order=order)
            view[...] = obj  # handles non-contiguous sources (strided views)
            segments.append(segment)
            memo[id(obj)] = handle = _ShmArray(segment.name, obj.shape,
                                               obj.dtype.str, order)
        return handle
    if isinstance(obj, Block):
        if not obj.is_sparse:
            handle = memo.get(id(obj))
            if handle is None:
                inner = _encode(obj.data, segments, memo)
                if inner is obj.data:
                    return obj  # small payload: ride the pickle pipe
                memo[id(obj)] = handle = _ShmBlock(inner, obj._nnz)
            return handle
        return obj  # sparse payloads ride the pickle pipe
    if isinstance(obj, tuple):
        return tuple(_encode(item, segments, memo) for item in obj)
    if isinstance(obj, list):
        return [_encode(item, segments, memo) for item in obj]
    return obj


def _decode(obj, memo: dict):
    """Worker-side inverse of :func:`_encode` (copies out of the segment).

    ``memo`` mirrors the encoder's identity dedup: a handle shared by many
    tasks in the slice is attached and copied exactly once.
    """
    if isinstance(obj, _ShmArray):
        cached = memo.get(obj)
        if cached is not None:
            return cached
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(name=obj.name)
        try:
            # Python < 3.13 registers attached segments with the resource
            # tracker as if this process owned them; unregister so the
            # creator's unlink stays the single authoritative cleanup.
            try:
                from multiprocessing import resource_tracker
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:
                pass
            view = np.ndarray(obj.shape, dtype=np.dtype(obj.dtype),
                              buffer=segment.buf, order=obj.order)
            memo[obj] = array = view.copy(order=obj.order)
            return array
        finally:
            segment.close()
    if isinstance(obj, _TransposeOf):
        return _decode(obj.source, memo).T
    if isinstance(obj, _ShmBlock):
        cached = memo.get(obj)
        if cached is None:
            memo[obj] = cached = Block.of(_decode(obj.array, memo), False,
                                          obj.nnz)
        return cached
    if isinstance(obj, tuple):
        return tuple(_decode(item, memo) for item in obj)
    if isinstance(obj, list):
        return [_decode(item, memo) for item in obj]
    return obj


def _run_encoded_slice(fn: Callable[[Item], Result],
                       payload: list) -> list[Result]:
    memo: dict = {}
    return [fn(_decode(task, memo)) for task in payload]


def _process_eligible(fn: Callable) -> bool:
    """Whether ``fn`` can be dispatched to worker processes.

    Process pools pickle functions by reference, so only importable
    module-level functions qualify; closures and lambdas fall back to the
    thread backend.
    """
    qualname = getattr(fn, "__qualname__", "")
    if not qualname or "<locals>" in qualname or "<lambda>" in qualname:
        return False
    target = sys.modules.get(getattr(fn, "__module__", "") or "")
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            return False
    return target is fn


def _process_map(fn: Callable[[Item], Result],
                 slices: list[Sequence[Item]],
                 width: int) -> list[Result] | None:
    """Run pre-sliced tasks on the process pool; ``None`` means fall back."""
    pool = _process_pool(width)
    if pool is None:
        return None
    segments: list = []
    memo: dict = {}
    futures = []
    try:
        try:
            for chunk in slices:
                payload = [_encode(task, segments, memo) for task in chunk]
                futures.append(pool.submit(_run_encoded_slice, fn, payload))
            results: list[Result] = []
            for future in futures:
                results.extend(future.result())
            return results
        except (BrokenProcessPool, OSError) as error:
            # Pool infrastructure failure (dead worker, shm exhaustion):
            # disable the backend and let the caller retry on threads.
            # Task-raised exceptions propagate unchanged.
            _discard_process_pools(f"{type(error).__name__}: {error}")
            return None
    finally:
        if futures:
            wait(futures)
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _parallel_map(fn: Callable[[Item], Result], batch: Sequence[Item],
                  width: int, backend: str) -> list[Result]:
    """Pooled dispatch with batched per-worker submission (no gate)."""
    slices = _contiguous_slices(batch, width)
    if backend == PROCESS_BACKEND and _process_eligible(fn):
        results = _process_map(fn, slices, width)
        if results is not None:
            return results
    pool = _shared_pool(THREAD_BACKEND, width)
    futures = [pool.submit(_run_slice, fn, chunk) for chunk in slices]
    results = []
    for future in futures:
        results.extend(future.result())
    return results


def map_blocks(fn: Callable[[Item], Result], items: Iterable[Item],
               workers: int | KernelDispatch | None = None,
               work_hint: float | Callable[[], float] | None = None
               ) -> list[Result]:
    """Map ``fn`` over independent tile tasks, preserving input order.

    ``work_hint`` contract: callers estimate the *cell touches per task*
    — payload cells read or written by one ``fn(item)`` call, averaged
    over the batch — and the gate keeps the batch serial (a plain
    comprehension, no pool touched) when that falls below the per-host
    calibrated threshold for the dispatch backend (see
    :func:`parallel_work_threshold`). Passing ``None`` skips the gate.
    The batch also stays serial when the effective worker count is 1 or
    the batch is trivial — and a hint passed as a zero-argument callable
    is then never evaluated, so an estimate that has to scan tiles for
    their counts costs a serial dispatch nothing.

    Parallel batches are chunked into at most ``width`` contiguous slices
    submitted one per worker (dispatch overhead is paid per worker, not
    per tile) and slice results are concatenated in submission order, so
    serial and pooled paths produce identical results in identical order
    — the gate, the batching, and the backend are all perf-only.
    Exceptions raised by ``fn`` propagate on every path.
    """
    batch: Sequence[Item] = items if isinstance(items, (list, tuple)) \
        else list(items)
    width, backend, threshold = _resolve_dispatch(workers)
    if width <= 1 or len(batch) <= 1:
        return [fn(item) for item in batch]
    if work_hint is not None:
        if callable(work_hint):
            work_hint = work_hint()
        if threshold is None:
            threshold = parallel_work_threshold(backend)
        if work_hint < threshold:
            return [fn(item) for item in batch]
    return _parallel_map(fn, batch, width, backend)
