"""Plan cache: fingerprint-keyed LRU of compiled programs.

The north-star deployment compiles the same handful of algorithms over and
over against datasets whose metadata rarely changes — the workload
SystemML-style optimizers serve with fusion-plan caches. A compiled plan is
valid for exactly the inputs the optimizer saw, so the cache key is a
deterministic fingerprint of everything the optimizer's decisions depend
on:

* the printed program text plus every loop's ``max_iterations`` budget,
  nested loops included, which the printer omits (both kept by the
  immutable :class:`~repro.lang.program.Program`, rendered once);
* every input's :class:`~repro.matrix.meta.MatrixMeta` — shape, sparsity,
  and the symmetric flag the search exploits;
* identity tokens for any bound input *data* (data-dependent estimators
  sketch real structure, so two different matrices with equal metadata must
  not share a plan — tokens are per-object, handed out by a registry that
  survives as long as the cache);
* the semantic fields of :class:`~repro.config.OptimizerConfig` (estimator,
  strategy, search, combiner, budgets, and — for mid-run replanning — the
  ``temp_prefix``; the performance-only knobs
  like worker counts are excluded so they never fragment the cache);
* the full :class:`~repro.config.ClusterConfig` and
  :class:`~repro.runtime.hybrid.ExecutionPolicy` (pricing inputs) — the
  worker count is part of the cluster text, so a replan priced for a
  post-crash shrunken cluster keys separately from the original plan while
  repeated replans against the same shrunken topology hit (config,
  cluster and policy are frozen: :func:`settings_text`, once per optimizer);
* the compile-time iteration budget.

Anything that could change the chosen plan or its predicted cost changes
the fingerprint; anything that could not, does not. Eviction is LRU with
hit/miss/eviction/coalesce counters surfaced in compile notes and the CLI.

The cache is safe under concurrent access: the LRU dict, the counters,
and the token registry are guarded by locks so many serving threads can
compile against one process-wide cache (the optimizer-as-a-service
deployment, docs/architecture.md §14). Single-flight deduplication of
concurrent cold compiles lives one level up, in
:meth:`repro.core.optimizer.ReMacOptimizer.compile`, which reports
followers through the ``coalesced`` counter here.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields

from ..config import ClusterConfig, OptimizerConfig
from ..lang.program import Program
from ..runtime.hybrid import ExecutionPolicy
from ..runtime.plan import CompiledProgram

#: OptimizerConfig fields that cannot affect the chosen plan or its
#: predicted cost — excluded from fingerprints so toggling them never
#: fragments the cache.
PERF_ONLY_CONFIG_FIELDS = frozenset({
    "plan_cache", "plan_cache_size", "cost_memo",
})


#: Separates the parts of a fingerprint.
_SEPARATOR = "\x1e"


class DataTokens:
    """Stable identity tokens for bound input data objects.

    Metadata alone under-determines a plan when a data-dependent estimator
    (MNC, density map, sampling, exact) sketches the actual matrices, so
    fingerprints include one token per bound input. Tokens are per-object:
    the same matrix object always yields the same token (the service case —
    one resident dataset, many compiles), while a new object — even with
    equal contents — yields a fresh token, which can only cause a spurious
    miss, never a wrong hit. Liveness is tracked with weak references so a
    recycled ``id()`` is never mistaken for the old object, and a weakref
    callback purges the entry when the referent is collected, so the
    registry stays bounded by the number of *live* inputs rather than
    growing forever across short-lived ones.
    """

    def __init__(self) -> None:
        self._by_id: dict[int, tuple] = {}
        self._serial = 0
        # Fingerprinting runs concurrently in a multi-tenant server, and
        # token handout is a read-modify-write of the registry. Reentrant
        # because the weakref purge callback can fire from a GC triggered
        # inside the locked region.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        """Number of registered (live or not-yet-purged) entries."""
        return len(self._by_id)

    def __bool__(self) -> bool:
        """Always truthy: a registry's identity matters even when empty.

        Without this, ``tokens or DataTokens()`` would silently replace a
        shared-but-empty registry with a throwaway one, producing equal
        serial tokens for *different* objects — a wrong-cache-hit hazard.
        """
        return True

    def token(self, value) -> str:
        if value is None:
            return "none"
        if isinstance(value, (bool, int, float)):
            return f"scalar:{value!r}"
        key = id(value)
        with self._lock:
            entry = self._by_id.get(key)
            if entry is not None:
                ref, token = entry
                if ref() is value:
                    return token
            self._serial += 1
            token = f"obj:{self._serial}"
            try:
                ref = weakref.ref(value, self._purger(key))
            except TypeError:  # not weak-referenceable: never cache-hit on it
                return f"anon:{self._serial}"
            self._by_id[key] = (ref, token)
            return token

    def _purger(self, key: int):
        """Callback dropping ``key`` when its referent is collected.

        Guarded on ref identity: by the time the callback fires, a new
        object with the recycled id may already own the slot.
        """
        def purge(ref) -> None:
            with self._lock:
                entry = self._by_id.get(key)
                if entry is not None and entry[0] is ref:
                    del self._by_id[key]
        return purge


def _fields_text(config, perf_only: frozenset = frozenset()) -> str:
    return ";".join(f"{f.name}={getattr(config, f.name)!r}"
                    for f in fields(config) if f.name not in perf_only)


def settings_text(config: OptimizerConfig, cluster: ClusterConfig,
                  policy: ExecutionPolicy) -> str:
    """The config + cluster + policy section of a fingerprint.

    All three are frozen, so whoever holds them (an optimizer, for its
    lifetime) renders this once rather than once per compile.
    """
    return _SEPARATOR.join((
        "config", _fields_text(config, PERF_ONLY_CONFIG_FIELDS),
        "cluster", _fields_text(cluster),
        "policy", repr(policy)))


def plan_fingerprint(program: Program, inputs: dict, settings: str,
                     iterations: int | None = None,
                     input_data: dict | None = None,
                     tokens: DataTokens | None = None) -> str:
    """Deterministic cache key for one ``compile()`` call.

    ``settings`` is :func:`settings_text` of the optimizer compiling; the
    program keeps its own text, so only the input lines are rendered here.
    """
    data = input_data or {}
    if tokens is None:  # ``or`` would discard a shared-but-empty registry
        tokens = DataTokens()
    meta_lines = []
    for name in sorted(inputs):
        meta = inputs[name]
        symmetric = getattr(meta, "symmetric", False)
        meta_lines.append(f"{name}:{meta.rows}x{meta.cols}"
                          f":{meta.sparsity!r}:{symmetric}"
                          f":{tokens.token(data.get(name))}")
    parts = (
        "program", program.text,
        "loops", program.loop_budgets,
        "inputs", "\n".join(meta_lines),
        settings,
        "iterations", repr(iterations),
    )
    return hashlib.sha256(_SEPARATOR.join(parts).encode()).hexdigest()


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction/coalesce counters of one plan cache.

    ``coalesced`` counts compiles that joined another caller's in-flight
    cold compile of the same fingerprint (single-flight dedup) instead of
    racing it: every submission is exactly one of hit, miss, or coalesced.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    coalesced: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "coalesced": self.coalesced}


class PlanCache:
    """LRU cache of :class:`CompiledProgram` keyed by plan fingerprint.

    Safe under concurrent access: lookups, insertion, eviction, and every
    counter update happen under one lock, so a process-wide cache can be
    shared by all of a server's compile threads.
    """

    def __init__(self, maxsize: int = 64):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.stats = PlanCacheStats()
        self.data_tokens = DataTokens()
        self._entries: OrderedDict[str, CompiledProgram] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> CompiledProgram | None:
        """Counting lookup: records a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def probe(self, key: str) -> CompiledProgram | None:
        """Lookup that records a hit when present but is silent on absence.

        The single-flight compile path uses this so a miss is counted only
        by the one caller that actually runs the cold compile — followers
        of an in-flight compile count as ``coalesced`` instead.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def note_miss(self) -> None:
        """Record one miss (the caller is about to compile cold)."""
        with self._lock:
            self.stats.misses += 1

    def note_coalesced(self) -> None:
        """Record one coalesced submission (joined an in-flight compile)."""
        with self._lock:
            self.stats.coalesced += 1

    def stats_dict(self) -> dict[str, int]:
        """A consistent snapshot of the counters."""
        with self._lock:
            return self.stats.as_dict()

    def put(self, key: str, compiled: CompiledProgram) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = compiled
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()


class InputSketchMemo:
    """Cross-compile memo of input sketches, shared like the plan cache.

    A cold compile's dominant data-dependent cost is sketching the bound
    inputs (MNC/density-map/sampling statistics over the actual matrices).
    In the serving deployment many *near-miss* compiles — same resident
    dataset, different program or iteration budget — re-sketch identical
    inputs, so the optimizer keeps this memo beside its plan cache, keyed
    by the same identity tokens fingerprints use: ``(estimator name, data
    token, metadata, symmetric flag)``. Sketches are immutable value
    objects and sketching is pure, so sharing the object is perf-only; a
    memo hit genuinely skips statistics collection, mirroring how a plan
    cache hit reports ``stats_collection_seconds == 0``. Bounded LRU,
    lock-guarded.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: tuple):
        """The memoized sketch for ``key``, or None (counts hit/miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: tuple, sketch) -> None:
        with self._lock:
            self._entries[key] = sketch
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}
