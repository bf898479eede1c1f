"""Configuration objects for the simulated cluster and the optimizer.

:class:`ClusterConfig` captures the paper's experimental substrate (a 7-node
cluster: one driver plus six Spark workers, 1 Gbps Ethernet, §6.1) scaled to
laptop-size matrices. The same object parameterizes both the cost model
(what the optimizer *believes*) and the runtime simulator (what execution
*charges*), so the two stay comparable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .matrix.blocked import DEFAULT_BLOCK_SIZE

#: Gigabit Ethernet payload rate, bytes/second.
GBPS = 125_000_000.0


@dataclass(frozen=True)
class ClusterConfig:
    """Topology, speeds, and memory budgets of the simulated cluster."""

    num_workers: int = 6
    cores_per_worker: int = 12
    #: Peak double-precision FLOP/s of one core.
    flops_per_core: float = 2.0e9
    #: Bytes/second for each transmission primitive (the 1/w_pr of Eq. 5).
    broadcast_bytes_per_sec: float = GBPS
    shuffle_bytes_per_sec: float = 0.5 * GBPS
    collect_bytes_per_sec: float = GBPS
    dfs_bytes_per_sec: float = 0.65 * GBPS
    #: Fixed latency charged per transmission primitive invocation (job
    #: launch, scheduling). Keeps many tiny distributed ops from being free.
    primitive_latency_sec: float = 1.0e-3
    #: Driver (control-program) memory budget: operations whose operands and
    #: output all fit run locally, SystemDS-style hybrid execution.
    driver_memory_bytes: float = 2_000_000.0
    #: Largest operand the runtime will broadcast for a BMM.
    broadcast_limit_bytes: float = 500_000.0
    block_size: int = DEFAULT_BLOCK_SIZE
    #: Single-node mode: every operator runs locally with no transmission
    #: (the paper's Fig. 3(b) setting, "sufficient memory").
    single_node: bool = False

    def __post_init__(self) -> None:
        """Validate at construction: a bad knob raises :class:`ConfigError`
        here instead of producing NaN or negative simulated times deep in
        the cost model or runtime."""
        if self.num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.cores_per_worker < 1:
            raise ConfigError(
                f"cores_per_worker must be >= 1, got {self.cores_per_worker}")
        if not self.flops_per_core > 0.0:
            raise ConfigError(
                f"flops_per_core must be positive, got {self.flops_per_core}")
        for name in ("broadcast_bytes_per_sec", "shuffle_bytes_per_sec",
                     "collect_bytes_per_sec", "dfs_bytes_per_sec"):
            speed = getattr(self, name)
            if not speed > 0.0:
                raise ConfigError(f"{name} must be positive, got {speed}")
        if self.primitive_latency_sec < 0.0:
            raise ConfigError(
                f"primitive_latency_sec must be >= 0, got {self.primitive_latency_sec}")
        if not self.driver_memory_bytes >= 0.0:  # also rejects NaN
            raise ConfigError(
                f"driver_memory_bytes must be >= 0, got {self.driver_memory_bytes}")
        if not self.broadcast_limit_bytes >= 0.0:
            raise ConfigError(
                f"broadcast_limit_bytes must be >= 0, got {self.broadcast_limit_bytes}")
        if self.block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {self.block_size}")

    @property
    def cluster_flops(self) -> float:
        """Aggregate peak FLOP/s across workers (1/w_flop in Eq. 4)."""
        return self.num_workers * self.cores_per_worker * self.flops_per_core

    @property
    def driver_flops(self) -> float:
        """Peak FLOP/s of the driver node (local/CP execution)."""
        return self.cores_per_worker * self.flops_per_core

    def as_single_node(self) -> "ClusterConfig":
        """The same hardware collapsed to one node with ample memory."""
        return replace(self, single_node=True,
                       driver_memory_bytes=float("inf"),
                       num_workers=1)

    def primitive_speed(self, primitive: str) -> float:
        """Bytes/second for a named transmission primitive."""
        speeds = {
            "broadcast": self.broadcast_bytes_per_sec,
            "shuffle": self.shuffle_bytes_per_sec,
            "collect": self.collect_bytes_per_sec,
            "dfs": self.dfs_bytes_per_sec,
        }
        try:
            return speeds[primitive]
        except KeyError:
            raise ValueError(f"unknown transmission primitive {primitive!r}") from None


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the ReMac optimizer pipeline."""

    #: Sparsity estimator name: "metadata", "mnc", "densitymap", "sampling",
    #: or "exact" (testing oracle).
    estimator: str = "mnc"
    #: Elimination strategy: "adaptive" (cost-graph DP), "conservative",
    #: "aggressive", "all" (apply a maximal non-contradictory set), or
    #: "none".
    strategy: str = "adaptive"
    #: Search method for elimination options: "blockwise" (ReMac),
    #: "treewise" (baseline), "spores" (baseline), or "explicit"
    #: (SystemDS: identical subtrees only).
    search: str = "blockwise"
    #: Combiner for adaptive elimination: "dp" (ReMac) or "enum-dfs" /
    #: "enum-bfs" (brute force baselines).
    combiner: str = "dp"
    #: Safety cap on plans the tree-wise baseline may visit before raising
    #: SearchBudgetExceeded.
    treewise_plan_budget: int = 2_000_000
    #: Number of chain permutations the SPORES-like baseline samples.
    spores_sample_limit: int = 24
    #: mmchain fusion constraint: maximum columns of the middle matrix.
    spores_mmchain_col_limit: int = 1000
    #: Cap on options considered by the brute-force enumerator.
    enum_option_limit: int = 20
    #: Assumed loop iteration count when a loop does not specify one.
    default_iterations: int = 100
    #: Prefix for rewriter-generated temporaries. Replanning compiles the
    #: remaining program with a generation-specific prefix so fresh temps
    #: can never collide with live hoisted temporaries from an earlier plan.
    temp_prefix: str = "tREMAC"
    # -- compilation fast path (perf-only knobs; never change chosen plans) --
    #: Cache compiled plans keyed by a fingerprint of the program, input
    #: metadata/data, and all semantic config (opt out: False).
    plan_cache: bool = True
    #: Maximum number of compiled plans retained (LRU eviction).
    plan_cache_size: int = 64
    #: Memoize operator prices and sketch propagation within one compile.
    cost_memo: bool = True


@dataclass(frozen=True)
class ServerConfig:
    """Knobs for the multi-tenant compile/run server (``repro serve``).

    Admission control is two bounds checked before any work is queued:
    ``max_queue`` caps requests in flight across all tenants (queued or
    running, both stages), and ``tenant_quota`` caps one tenant's share of
    it. A request over either bound is rejected immediately with a
    429-style response carrying ``retry_after_seconds`` — backpressure is
    explicit, never an unbounded queue. Compile and execute stages run on
    separate worker pools so cheap plan-cache hits are never stuck behind
    slow cold compiles.
    """

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (reported once serving).
    port: int = 7763
    #: Max requests admitted concurrently across all tenants.
    max_queue: int = 64
    #: Max requests one tenant may have in flight at once.
    tenant_quota: int = 8
    #: Worker threads for the cold-compile stage.
    compile_workers: int = 2
    #: Worker threads for the execute stage.
    execute_workers: int = 2
    #: *Floor* for the client back-off carried by rejection responses; the
    #: advertised ``retry_after`` is computed from observed queue depth /
    #: token-bucket refill time and never drops below this.
    retry_after_seconds: float = 0.05
    #: Engine used when a request names none.
    default_engine: str = "remac"
    #: Capacity of the process-wide shared plan cache.
    plan_cache_size: int = 256
    #: Honour ``{"op": "shutdown"}`` / ``{"op": "drain"}`` from clients
    #: (local tooling default).
    allow_remote_shutdown: bool = True
    #: Server-side deadline applied to run/optimize requests that name none
    #: themselves (``deadline_seconds`` in the request overrides). ``None``
    #: means no default deadline: a request without one may run
    #: arbitrarily long.
    default_deadline_seconds: float | None = None
    #: Sustained per-tenant request rate (requests/second) enforced by a
    #: token bucket ahead of the in-flight quotas. ``None`` disables rate
    #: limiting (the in-flight bounds still apply).
    tenant_rate: float | None = None
    #: Token-bucket capacity: how many requests a tenant may burst above
    #: the sustained ``tenant_rate`` after idling.
    tenant_burst: float = 8.0
    #: Graceful drain: how long ``drain`` (or ``ServerHandle.stop``) lets
    #: in-flight requests finish before shedding them and stopping.
    drain_deadline_seconds: float = 30.0
    #: Largest request/response line accepted on the wire; an oversized
    #: frame gets a typed error response and the connection closes.
    max_frame_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.tenant_quota < 1:
            raise ConfigError(
                f"tenant_quota must be >= 1, got {self.tenant_quota}")
        if self.tenant_quota > self.max_queue:
            raise ConfigError(
                f"tenant_quota ({self.tenant_quota}) cannot exceed "
                f"max_queue ({self.max_queue})")
        for name in ("compile_workers", "execute_workers"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not self.retry_after_seconds >= 0.0:  # rejects NaN
            raise ConfigError(
                f"retry_after_seconds must be >= 0, "
                f"got {self.retry_after_seconds}")
        if self.plan_cache_size < 1:
            raise ConfigError(
                f"plan_cache_size must be >= 1, got {self.plan_cache_size}")
        if self.default_deadline_seconds is not None \
                and not self.default_deadline_seconds > 0.0:  # rejects NaN
            raise ConfigError(
                f"default_deadline_seconds must be positive or None, "
                f"got {self.default_deadline_seconds}")
        if self.tenant_rate is not None \
                and not self.tenant_rate > 0.0:  # rejects NaN
            raise ConfigError(
                f"tenant_rate must be positive or None, "
                f"got {self.tenant_rate}")
        if not self.tenant_burst >= 1.0:  # rejects NaN
            raise ConfigError(
                f"tenant_burst must be >= 1, got {self.tenant_burst}")
        if not self.drain_deadline_seconds >= 0.0:  # rejects NaN
            raise ConfigError(
                f"drain_deadline_seconds must be >= 0, "
                f"got {self.drain_deadline_seconds}")
        if self.max_frame_bytes < 1024:
            raise ConfigError(
                f"max_frame_bytes must be >= 1024, got {self.max_frame_bytes}")


DEFAULT_CLUSTER = ClusterConfig()
DEFAULT_OPTIMIZER = OptimizerConfig()
