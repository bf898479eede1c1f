"""The ReMac optimizer: compiler -> optimizer -> plan pipeline (Fig. 7).

:class:`ReMacOptimizer` strings the whole system together:

1. **Parser/compiler** — a parsed :class:`~repro.lang.program.Program` is
   normalized and split into coordinate blocks (:mod:`repro.core.chains`).
2. **Searcher** — the block-wise search (or a configured baseline) finds
   CSE and LSE options (:mod:`repro.core.search` et al.).
3. **Adapter + cost graph** — the chosen strategy evaluates options with
   the cost model and picks the efficient combination
   (:mod:`repro.core.strategies`, :mod:`repro.core.probe`).
4. **Plan generator** — the rewriter materializes the plan as an ordinary
   program with hoisted/shared temporaries (:mod:`repro.core.rewrite`).

The result is a :class:`~repro.runtime.plan.CompiledProgram` ready for any
executor; swapping the runtime is how the paper migrates ReMac to other
engines.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

from ..config import ClusterConfig, OptimizerConfig
from ..errors import OptimizerError
from ..lang.program import Program
from ..lang.typecheck import Environment, check_program
from ..runtime.hybrid import ExecutionPolicy
from ..runtime.plan import CompiledProgram
from .chains import build_chains
from .cost.evaluate import prepare_records
from .cost.model import CostModel
from .plancache import (DataTokens, InputSketchMemo, PlanCache,
                        plan_fingerprint, settings_text)
from .rewrite import rewrite_program
from .search import blockwise_search, explicit_cse_options
from .sparsity import make_estimator
from .spores import spores_search
from .strategies import choose_options
from .treewise import treewise_search


class _InflightCompile:
    """One cold compile in progress: followers wait instead of racing it."""

    __slots__ = ("event", "result", "error", "followers")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: CompiledProgram | None = None
        self.error: BaseException | None = None
        self.followers = 0


class ReMacOptimizer:
    """End-to-end redundancy-elimination optimizer.

    Repeated compiles are served by a *compilation fast path*: a plan cache
    keyed by a fingerprint of everything the plan depends on (warm compiles
    skip the pipeline entirely), plus memoized sketch propagation and
    operator pricing on the cold path. Both layers are perf-only: with them
    disabled or enabled, the chosen plans and predicted costs are identical.

    The optimizer is safe to share across threads (the serving deployment:
    one warm optimizer, N tenants). Concurrent compiles of the *same*
    fingerprint are single-flighted: the first caller runs the cold
    pipeline, every concurrent duplicate blocks on its result and is
    counted as ``coalesced`` — so N simultaneous submissions of one
    workload cost exactly one compile. A shared :class:`InputSketchMemo`
    additionally lets *near-miss* compiles (same resident inputs, different
    program) skip re-sketching the data.

    ``plan_cache`` optionally injects an existing (typically process-wide,
    shared across engines) cache instead of building a private one;
    fingerprints embed the cluster, config, and policy, so distinct engines
    can never collide in a shared cache.
    """

    def __init__(self, cluster: ClusterConfig | None = None,
                 config: OptimizerConfig | None = None,
                 policy: ExecutionPolicy | None = None,
                 plan_cache: PlanCache | None = None):
        self.cluster = cluster or ClusterConfig()
        self.config = config or OptimizerConfig()
        self.policy = policy or ExecutionPolicy.systemds()
        # The three above are frozen and fixed for this optimizer's life (a
        # new policy means a new optimizer), so their part of every
        # fingerprint is rendered here, once.
        self._settings_text = settings_text(self.config, self.cluster,
                                            self.policy)
        #: Compiled-plan LRU (None when disabled via config.plan_cache).
        self.plan_cache: PlanCache | None = plan_cache if plan_cache is not None \
            else (PlanCache(self.config.plan_cache_size)
                  if self.config.plan_cache else None)
        #: Cross-compile input-sketch memo (shared state like the cache).
        self.sketch_memo = InputSketchMemo()
        self._own_tokens = DataTokens()
        self._inflight: dict[str, _InflightCompile] = {}
        self._inflight_lock = threading.Lock()

    @property
    def plan_cache_stats(self) -> dict[str, int] | None:
        """Hit/miss/eviction/coalesce counters, or None when disabled."""
        if self.plan_cache is None:
            return None
        return self.plan_cache.stats_dict()

    def adopt_plan_cache(self, cache: PlanCache | None) -> "ReMacOptimizer":
        """Swap in a (shared) plan cache; returns self for chaining."""
        self.plan_cache = cache
        return self

    @property
    def _data_tokens(self) -> DataTokens:
        """Identity tokens for bound input data (cache's registry when on)."""
        if self.plan_cache is not None:
            return self.plan_cache.data_tokens
        return self._own_tokens

    def _fingerprint(self, program: Program, inputs: Environment,
                     input_data: dict | None, iterations: int | None) -> str:
        return plan_fingerprint(
            program, inputs, self._settings_text, iterations=iterations,
            input_data=input_data, tokens=self._data_tokens)

    def _warm_copy(self, hit: CompiledProgram, outcome: str,
                   started: float) -> CompiledProgram:
        """A cached plan re-badged for one caller (hit or coalesced)."""
        notes = dict(hit.notes)
        notes["plan_cache"] = outcome
        notes["plan_cache_stats"] = self.plan_cache.stats_dict()
        # A warm compile re-collects no estimator statistics.
        notes["stats_collection_seconds"] = 0.0
        return replace(hit, notes=notes,
                       compile_seconds=time.perf_counter() - started)

    def cached_plan(self, program: Program, inputs: Environment,
                    input_data: dict | None = None,
                    iterations: int | None = None) -> CompiledProgram | None:
        """The cached plan for this exact compile, or None — never compiles.

        The server's admission path uses this cheap probe to route warm
        requests straight to execution instead of queueing them behind
        slow cold compiles. A present plan counts as a hit; absence counts
        nothing (the eventual ``compile()`` will record the miss).
        """
        if self.plan_cache is None:
            return None
        started = time.perf_counter()
        key = self._fingerprint(program, inputs, input_data, iterations)
        hit = self.plan_cache.probe(key)
        if hit is None:
            return None
        return self._warm_copy(hit, "hit", started)

    def compile(self, program: Program, inputs: Environment,
                input_data: dict | None = None,
                iterations: int | None = None) -> CompiledProgram:
        """Compile ``program`` into an optimized, executable plan.

        ``inputs`` maps input names to metadata; ``input_data`` optionally
        provides the actual matrices so data-dependent estimators (MNC,
        sampling, density map) can sketch real structure.
        """
        started = time.perf_counter()
        if self.plan_cache is None:
            return self._compile_cold(program, inputs, input_data, iterations,
                                      started)
        cache_key = self._fingerprint(program, inputs, input_data, iterations)
        # Single-flight: under one lock, either find the plan, join an
        # in-flight compile of the same fingerprint, or become the leader.
        with self._inflight_lock:
            hit = self.plan_cache.probe(cache_key)
            if hit is None:
                record = self._inflight.get(cache_key)
                if record is None:
                    record = _InflightCompile()
                    self._inflight[cache_key] = record
                    self.plan_cache.note_miss()
                    leader = True
                else:
                    record.followers += 1
                    self.plan_cache.note_coalesced()
                    leader = False
        if hit is not None:
            return self._warm_copy(hit, "hit", started)
        if not leader:
            record.event.wait()
            if record.error is not None:
                raise record.error
            return self._warm_copy(record.result, "coalesced", started)
        try:
            compiled = self._compile_cold(program, inputs, input_data,
                                          iterations, started)
        except BaseException as error:
            with self._inflight_lock:
                self._inflight.pop(cache_key, None)
            record.error = error
            record.event.set()
            raise
        self.plan_cache.put(cache_key, compiled)
        with self._inflight_lock:
            self._inflight.pop(cache_key, None)
        record.result = compiled
        record.event.set()
        compiled.notes["plan_cache"] = "miss"
        compiled.notes["plan_cache_stats"] = self.plan_cache.stats_dict()
        return compiled

    def _compile_cold(self, program: Program, inputs: Environment,
                      input_data: dict | None, iterations: int | None,
                      started: float) -> CompiledProgram:
        """The full optimization pipeline (no plan-cache shortcut)."""
        check_program(program, inputs)  # fail fast on shape errors
        estimator = make_estimator(self.config.estimator)
        model = CostModel(self.cluster, estimator, self.policy,
                          memoize=self.config.cost_memo)
        sketches = self._sketch_inputs(model, inputs, input_data)

        # Adaptive elimination iterates to a fixpoint: once an option is
        # applied, its temporary's defining chain can expose follow-up
        # redundancy (e.g. after the DFP numerator's implicit CSE collapses
        # to an outer product, AᵀA resurfaces as a loop-constant chain in
        # the temp definition and gets hoisted in the next round). Fixed
        # strategies run a single round, matching their §6.3.1 definitions.
        max_rounds = 3 if self.config.strategy == "adaptive" else 1
        rewritten = program
        applied = []
        rejected = []
        found_total = 0
        search_notes: dict = {}
        rounds: list[dict] = []
        strategy_name = self.config.strategy
        chains = build_chains(rewritten, inputs, iterations)
        for round_index in range(max_rounds):
            options, round_notes = self._search(chains)
            if round_index == 0:
                search_notes = round_notes
                found_total = len(options)
            else:
                found_total += len(options)
            strategy = choose_options(self.config.strategy, chains, model,
                                      options, sketches, self.config)
            strategy_name = strategy.strategy
            rounds.append({"options": len(options),
                           "chosen": len(strategy.chosen), **strategy.notes})
            if round_index == 0:
                chosen_ids = {o.option_id for o in strategy.chosen}
                rejected = [o for o in options if o.option_id not in chosen_ids]
            if not strategy.chosen and round_index > 0:
                break
            rewritten = rewrite_program(
                chains, strategy.chosen, model, sketches,
                temp_prefix=f"{self.config.temp_prefix}{round_index}_")
            applied.extend(strategy.chosen)
            if not strategy.chosen:
                break
            chains = build_chains(rewritten, inputs, iterations)

        # The plan's records are prepared once, here: the final evaluation
        # prices the records the executor will run, decides each fusion,
        # writes each operator's predicted price onto its record (the
        # execution tracer reads it to report predicted-vs-observed drift)
        # and reports each fusion decision. Recording is pure observation:
        # the evaluated cost is identical with or without it.
        lowered: dict = {}
        cost = prepare_records(model, rewritten, inputs, lowered, sketches,
                               iterations=chains.iterations)
        fusion_notes = None
        if self.policy.fuse:
            from .enumerate import enumerate_fusion_regions
            fusion_notes = enumerate_fusion_regions(cost.regions)
        compile_seconds = time.perf_counter() - started
        return CompiledProgram(
            program=rewritten,
            lowered=lowered,
            applied_options=applied,
            rejected_options=rejected,
            estimated_cost=cost.total_seconds,
            compile_seconds=compile_seconds,
            notes={
                "search": self.config.search,
                "strategy": strategy_name,
                "estimator": estimator.name,
                "combiner": self.config.combiner,
                "options_found": found_total,
                "stats_collection_seconds": model.stats_collection_seconds,
                "strategy_notes": strategy.notes,
                "rounds": rounds,
                "cost_memo": model.memo_stats if self.config.cost_memo else None,
                "fusion": fusion_notes,
                **search_notes,
            })

    # ------------------------------------------------------------------
    def _sketch_inputs(self, model, inputs: Environment,
                       input_data: dict | None) -> dict:
        """Sketch program inputs through the cross-compile memo.

        Keys mirror the fingerprint's input lines — estimator name, data
        identity token, metadata, symmetric flag — so a memo hit is exactly
        a re-sketch of data the optimizer has already sketched. Memo hits
        skip statistics collection (the model never sees the input), the
        same accounting a plan-cache hit reports.
        """
        data = input_data or {}
        tokens = self._data_tokens
        sketches: dict = {}
        for name, meta in inputs.items():
            symmetric = getattr(meta, "symmetric", False)
            key = (self.config.estimator, tokens.token(data.get(name)),
                   meta, symmetric)
            sketch = self.sketch_memo.lookup(key)
            if sketch is None:
                sketch = model.sketch_of(data.get(name), meta,
                                         symmetric=symmetric)
                self.sketch_memo.store(key, sketch)
            sketches[name] = sketch
        return sketches

    # ------------------------------------------------------------------
    def _search(self, chains):
        name = self.config.search
        if name == "blockwise":
            result = blockwise_search(chains)
            return result.options, {"search_seconds": result.wall_seconds,
                                    "windows": result.windows_visited}
        if name == "explicit":
            options = explicit_cse_options(chains)
            return options, {}
        if name == "treewise":
            result = treewise_search(chains,
                                     plan_budget=self.config.treewise_plan_budget)
            return result.options, {"search_seconds": result.wall_seconds,
                                    "plans_visited": result.plans_visited,
                                    "plans_total": result.plans_total,
                                    "budget_exceeded": result.budget_exceeded}
        if name == "spores":
            result = spores_search(chains,
                                   sample_limit=self.config.spores_sample_limit)
            return result.options, {"search_seconds": result.wall_seconds,
                                    "sampled_plans": result.sampled_plans}
        raise OptimizerError(f"unknown search method {name!r}")
