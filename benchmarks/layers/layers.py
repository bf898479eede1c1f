"""Which public callable belongs to which layer, and what a traced run
reports for it.

:func:`install` wraps each boundary below at the place the program looks
it up; :func:`summarise` turns the recorded spans and counts into the
per-layer metrics named in ``BENCHMARK.json``. Imported only inside the
per-workload interpreter.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import defaultdict

from spans import END, NAME, OP, START, Tracer
from stats import geomean, median

#: Metric <- the spans whose self time it sums (ms per operation).
SPAN_METRICS = {
    "lang.parse_ms": ("lang.parse",),
    "lang.check_program_ms": ("lang.check_program",),
    "core.sketch_inputs_ms": ("core.sketch_inputs",),
    "core.build_chains_ms": ("core.build_chains",),
    "core.search_ms": ("core.search",),
    "core.cost_graph_ms": ("core.cost_graph",),
    "core.probe_ms": ("core.probe",),
    "core.rewrite_ms": ("core.rewrite",),
    "core.evaluate_ms": ("core.evaluate",),
    "core.fusion_regions_ms": ("core.fusion_regions",),
    "core.compile_self_ms": ("core.compile", "core.choose_options"),
    "core.fingerprint_ms": ("core.fingerprint",),
    "core.plancache_probe_ms": ("core.plancache_probe", "core.cached_plan"),
    "engines.execute_self_ms": ("engines.execute",),
    "engines.compile_self_ms": ("engines.compile", "engines.make_engine"),
    "runtime.executor_self_ms": ("runtime.executor",),
    "runtime.kernels_self_ms": ("runtime.kernels",),
    "runtime.load_ms": ("runtime.load",),
    "runtime.fusion_plan_ms": ("runtime.fusion_plan",),
    "matrix.matmul_ms": ("matrix.matmul",),
    "matrix.ewise_ms": ("matrix.ewise",),
    "matrix.transpose_ms": ("matrix.transpose",),
    "matrix.convert_ms": ("matrix.convert",),
    "matrix.reduce_ms": ("matrix.reduce",),
    "cluster.transmit_ms": ("cluster.transmit",),
    "server.parse_request_ms": ("server.parse_request",),
    "server.submit_ms": ("server.submit",),
    "server.wire_ms": ("server.wire",),
    "server.digest_ms": ("server.digest",),
    "server.encode_ms": ("server.encode",),
    "server.decode_ms": ("server.decode",),
    "server.json_ms": ("server.json",),
}
#: Exact counts, summed over the items of one round.
COUNT_METRICS = (
    "core.rounds", "core.chain_coordinates", "core.search_windows",
    "core.options_found", "core.options_applied",
    "core.cost_graph_operators", "core.cost_graph_candidates",
    "runtime.ops_local", "runtime.ops_bmm", "runtime.ops_cpmm",
    "runtime.ops_distributed", "runtime.fused_regions",
    "matrix.calls", "cluster.transmissions", "cluster.sim_bytes",
    "cluster.sim_compute_s", "cluster.sim_transmission_s",
    "server.plan_cache_hits",
)
#: Per-operation figures read off the responses (the server's own stage
#: timers, and the line length, which varies with the digits they print).
RESPONSE_METRICS = ("server.queue_ms", "server.compile_ms",
                    "server.execute_ms", "server.response_bytes")


def install(tracer: Tracer, counts: dict) -> None:
    """Wrap every layer boundary. ``counts[op][name]`` collects the counts
    taken at those boundaries, keyed by the operation in flight."""
    import repro.cluster.network as network
    import repro.core.cost.evaluate as evaluate
    import repro.core.cost.model as model
    import repro.core.enumerate as enumerate_
    import repro.core.optimizer as optimizer
    import repro.core.plancache as plancache
    import repro.core.strategies as strategies
    import repro.engines as engines
    import repro.engines.base as engines_base
    import repro.engines.session as session
    import repro.lang.parser as parser
    import repro.matrix.blocked as blocked
    import repro.matrix.fused as fused
    import repro.runtime.executor as executor
    import repro.runtime.fusion as fusion
    import repro.runtime.physical as physical
    import repro.server.client as client
    import repro.server.net as net
    import repro.server.protocol as protocol
    import repro.server.service as service
    # ``repro.core.probe`` the attribute is the function of that name.
    probe = importlib.import_module("repro.core.probe")

    def count(name, value_of):
        def on_return(result, args):
            counts[tracer.op][name] += value_of(result, args)
        return on_return

    patch = tracer.patch
    patch(parser, "parse", "lang.parse")
    patch(optimizer, "check_program", "lang.check_program")

    patch(optimizer.ReMacOptimizer, "compile", "core.compile")
    patch(optimizer.ReMacOptimizer, "cached_plan", "core.cached_plan")
    patch(model.CostModel, "sketch_of", "core.sketch_inputs")
    patch(optimizer, "build_chains", "core.build_chains",
          count("core.chain_coordinates",
                lambda chains, args: chains.total_coordinates))
    patch(optimizer, "blockwise_search", "core.search",
          count("core.search_windows",
                lambda found, args: found.windows_visited))
    patch(optimizer, "choose_options", "core.choose_options",
          count("core.rounds", lambda chosen, args: 1))
    patch(strategies, "probe", "core.probe")
    patch(probe, "statement_sketch_envs", "core.cost_graph")
    # One operator per (i, k, j) split of every chain site, one candidate
    # cost per operator that produces an option occurrence's span: the
    # sizes repro.core.costgraph.build_cost_graph would report.
    patch(probe, "build_all_tables", "core.cost_graph",
          count("core.cost_graph_operators",
                lambda tables, args: sum(len(table.op_cost)
                                         for table in tables.values())))
    patch(probe, "cost_option", "core.cost_graph",
          count("core.cost_graph_candidates",
                lambda costing, args: sum(
                    occurrence.span[1] - occurrence.span[0]
                    for occurrence in costing.option.occurrences)))
    patch(optimizer, "rewrite_program", "core.rewrite")
    patch(evaluate.ProgramCostEvaluator, "evaluate", "core.evaluate")
    patch(enumerate_, "enumerate_fusion_regions", "core.fusion_regions")
    patch(optimizer, "plan_fingerprint", "core.fingerprint")
    patch(plancache.PlanCache, "probe", "core.plancache_probe")

    patch(engines, "make_engine", "engines.make_engine")
    for owner in (engines_base.Engine, session.Session):
        patch(owner, "compile", "engines.compile")
        patch(owner, "cached_plan", "engines.compile")
        patch(owner, "execute", "engines.execute")

    patch(executor.Executor, "run", "runtime.executor")
    patch(physical.Kernels, "load", "runtime.load")
    for method in ("from_scalar", "matmul", "mmchain", "fused_ewise", "add",
                   "subtract", "multiply", "divide", "negate", "transpose",
                   "aggregate_sum", "aggregate_norm", "aggregate_trace",
                   "map_cells", "structural", "persist"):
        patch(physical.Kernels, method, "runtime.kernels")
    for function in ("find_ewise_region", "plan_fused_ewise",
                     "mmchain_beats_unfused"):
        patch(fusion, function, "runtime.fusion_plan")

    matrix = blocked.BlockedMatrix
    patch(matrix, "matmul", "matrix.matmul")
    patch(matrix, "transpose", "matrix.transpose")
    for method in ("add", "subtract", "multiply", "divide", "scale",
                   "negate", "add_scalar", "map_cells"):
        patch(matrix, method, "matrix.ewise")
    patch(fused, "evaluate_fused_ewise", "matrix.ewise")
    for method in ("from_numpy", "from_scipy", "from_any", "to_numpy"):
        patch(matrix, method, "matrix.convert")
    for method in ("sum", "row_sums", "col_sums", "diagonal"):
        patch(matrix, method, "matrix.reduce")

    patch(network.Network, "transmit", "cluster.transmit")

    patch(service.OptimizerService, "submit", "server.submit")
    patch(protocol, "parse_request", "server.parse_request")
    patch(protocol, "array_digest", "server.digest")
    patch(protocol, "encode_array", "server.encode")
    patch(protocol, "decode_array", "server.decode")
    # The wire modules call json.dumps / json.loads through their own
    # ``json`` global; hand each a stand-in whose two calls are spans.
    tracer.replace(client, "json", types.SimpleNamespace(
        dumps=tracer.wrap(json.dumps, "server.json"),
        loads=tracer.wrap(json.loads, "server.json"),
        JSONDecodeError=json.JSONDecodeError))
    tracer.replace(net, "json", types.SimpleNamespace(
        dumps=tracer.wrap(json.dumps, "server.json",
                          count("server.response_bytes",
                                lambda line, args: len(line) + 1)),
        loads=tracer.wrap(json.loads, "server.json"),
        JSONDecodeError=json.JSONDecodeError))


def summarise(tracer: Tracer, counts: dict, rounds: int, items: int,
              root_span: str, speed: float) -> tuple[dict[str, float], list[str]]:
    """(per-layer metrics, inexact counts) of ``rounds`` traced rounds whose
    operations are numbered ``0 .. rounds * items - 1`` in run order.
    ``speed`` turns wall into reference milliseconds (see ``child.py``)."""
    own = tracer.self_times()
    self_seconds = [defaultdict(float) for _ in range(rounds)]
    totals = [defaultdict(float) for _ in range(rounds)]
    wall = [0.0] * rounds
    for record, own_seconds in zip(tracer.spans, own):
        if not 0 <= record[OP] < rounds * items:
            continue
        index = record[OP] // items
        name = record[NAME]
        self_seconds[index][name] += own_seconds
        if name == root_span:
            wall[index] += record[END] - record[START]
        elif name == "core.choose_options":
            totals[index]["core.choose_options"] += \
                record[END] - record[START]
        elif name.startswith("matrix."):
            totals[index]["matrix.calls"] += 1
        elif name == "cluster.transmit":
            totals[index]["cluster.transmissions"] += 1
    for op, observed in counts.items():
        if 0 <= op < rounds * items:
            for name, value in observed.items():
                totals[op // items][name] += value

    def per_operation(values, scale: float = speed) -> float:
        return median(values) / items * scale

    metrics = {metric: per_operation(
                   [sum(seconds[name] for name in names) * 1e3
                    for seconds in self_seconds])
               for metric, names in SPAN_METRICS.items()}
    # Inclusive, unlike its neighbours: the whole adaptive strategy (cost
    # graph + probing DP), which is what a faster combiner would shrink.
    metrics["core.choose_options_ms"] = per_operation(
        [total["core.choose_options"] * 1e3 for total in totals])
    for metric in RESPONSE_METRICS:
        metrics[metric] = per_operation(
            [total[metric] for total in totals],
            speed if metric.endswith("_ms") else 1.0)
    inexact = []
    for metric in COUNT_METRICS:
        values = [total[metric] for total in totals]
        metrics[metric] = values[-1]
        if len(set(values)) > 1:
            inexact.append(metric)

    def ratio(part: str, whole: str) -> float:
        denominator = sum(total[whole] for total in totals)
        return sum(total[part] for total in totals) / denominator \
            if denominator else 0.0

    metrics["core.cost_memo_hit_ratio"] = ratio("cost_memo.hits",
                                                "cost_memo.lookups")
    metrics["core.plancache_hit_ratio"] = ratio("server.plan_cache_hits",
                                                "plancache.lookups")
    # What no wrapped callable accounts for is the root span's own self
    # time: harness glue on the direct workloads; on the served ones the
    # client round trip outside every named span (socket, framing, loop
    # wake-ups, thread hand-overs), which is also ``server.wire_ms``.
    metrics["trace.unattributed_ms"] = per_operation(
        [seconds[root_span] * 1e3 for seconds in self_seconds])
    metrics["trace.coverage_share"] = median(
        1.0 - seconds[root_span] / elapsed
        for seconds, elapsed in zip(self_seconds, wall))
    return metrics, inexact


def matrix_overheads(seed: int) -> dict[str, float]:
    """Blocked call over one raw NumPy/SciPy call on the same operands:
    geometric mean over a thin-dense and a sparse-fat operand pair."""
    import numpy as np
    from repro.data import load_dataset
    from repro.matrix.blocked import BlockedMatrix

    def best(function, repeats: int = 5) -> float:
        timings = []
        for _ in range(repeats):
            started = time.perf_counter()
            function()
            timings.append(time.perf_counter() - started)
        return min(timings)

    rng = np.random.default_rng(seed)
    matmul, ewise = [], []
    for dataset in ("cri1", "red3"):
        left = load_dataset(dataset, seed=seed, scale=0.5).matrix
        right = rng.random((left.shape[1], 16))
        blocked_left = BlockedMatrix.from_any(left)
        blocked_right = BlockedMatrix.from_numpy(right)
        matmul.append(best(lambda: blocked_left.matmul(blocked_right))
                      / best(lambda: left @ right))
        ewise.append(best(lambda: blocked_left.add(blocked_left))
                     / best(lambda: left + left))
    return {"matrix.matmul_overhead_x": geomean(matmul),
            "matrix.ewise_overhead_x": geomean(ewise)}
