"""Command-line interface: ``python -m repro <command>``.

Three commands:

* ``run`` — execute a built-in workload on a named dataset through any
  engine and print the timing/option summary::

      python -m repro run --engine remac --algorithm dfp --dataset cri2

* ``optimize`` — compile a user script and print the found options and the
  rewritten program (no execution)::

      python -m repro optimize my_script.dml --scalar i --scalar alpha \
          --input "A:10000x100:0.05" --input "x:100x1" --symmetric H ...

* ``serve`` — start the multi-tenant compile/run server (shared plan
  cache, request coalescing, admission control)::

      python -m repro serve --port 7763 --tenant-quota 8

* ``datasets`` — list the available datasets with their statistics.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .algorithms import ALGORITHMS, get_algorithm
from .bench.report import render_table
from .config import ClusterConfig, OptimizerConfig
from .core import ReMacOptimizer
from .data import ALL_DATASET_NAMES, load_dataset
from .engines import ENGINES, make_engine
from .errors import ReproError
from .lang import format_program, parse
from .matrix import MatrixMeta


def _parse_input_spec(spec: str) -> tuple[str, MatrixMeta]:
    """Parse 'NAME:RxC[:sparsity]' into (name, MatrixMeta)."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"input spec must be NAME:RxC[:sparsity], got {spec!r}")
    name = parts[0]
    try:
        rows_text, cols_text = parts[1].lower().split("x")
        rows, cols = int(rows_text), int(cols_text)
        sparsity = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad input spec {spec!r}: {error}")
    return name, MatrixMeta(rows, cols, sparsity)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ReMac (SIGMOD 2022) reproduction CLI")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a workload through an engine")
    run.add_argument("--engine", default="remac", choices=sorted(ENGINES))
    run.add_argument("--algorithm", default="dfp", choices=sorted(ALGORITHMS))
    run.add_argument("--dataset", default="cri2",
                     help=f"one of {', '.join(ALL_DATASET_NAMES)}")
    run.add_argument("--iterations", type=int, default=20)
    run.add_argument("--scale", type=float, default=0.5,
                     help="dataset row-count scale factor")
    run.add_argument("--estimator", default=None,
                     choices=["metadata", "mnc", "densitymap", "sampling",
                              "exact"])
    run.add_argument("--single-node", action="store_true")
    run.add_argument("--charge-partition", action="store_true",
                     help="include input-partition (ingest) time")
    run.add_argument("--repeat", type=int, default=1, metavar="N",
                     help="run the workload N times through one engine "
                          "(repeats after the first hit the plan cache)")
    run.add_argument("--no-plan-cache", action="store_true",
                     help="disable the compiled-plan cache")
    run.add_argument("--no-fusion", action="store_true",
                     help="disable cost-priced operator fusion (fused "
                          "element-wise regions and cost-gated mmchain); "
                          "fused and unfused runs produce bit-identical "
                          "result matrices — only simulated time, "
                          "transmission, and materialization metrics "
                          "differ")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record an operator-level execution trace and "
                          "write it to PATH as JSON, one span per line; "
                          "each operator span carries the chosen physical "
                          "impl, estimated vs observed nnz, and predicted "
                          "vs simulated cost, and a drift summary is "
                          "printed after the run")
    run.add_argument("--fault-seed", type=int, default=None, metavar="SEED",
                     help="inject a deterministic fault plan generated from "
                          "SEED (worker crashes, straggler windows, "
                          "transmission failures); the final results are "
                          "bit-identical to the fault-free run, only "
                          "simulated time and fault_*/recovery_* metrics "
                          "differ")
    run.add_argument("--fault-plan", default=None, metavar="PATH",
                     help="load an explicit fault plan from a JSON file "
                          "(see FaultPlan.dump); overrides --fault-seed")
    run.add_argument("--max-retries", type=int, default=None, metavar="N",
                     help="transmission retries before the run fails "
                          "(default 3)")
    run.add_argument("--checkpoint-every", type=int, default=None, metavar="K",
                     help="snapshot loop-carried variables every K "
                          "iterations and truncate lineage (0 = off)")
    run.add_argument("--replan-on-shrink", action="store_true",
                     help="after a crash shrinks the cluster, re-price the "
                          "remaining program for the surviving workers and "
                          "adopt the new plan when it is value-equivalent; "
                          "the final matrices stay bit-identical, only "
                          "simulated time and replan_* metrics change")

    optimize = sub.add_parser("optimize", help="compile a script, print plan")
    optimize.add_argument("script", help="path to a DML-like script file")
    optimize.add_argument("--input", action="append", default=[],
                          metavar="NAME:RxC[:sp]",
                          help="matrix input metadata (repeatable)")
    optimize.add_argument("--scalar", action="append", default=[],
                          help="names to parse as scalars (repeatable)")
    optimize.add_argument("--symmetric", action="append", default=[],
                          help="inputs known symmetric (repeatable)")
    optimize.add_argument("--iterations", type=int, default=20)
    optimize.add_argument("--strategy", default="adaptive",
                          choices=["adaptive", "conservative", "aggressive",
                                   "automatic", "none"])
    optimize.add_argument("--estimator", default="mnc")

    serve = sub.add_parser(
        "serve", help="start the multi-tenant compile/run server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7763,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="max requests in flight across all tenants")
    serve.add_argument("--tenant-quota", type=int, default=8,
                       help="max requests one tenant may have in flight")
    serve.add_argument("--compile-workers", type=int, default=2,
                       help="worker threads for the cold-compile stage")
    serve.add_argument("--execute-workers", type=int, default=2,
                       help="worker threads for the execute stage")
    serve.add_argument("--plan-cache-size", type=int, default=256,
                       help="capacity of the shared compiled-plan cache")
    serve.add_argument("--engine", default="remac", choices=sorted(ENGINES),
                       help="engine used when a request names none")
    serve.add_argument("--no-remote-shutdown", action="store_true",
                       help="ignore {'op': 'shutdown'} / {'op': 'drain'} "
                            "from clients")
    serve.add_argument("--default-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="server-side deadline for run/optimize requests "
                            "that name none; overdue requests get a typed "
                            "deadline_exceeded response (default: none)")
    serve.add_argument("--tenant-rate", type=float, default=None,
                       metavar="RPS",
                       help="sustained per-tenant request rate enforced by "
                            "a token bucket; rejections carry a computed "
                            "retry_after (default: unlimited)")
    serve.add_argument("--tenant-burst", type=float, default=None,
                       metavar="N",
                       help="token-bucket burst capacity above the "
                            "sustained --tenant-rate (default 8)")
    serve.add_argument("--drain-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="how long a drain lets in-flight requests "
                            "finish before shedding them (default 30)")
    serve.add_argument("--max-frame-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="largest request/response line accepted on the "
                            "wire (default 64 MiB)")

    sub.add_parser("datasets", help="list available datasets")
    return parser


def _optimizer_config(args) -> OptimizerConfig:
    """OptimizerConfig from run-command flags."""
    return OptimizerConfig(plan_cache=not args.no_plan_cache)


def _command_run(args) -> int:
    engine_kwargs = {}
    if args.estimator and args.engine.startswith("remac") \
            and args.engine == "remac":
        engine_kwargs["estimator"] = args.estimator
    engine_kwargs["optimizer_config"] = _optimizer_config(args)
    cluster = ClusterConfig()
    if args.single_node:
        cluster = cluster.as_single_node()
    dataset = load_dataset(args.dataset, scale=args.scale)
    algo = get_algorithm(args.algorithm)
    meta, data = algo.make_inputs(dataset.matrix)
    engine = make_engine(args.engine, cluster, **engine_kwargs)
    engine.with_fusion(not args.no_fusion)
    tracer = None
    if args.trace is not None:
        from .runtime.trace import ExecutionTracer
        tracer = ExecutionTracer()
    fault_plan = None
    if args.fault_plan is not None:
        from .cluster.faults import FaultPlan
        fault_plan = FaultPlan.load(args.fault_plan)
    elif args.fault_seed is not None:
        from .cluster.faults import FaultPlan
        fault_plan = FaultPlan.from_seed(args.fault_seed)
    recovery_config = None
    if args.max_retries is not None or args.checkpoint_every is not None:
        from .runtime.recovery import RecoveryConfig
        kwargs = {}
        if args.max_retries is not None:
            kwargs["max_retries"] = args.max_retries
        if args.checkpoint_every is not None:
            kwargs["checkpoint_every"] = args.checkpoint_every
        recovery_config = RecoveryConfig(**kwargs)
    repeat = max(1, args.repeat)
    result = None
    for index in range(repeat):
        result = engine.run(algo.program(args.iterations), meta, data,
                            symmetric=algo.symmetric_inputs,
                            iterations=args.iterations,
                            charge_partition=args.charge_partition,
                            tracer=tracer, fault_plan=fault_plan,
                            recovery_config=recovery_config,
                            replan=args.replan_on_shrink)
        if repeat > 1:
            outcome = result.notes.get("plan_cache", "off")
            print(f"run {index + 1}/{repeat}: compile "
                  f"{result.compile_wall_seconds * 1e3:.2f} ms "
                  f"(plan cache {outcome})")
    print(f"engine:    {args.engine}")
    print(f"workload:  {args.algorithm} on {args.dataset} "
          f"({dataset.shape[0]}x{dataset.shape[1]}, "
          f"sparsity {dataset.meta.sparsity:.4f})")
    print(f"compiled:  {result.compiled.describe()}")
    for option in result.compiled.applied_options:
        print(f"  applied {option}")
    phases = result.metrics.seconds_by_phase
    for phase in ("input_partition", "compilation", "computation",
                  "transmission"):
        if phases.get(phase):
            print(f"{phase:>15}: {phases[phase]:.4f} s (simulated)")
    print(f"{'execution':>15}: {result.execution_seconds:.4f} s (simulated)")
    cache_stats = engine.optimizer.plan_cache_stats
    if cache_stats is not None:
        print(f"{'plan cache':>15}: {cache_stats['hits']} hits, "
              f"{cache_stats['misses']} misses, "
              f"{cache_stats['evictions']} evictions")
        if repeat > 1:
            # Full counter snapshot (PlanCacheStats.as_dict) so repeated
            # runs expose coalescing alongside hits/misses/evictions.
            print(f"{'cache stats':>15}: {cache_stats}")
    else:
        print(f"{'plan cache':>15}: disabled")
    if tracer is not None:
        spans = tracer.write_jsonl(args.trace)
        operators = sum(1 for _ in tracer.operator_spans())
        print(f"{'trace':>15}: {spans} spans ({operators} operator) "
              f"-> {args.trace}")
        for row in tracer.drift_report()[:5]:
            target = row["target"] or "(condition)"
            print(f"  drift {row['drift_ratio']:8.3f}  "
                  f"{row['op']:<10} {target:<12} "
                  f"predicted {row['predicted_seconds']:.4f}s "
                  f"observed {row['observed_seconds']:.4f}s "
                  f"x{row['executions']}")
    faults = result.metrics.fault_summary
    if faults is not None:
        print(f"{'faults':>15}: "
              f"{int(faults.get('fault_worker_crashes', 0))} crashes, "
              f"{int(faults.get('fault_transmission_failures', 0))} failed "
              f"transmissions, "
              f"{int(faults.get('fault_straggler_events', 0))} straggler hits "
              f"({int(faults.get('recovery_active_workers', 0))} workers left)")
        recovery_seconds = (faults.get("recovery_retry_seconds", 0.0)
                            + faults.get("recovery_recompute_seconds", 0.0)
                            + faults.get("recovery_source_reread_seconds", 0.0)
                            + faults.get("recovery_repartition_seconds", 0.0)
                            + faults.get("recovery_checkpoint_seconds", 0.0)
                            + faults.get("fault_straggler_seconds", 0.0))
        print(f"{'recovery':>15}: "
              f"{int(faults.get('recovery_recomputed_blocks', 0))} blocks "
              f"recomputed, "
              f"{int(faults.get('recovery_checkpoints', 0))} checkpoints, "
              f"{recovery_seconds:.4f} s (simulated) on recovery")
    replans = result.metrics.replan_summary
    if replans is not None:
        print(f"{'replanning':>15}: "
              f"{int(replans.get('replan_triggers', 0))} triggers, "
              f"{int(replans.get('replan_adopted', 0))} adopted, "
              f"{int(replans.get('replan_no_change', 0))} unchanged, "
              f"{int(replans.get('replan_rejected', 0))} rejected "
              f"(generation {int(replans.get('replan_generation', 0))}, "
              f"{replans.get('replan_compile_seconds', 0.0):.4f} s "
              f"recompiling)")
    return 0


def _command_optimize(args) -> int:
    with open(args.script) as handle:
        source = handle.read()
    inputs = dict(_parse_input_spec(spec) for spec in args.input)
    for name in args.symmetric:
        if name in inputs:
            inputs[name] = inputs[name].with_symmetric(True)
    for name in args.scalar:
        inputs.setdefault(name, MatrixMeta(1, 1))
    program = parse(source, scalar_names=set(args.scalar),
                    max_iterations=args.iterations)
    missing = program.free_variables() - set(inputs)
    if missing:
        print(f"error: no metadata for inputs: {', '.join(sorted(missing))}",
              file=sys.stderr)
        return 2
    optimizer = ReMacOptimizer(
        ClusterConfig(), OptimizerConfig(strategy=args.strategy,
                                         estimator=args.estimator))
    compiled = optimizer.compile(program, inputs, iterations=args.iterations)
    print(f"# options found: {compiled.notes['options_found']}, "
          f"applied: {len(compiled.applied_options)}, "
          f"predicted cost: {compiled.estimated_cost:.4f} s")
    for option in compiled.applied_options:
        print(f"# applied {option}")
    print(format_program(compiled.program))
    return 0


def _command_serve(args) -> int:
    from .config import ServerConfig
    from .server import run_server

    server_kwargs = {}
    if args.default_deadline is not None:
        server_kwargs["default_deadline_seconds"] = args.default_deadline
    if args.tenant_rate is not None:
        server_kwargs["tenant_rate"] = args.tenant_rate
    if args.tenant_burst is not None:
        server_kwargs["tenant_burst"] = args.tenant_burst
    if args.drain_deadline is not None:
        server_kwargs["drain_deadline_seconds"] = args.drain_deadline
    if args.max_frame_bytes is not None:
        server_kwargs["max_frame_bytes"] = args.max_frame_bytes
    config = ServerConfig(
        host=args.host, port=args.port, max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        compile_workers=args.compile_workers,
        execute_workers=args.execute_workers,
        plan_cache_size=args.plan_cache_size,
        default_engine=args.engine,
        allow_remote_shutdown=not args.no_remote_shutdown,
        **server_kwargs)
    stats = run_server(config, ClusterConfig())
    counters = stats.get("counters", {})
    cache = stats.get("plan_cache", {})
    print(f"server stopped after {counters.get('completed', 0)} completed / "
          f"{counters.get('received', 0)} received requests")
    drain = stats.get("drain")
    if drain is not None:
        print(f"drain: {drain['completed_during_drain']} completed, "
              f"{drain['shed']} shed")
    print(f"plan cache: {cache}")
    return 0


def _command_datasets() -> int:
    rows = []
    for name in ALL_DATASET_NAMES:
        dataset = load_dataset(name, scale=0.1)
        stats = dataset.statistics()
        rows.append({"name": name, "rows(0.1x)": stats["rows"],
                     "cols": stats["cols"],
                     "sparsity": stats["sparsity"],
                     "description": dataset.description})
    print(render_table(rows, title="Available datasets"))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "optimize":
            return _command_optimize(args)
        if args.command == "serve":
            return _command_serve(args)
        return _command_datasets()
    except (ReproError, OSError) as error:  # OSError: a file not opened
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
