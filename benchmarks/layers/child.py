"""One workload in one fresh interpreter; ``run.py`` starts it.

Sets the workload up, warms it, times it for ``--seconds`` with tracing
off, optionally times it again with the layers wrapped, then checks the
outputs the timed loop produced. Prints one JSON object as its last line
of output. Host-probe readings come from the process ``run.py`` started
(``probe.py``), over the two descriptors named by ``--probe``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import sys
import time
from collections import defaultdict

from probe import REFERENCE_PROBE_SECONDS, HostProbe
from stats import geomean, median, percentile

MIN_ROUNDS = 5
SMOKE_ROUNDS = 2
SMOKE_WARMUP_ROUNDS = 1
#: Share of ``--seconds`` a traced run spends untraced, for the overhead.
UNTRACED_SHARE = 0.4
DIRECT_PAIR_REPEATS = 10


def measure(workload, probe, seconds, rounds, tracer=None, counts=None):
    """Run timed rounds: for ``seconds`` (at least MIN_ROUNDS), or exactly
    ``rounds`` when that is given. Returns the series — per round, each
    item's wall latency, the round's wall seconds from its first
    operation's start to its last one's end, and the host speed around
    it — the signatures seen per item, the last result per item, and the
    errors. Probe readings are taken between rounds only."""
    from workloads import CheckFailure

    items = len(workload.labels)
    began_at, round_walls, walls = [], [], []
    signatures = [set() for _ in range(items)]
    last, errors = {}, []
    deadline = time.perf_counter() + (seconds or 0.0)

    def more(done: int) -> bool:
        if rounds is not None:
            return done < rounds
        return done < MIN_ROUNDS or time.perf_counter() < deadline

    first_reading = len(probe.seconds)
    probe.take()
    while more(len(walls)):
        round_index = len(walls)
        elapsed = [0.0] * items
        for slot, position in enumerate(workload.order(round_index)):
            op = round_index * items + slot
            started = time.perf_counter()
            try:
                if tracer is None:
                    result = workload.operate(position, round_index)
                else:
                    with tracer.operation(op, workload.root_span):
                        result = workload.operate(position, round_index)
                failure = None
            except Exception as error:  # a failed operation, counted below
                failure = error
            ended = time.perf_counter()
            elapsed[position] = ended - started
            if slot == 0:
                began_at.append(started)
            try:
                if failure is not None:
                    raise failure
                signatures[position].add(
                    workload.signature(position, result))
                if counts is not None:
                    for name, value in workload.observe(position,
                                                        result).items():
                        counts[op][name] += value
                last[position] = result
            except Exception as error:
                kind = "check" if isinstance(error, CheckFailure) \
                    else type(error).__name__
                errors.append(f"{workload.labels[position]}: {kind}: {error}")
        round_walls.append(ended - began_at[-1])
        walls.append(elapsed)
        if probe.due():
            probe.take()
    probe.take()
    series = {"wall_latency_s": walls, "round_wall_s": round_walls,
              "speed_x": [probe.speed(began) for began in began_at],
              "probe_s": probe.seconds[first_reading:]}
    return series, signatures, last, errors


def item_medians_ms(latencies) -> list[float]:
    return [median(row[position] for row in latencies) * 1e3
            for position in range(len(latencies[0]))]


def reference_latencies(series) -> list[list[float]]:
    """Per round, each item's latency in reference seconds."""
    return [[wall * speed for wall in elapsed]
            for elapsed, speed in zip(series["wall_latency_s"],
                                      series["speed_x"])]


def round_seconds(series) -> list[float]:
    """Reference seconds each round took."""
    return [wall * speed for wall, speed in zip(series["round_wall_s"],
                                                series["speed_x"])]


def end_to_end(workload, series) -> dict:
    """The latency and throughput figures of one untraced series."""
    items = len(workload.labels)
    latencies = reference_latencies(series)
    per_item = item_medians_ms(latencies)
    pooled = [latency * 1e3 for row in latencies for latency in row]
    return {
        "latency_ms_p50": geomean(per_item),
        "latency_ms_p90": percentile(pooled, 90),
        "ops_per_s": median(items / seconds
                            for seconds in round_seconds(series)),
        "item_latency_ms_p50": dict(zip(workload.labels, per_item)),
    }


def served_over_direct(workload) -> float:
    pair = workload.direct_pair()
    if pair is None:
        return 0.0
    medians = []
    for operation in pair:
        operation()
        timings = []
        for _ in range(DIRECT_PAIR_REPEATS):
            started = time.perf_counter()
            operation()
            timings.append(time.perf_counter() - started)
        medians.append(median(timings))
    return medians[0] / medians[1]


def trace(workload, probe, args, seconds, rounds, untraced, phases, errors):
    """The traced phase. Returns (per-layer metrics, signatures per item,
    last result per item, operations attempted); appends to ``errors``."""
    import layers
    from spans import Tracer
    from workloads import SETUP_PHASES

    tracer = Tracer()
    counts = defaultdict(lambda: defaultdict(float))
    layers.install(tracer, counts)
    replaced = tracer.patched()
    try:
        series, signatures, last, traced_errors = measure(
            workload, probe, seconds, rounds, tracer, counts)
    finally:
        tracer.restore()
    errors += traced_errors
    errors += [f"{getattr(owner, '__name__', owner)}.{attribute} was not "
               f"restored" for owner, attribute, original in replaced
               if inspect.getattr_static(owner, attribute) is not original]
    traced_rounds = len(series["round_wall_s"])
    per_layer, inexact = layers.summarise(
        tracer, counts, traced_rounds, len(workload.labels),
        workload.root_span,
        speed=REFERENCE_PROBE_SECONDS / median(series["probe_s"]))
    errors += [f"count {name} differs between rounds" for name in inexact]
    base = median(round_seconds(untraced))
    per_layer["trace.overhead_share"] = \
        (median(round_seconds(series)) - base) / base
    per_layer["server.served_over_direct_x"] = served_over_direct(workload)
    per_layer["server.rejected"] = workload.rejected()
    per_layer.update(layers.matrix_overheads(args.seed))
    for name in SETUP_PHASES:
        per_layer[f"setup.{name}_s"] = phases.seconds[name]
    if args.spans:
        tracer.write_jsonl(args.spans)
    return per_layer, signatures, last, traced_rounds * len(workload.labels)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, required=True,
                        help="CPU to pin to: the probe process's")
    parser.add_argument("--probe", type=int, nargs=2, required=True,
                        metavar=("REQUEST_FD", "REPLY_FD"))
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() just before this interpreter "
                             "was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help=f"time exactly {SMOKE_ROUNDS} rounds after "
                             f"{SMOKE_WARMUP_ROUNDS} of warm-up")
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the NumPy reference runs of the output "
                             "check (second smoke run)")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    # One closed-loop caller never has two threads runnable at once, so one
    # CPU loses nothing; and a served request then hands over between
    # client, event loop and pool thread without waking a halted vCPU,
    # which on this host costs 0.3 ms a request whenever the scheduler
    # happens to spread the threads (0.33 -> 0.65 ms for minutes at a time).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {args.cpu})
    probe = HostProbe(*args.probe)
    probe.take()

    import platform

    import numpy
    import scipy

    import workloads  # repro

    phases = workloads.Phases()
    phases.seconds["import"] = time.time() - args.started
    probe.take()
    workload = workloads.WORKLOADS[args.workload](args.seed, phases)
    try:
        probe.take()
        rounds = SMOKE_ROUNDS if args.smoke else None
        with phases("warmup"):
            _, _, _, errors = measure(
                workload, probe, None,
                SMOKE_WARMUP_ROUNDS if args.smoke else workloads.WARMUP_ROUNDS)
        if errors:
            raise RuntimeError(f"warm-up failed: {errors[0]}")
        wall_setup_s = time.time() - args.started
        report = {
            "workload": workload.name, "seed": args.seed,
            "no_reference": args.no_reference,
            "items": list(workload.labels),
            "setup_s": wall_setup_s * REFERENCE_PROBE_SECONDS
            / median(probe.seconds),
            "setup_phases_s": dict(phases.seconds),
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "pinned_cpu": args.cpu},
        }
        if args.setup_only:
            print(json.dumps(report, allow_nan=False))
            return 0

        untraced_seconds = args.seconds * (UNTRACED_SHARE if args.trace
                                           else 1.0)
        series, signatures, last, errors = measure(
            workload, probe, untraced_seconds, rounds)
        attempted = len(series["round_wall_s"]) * len(workload.labels)
        report["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report.update(end_to_end(workload, series))
        report["rounds"] = len(series["round_wall_s"])
        report["round_ms"] = [seconds * 1e3
                              for seconds in round_seconds(series)]
        reading = median(series["probe_s"])
        host = {"host.probe_ms": reading * 1e3,
                "host.speed_x": REFERENCE_PROBE_SECONDS / reading,
                "host.wall_latency_ms_p50": geomean(
                    item_medians_ms(series["wall_latency_s"])),
                "host.wall_setup_s": wall_setup_s}
        report["host"] = host

        if args.trace:
            per_layer, traced_signatures, traced_last, operations = trace(
                workload, probe, args, args.seconds - untraced_seconds,
                rounds, series, phases, errors)
            attempted += operations
            for ours, theirs in zip(signatures, traced_signatures):
                ours |= theirs
            errors += [f"{label}: traced and untraced outputs differ"
                       for position, label in enumerate(workload.labels)
                       if position in last and position in traced_last
                       and workload.digest(position, last[position])
                       != workload.digest(position, traced_last[position])]
            report["per_layer"] = {**per_layer, **host}

        for label, seen in zip(workload.labels, signatures):
            if len(seen) > 1:
                errors.append(f"{label}: results differ between operations")
        sim_execution_s = 0.0
        if len(last) == len(workload.labels):
            failures, sim_execution_s = workload.check(
                last, reference=not args.no_reference)
            errors += failures
        report["sim_execution_s"] = sim_execution_s
        report["attempted"] = attempted
        report["failed"] = min(len(errors), attempted)
        report["errors"] = errors[:20]
        print(json.dumps(report, allow_nan=False))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
