"""Serving throughput: the multi-tenant compile/run server under load.

A closed-loop load generator drives ``repro serve`` over its JSON-lines
TCP protocol with one blocking client per worker thread and measures what
the serving layer is for:

* **cold** — every request is a fresh plan-cache fingerprint (distinct
  iteration budget), so each pays a full optimizer compile;
* **warm** — every request after a prewarm hits the shared plan cache and
  routes straight to the execute stage;
* **mixed tenants** — several tenants interleave a small set of
  fingerprints, the steady state the shared cache amortizes;
* **coalesce burst** — a barrier releases N duplicate requests for one
  *fresh* fingerprint at once; single-flight must collapse them into one
  compile (exactly one cache miss, the rest coalesced or hits);
* **quota** — an abusive tenant floods past its ``tenant_quota`` while an
  in-quota tenant runs warm requests; the abuser is clipped with
  429-style rejections and the in-quota tenant's p99 stays bounded.

Each row reports requests/sec, p50/p99 latency, and the scenario's
plan-cache hit/coalesce rates (from server stats deltas). Acceptance,
asserted in the full run:

* warm p50 latency at least ``WARM_SPEEDUP_FLOOR`` (10x) below cold p50;
* the coalesce burst performs exactly one compile for N duplicates;
* the quota scenario rejects the abuser (nonzero rejections) while the
  in-quota tenant's p99 stays within ``QUOTA_P99_CEILING`` of its
  uncontended warm baseline.

Writes ``BENCH_serving_throughput.json`` at the repo root. Run
standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py --smoke

``--smoke`` shrinks the load and swaps the latency-ratio assertions for
the structural ones (nonzero hits, nonzero coalesced, nonzero
rejections, clean shutdown) — the CI serving gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

from repro.bench import percentile
from repro.config import ServerConfig
from repro.server import ServerClient, ServerHandle

#: Workload per request: small enough to execute in ~10 ms, expensive
#: enough to compile (~140 ms) that warm-vs-cold clears the 10x floor.
#: DFP's step size degenerates once the solve converges (division by a
#: vanishing denominator around 55+ iterations at this scale), so every
#: fingerprint below draws its iteration budget from [2, 50].
ALGORITHM, DATASET, SCALE = "dfp", "cri1", 0.25
MAX_SAFE_ITERATIONS = 50
WARM_SPEEDUP_FLOOR = 10.0   # cold p50 / warm p50
QUOTA_P99_CEILING = 5.0     # in-quota p99 vs uncontended warm p99
BURST_SIZE = 8              # duplicate requests released at one barrier


def _run_payload(iterations: int, tenant: str) -> dict:
    return {"op": "run", "tenant": tenant, "algorithm": ALGORITHM,
            "dataset": DATASET, "scale": SCALE, "iterations": iterations}


class LoadResult:
    """Latencies and responses from one closed-loop scenario."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies: list[float] = []       # ms, ok responses only
        self.responses: list[dict] = []
        self.rejected = 0
        self.errors = 0

    def record(self, latency: float, response: dict) -> None:
        with self.lock:
            self.responses.append(response)
            status = response.get("status")
            if status == "ok":
                self.latencies.append(round(latency * 1e3, 2))
            elif status == "rejected":
                self.rejected += 1
            else:
                self.errors += 1


def run_load(host: str, port: int, payloads: list[dict], workers: int,
             barrier: bool = False,
             retry_rejected: bool = False) -> tuple[LoadResult, float]:
    """Drive ``payloads`` through ``workers`` closed-loop client threads.

    Each worker owns one connection and pulls the next payload as soon as
    its previous response lands (closed loop — offered load tracks service
    rate). ``barrier=True`` instead gives every worker one payload and
    releases them simultaneously (the coalesce burst). ``retry_rejected``
    re-queues admission rejections after the advertised ``retry_after``
    (still counted), so quota scenarios finish their work list.
    """
    result = LoadResult()
    if barrier:
        assert len(payloads) == workers
        gate = threading.Barrier(workers)

        def burst_worker(payload: dict) -> None:
            with ServerClient(host, port) as client:
                gate.wait()
                started = time.perf_counter()
                response = client.request(dict(payload))
                result.record(time.perf_counter() - started, response)

        threads = [threading.Thread(target=burst_worker, args=(p,))
                   for p in payloads]
    else:
        queue = list(payloads)
        queue_lock = threading.Lock()

        def loop_worker() -> None:
            with ServerClient(host, port) as client:
                while True:
                    with queue_lock:
                        if not queue:
                            return
                        payload = queue.pop(0)
                    started = time.perf_counter()
                    response = client.request(dict(payload))
                    result.record(time.perf_counter() - started, response)
                    if retry_rejected \
                            and response.get("status") == "rejected":
                        time.sleep(float(response.get("retry_after", 0.01)))
                        with queue_lock:
                            queue.append(payload)

        threads = [threading.Thread(target=loop_worker)
                   for _ in range(workers)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return result, time.perf_counter() - started


def _cache_delta(before: dict, after: dict) -> dict:
    return {key: after["plan_cache"][key] - before["plan_cache"][key]
            for key in after["plan_cache"]}


def _row(scenario: str, result: LoadResult, wall: float,
         delta: dict) -> dict:
    completed = len(result.latencies)
    served = completed + result.rejected
    outcomes = completed + result.rejected  # every response is terminal
    hits = delta["hits"]
    coalesced = delta["coalesced"]
    return {
        "scenario": scenario,
        "requests": served,
        "completed": completed,
        "rejected": result.rejected,
        "errors": result.errors,
        "wall_s": round(wall, 3),
        "rps": round(completed / wall, 2) if wall > 0 else None,
        "p50_ms": percentile(result.latencies, 50),
        "p99_ms": percentile(result.latencies, 99),
        "cache_hits": hits,
        "cache_misses": delta["misses"],
        "coalesced": coalesced,
        "hit_rate": round(hits / outcomes, 3) if outcomes else 0.0,
        "coalesce_rate": round(coalesced / outcomes, 3) if outcomes else 0.0,
    }


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_cold(handle: ServerHandle, count: int, workers: int,
                  iteration_base: int) -> dict:
    """Every request is a fresh fingerprint -> a full compile each."""
    payloads = [_run_payload(iteration_base + i, f"cold-{i % workers}")
                for i in range(count)]
    before = handle.service.stats()
    result, wall = run_load(handle.host, handle.port, payloads, workers)
    return _row("cold", result, wall,
                _cache_delta(before, handle.service.stats()))


def scenario_warm(handle: ServerHandle, count: int, workers: int,
                  iterations: int) -> dict:
    """One prewarmed fingerprint, repeated — the plan-cache steady state."""
    with ServerClient(handle.host, handle.port) as client:
        client.request(_run_payload(iterations, "prewarm"))
    payloads = [_run_payload(iterations, f"warm-{i % workers}")
                for i in range(count)]
    before = handle.service.stats()
    result, wall = run_load(handle.host, handle.port, payloads, workers)
    return _row("warm", result, wall,
                _cache_delta(before, handle.service.stats()))


def scenario_mixed(handle: ServerHandle, count: int, workers: int,
                   iteration_base: int, tenants: int = 4,
                   fingerprints: int = 3) -> dict:
    """Several tenants interleaving a small fingerprint set."""
    payloads = [_run_payload(iteration_base + (i % fingerprints),
                             f"tenant-{i % tenants}")
                for i in range(count)]
    before = handle.service.stats()
    result, wall = run_load(handle.host, handle.port, payloads, workers)
    return _row("mixed", result, wall,
                _cache_delta(before, handle.service.stats()))


def scenario_coalesce(handle: ServerHandle, iterations: int,
                      burst: int = BURST_SIZE) -> dict:
    """Barrier-released duplicates of one fresh fingerprint."""
    payloads = [_run_payload(iterations, f"burst-{i}")
                for i in range(burst)]
    before = handle.service.stats()
    result, wall = run_load(handle.host, handle.port, payloads,
                            workers=burst, barrier=True)
    row = _row("coalesce burst", result, wall,
               _cache_delta(before, handle.service.stats()))
    row["burst_size"] = burst
    return row


def scenario_quota(count: int, workers: int, iterations: int,
                   cluster=None) -> tuple[dict, dict, dict]:
    """Abusive tenant floods a tight quota; in-quota tenant stays warm.

    Runs on its *own* server (tenant_quota=2) so the tight quota does not
    distort the other scenarios. Returns (abuser row, in-quota row, final
    stats of the dedicated server).
    """
    config = ServerConfig(port=0, max_queue=32, tenant_quota=2,
                          compile_workers=2, execute_workers=2)
    with ServerHandle(config, cluster) as handle:
        with ServerClient(handle.host, handle.port) as client:
            client.request(_run_payload(iterations, "prewarm"))

        abuser_payloads = [_run_payload(iterations, "abuser")
                           for _ in range(count)]
        victim_payloads = [_run_payload(iterations, "in-quota")
                           for _ in range(count)]
        abuser_result = LoadResult()
        abuser_wall = [0.0]

        def flood() -> None:
            result, wall = run_load(handle.host, handle.port,
                                    abuser_payloads, workers=workers)
            abuser_result.latencies = result.latencies
            abuser_result.rejected = result.rejected
            abuser_result.errors = result.errors
            abuser_result.responses = result.responses
            abuser_wall[0] = wall

        before = handle.service.stats()
        flood_thread = threading.Thread(target=flood)
        flood_thread.start()
        victim_result, victim_wall = run_load(
            handle.host, handle.port, victim_payloads, workers=2)
        flood_thread.join()
        delta = _cache_delta(before, handle.service.stats())
        abuser_row = _row("quota abuser", abuser_result, abuser_wall[0],
                          {"hits": 0, "misses": 0, "coalesced": 0,
                           "evictions": 0})
        victim_row = _row("quota in-quota tenant", victim_result,
                          victim_wall, delta)
        # The cache delta spans both tenants (they share the server), so
        # rate it over every completed request, not the victim's alone.
        total = len(abuser_result.latencies) + len(victim_result.latencies)
        victim_row["hit_rate"] = round(delta["hits"] / total, 3) \
            if total else 0.0
        victim_row["coalesce_rate"] = round(delta["coalesced"] / total, 3) \
            if total else 0.0
        final = handle.stop()
    abuser_row["tenant_quota"] = config.tenant_quota
    return abuser_row, victim_row, final


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def serving_throughput(smoke: bool = False) -> dict:
    count = 8 if smoke else 24
    workers = 4 if smoke else 6
    iterations = 4  # the warm fingerprint
    assert 10 + count <= 35 <= MAX_SAFE_ITERATIONS  # cold range stays safe

    config = ServerConfig(port=0, max_queue=64, tenant_quota=16,
                          compile_workers=2, execute_workers=2)
    rows = []
    with ServerHandle(config) as handle:
        # Build the resident workload once, outside any timed scenario.
        with ServerClient(handle.host, handle.port) as client:
            client.request(_run_payload(2, "prewarm"))
        rows.append(scenario_cold(handle, count, workers,
                                  iteration_base=10))
        rows.append(scenario_warm(handle, count, workers, iterations))
        rows.append(scenario_mixed(handle, count, workers,
                                   iteration_base=35))
        rows.append(scenario_coalesce(handle, iterations=40,
                                      burst=4 if smoke else BURST_SIZE))
        main_stats = handle.stop()
    abuser_row, victim_row, quota_stats = scenario_quota(
        count, workers, iterations)
    rows.extend([abuser_row, victim_row])
    return {
        "smoke": smoke,
        "workload": {"algorithm": ALGORITHM, "dataset": DATASET,
                     "scale": SCALE},
        "host_cpus": os.cpu_count() or 1,
        "rows": rows,
        "final_stats": {"main": main_stats, "quota": quota_stats},
    }


def _assert_acceptance(report: dict) -> None:
    rows = {row["scenario"]: row for row in report["rows"]}
    cold, warm = rows["cold"], rows["warm"]
    burst = rows["coalesce burst"]
    abuser, victim = rows["quota abuser"], rows["quota in-quota tenant"]

    # Structural invariants — asserted in smoke and full runs alike.
    for scenario, row in rows.items():
        assert row["errors"] == 0, f"{scenario}: {row['errors']} errors"
    assert cold["cache_misses"] == cold["requests"], \
        "cold scenario produced cache hits — fingerprints not unique"
    assert warm["cache_hits"] == warm["requests"], \
        "warm scenario missed the plan cache"
    assert burst["cache_misses"] == 1, \
        (f"coalesce burst compiled {burst['cache_misses']} times for "
         f"{burst['burst_size']} duplicates — single-flight broken")
    assert burst["coalesced"] + burst["cache_hits"] \
        == burst["burst_size"] - 1, "burst accounting does not add up"
    assert burst["coalesced"] >= 1, \
        "burst saw no coalescing — duplicates were serialized, not merged"
    assert abuser["rejected"] > 0, \
        "quota abuser was never rejected — admission control inert"
    assert victim["rejected"] == 0, \
        "in-quota tenant was rejected — quota isolation broken"
    assert victim["cache_hits"] > 0
    stats = report["final_stats"]["main"]
    assert stats["in_flight"] == 0 and stats["counters"]["failed"] == 0, \
        "main server did not shut down clean"

    if report["smoke"]:
        return
    # Latency acceptance — full run only (smoke loads are too small for
    # stable percentiles on a shared host).
    assert all(row["completed"] > 0 for row in (cold, warm, victim)), \
        "a scenario completed nothing: no latency to compare"
    speedup = cold["p50_ms"] / warm["p50_ms"]
    assert speedup >= WARM_SPEEDUP_FLOOR, \
        (f"warm p50 {warm['p50_ms']}ms is only {speedup:.1f}x below cold "
         f"p50 {cold['p50_ms']}ms (floor {WARM_SPEEDUP_FLOOR}x)")
    ceiling = victim["p99_ms"] / max(warm["p99_ms"], 1e-9)
    assert ceiling <= QUOTA_P99_CEILING, \
        (f"in-quota p99 {victim['p99_ms']}ms degraded {ceiling:.1f}x over "
         f"the warm baseline {warm['p99_ms']}ms "
         f"(ceiling {QUOTA_P99_CEILING}x)")


def _write_report(report: dict) -> None:
    from repro.bench import save_report

    save_report("serving_throughput", report["rows"],
                title="Serving throughput — multi-tenant compile/run "
                      f"server ({ALGORITHM}/{DATASET} scale {SCALE}, "
                      f"host cores={report['host_cpus']})")
    out = Path(__file__).resolve().parents[1] \
        / "BENCH_serving_throughput.json"
    out.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")


def test_serving_throughput(benchmark, ctx):
    report = benchmark.pedantic(serving_throughput, args=(False,),
                                rounds=1, iterations=1)
    _write_report(report)
    _assert_acceptance(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="multi-tenant serving throughput (cold/warm/mixed/"
                    "coalesce/quota)")
    parser.add_argument("--smoke", action="store_true",
                        help="small load: structural assertions only "
                             "(nonzero hits/coalesced/rejections, clean "
                             "shutdown) — the CI serving gate")
    args = parser.parse_args(argv)
    report = serving_throughput(smoke=args.smoke)
    _write_report(report)
    _assert_acceptance(report)
    for row in report["rows"]:
        print(f"{row['scenario']:>22}: {row['completed']} ok "
              f"{row['rejected']} rejected | p50 {row['p50_ms']} ms "
              f"p99 {row['p99_ms']} ms | {row['rps']} req/s | "
              f"hit rate {row['hit_rate']}, "
              f"coalesce rate {row['coalesce_rate']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
