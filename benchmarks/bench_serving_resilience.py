"""Serving resilience: the compile/run server under chaos at the wire.

Scenarios (each on its own server so failure modes do not bleed):

* **clean** — the baseline: a closed-loop load driven through the chaos
  harness with an *empty* fault plan, so both sides of every comparison
  pay identical connection-per-request overhead;
* **chaos** — the same load under a seeded :class:`WireFaultPlan` mixing
  dropped connections (before and after send), stalled reads, and
  malformed frames; every outcome must be a typed error or a result
  SHA-256-identical to a direct ``Engine.run``;
* **deadline** — overdue requests (cold fingerprints with a 1 ms budget)
  interleave with in-quota warm requests; the overdue ones get the typed
  ``deadline_exceeded`` response, the in-quota ones stay bit-identical;
* **rate limit** — a token-bucket-limited tenant driven by the retrying
  client; every request eventually lands despite 429-style rejections;
* **drain** — slow cold requests are mid-flight when the ``drain`` op
  arrives; admitted work finishes, later arrivals are rejected, and the
  final stats report what was shed;
* **kill restart** — the server is hard-killed mid-request; the retrying
  path lands the request on the restarted server, whose repopulated
  cache then serves warm hits again.

Acceptance, asserted in the full run: the chaos scenario's in-quota p99
(clean-fault requests only) degrades at most ``CHAOS_P99_CEILING`` (2x)
over the clean baseline. Structural assertions (typed-or-bit-identical
outcomes, nonzero deadline hits, nonzero rate rejections with eventual
success, drain accounting, exactly one restart) hold in smoke and full
runs alike.

Writes ``BENCH_serving_resilience.json`` at the repo root. Run
standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_serving_resilience.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

from repro.algorithms import get_algorithm
from repro.bench import percentile
from repro.config import ClusterConfig, ServerConfig
from repro.data import load_dataset
from repro.engines import make_engine
from repro.server import (ChaosDriver, ServerClient, ServerHandle,
                          ServerSupervisor, WireFaultPlan, array_digest)

ALGORITHM, DATASET, SCALE, ITERATIONS = "dfp", "cri1", 0.25, 4
CHAOS_SEED = 23
CHAOS_P99_CEILING = 2.0  # chaos in-quota p99 vs clean baseline p99

#: The chaos mix: ~half the requests draw a wire fault. Server kills are
#: benchmarked separately (a restart forces a recompile, which is restart
#: cost, not wire-fault cost — mixing them would blur the p99 story).
CHAOS_RATES = {"drop_before_send": 0.12, "drop_after_send": 0.12,
               "stall_read": 0.12, "malformed_frame": 0.12}


def _reference_sha256() -> str:
    """Digest of the warm workload via a direct Engine.run."""
    algo = get_algorithm(ALGORITHM)
    dataset = load_dataset(DATASET, scale=SCALE)
    meta, data = algo.make_inputs(dataset.matrix)
    engine = make_engine("remac", ClusterConfig())
    result = engine.run(algo.program(ITERATIONS), meta, data,
                        symmetric=algo.symmetric_inputs,
                        iterations=ITERATIONS)
    return array_digest(result.value("x"))


def _elapsed_ms(started: float) -> float:
    return round((time.perf_counter() - started) * 1e3, 2)


def _run_payload(iterations: int = ITERATIONS, tenant: str = "t") -> dict:
    return {"op": "run", "tenant": tenant, "algorithm": ALGORITHM,
            "dataset": DATASET, "scale": SCALE, "iterations": iterations}


def _slow_payload(iterations: int, tenant: str) -> dict:
    """A cold fingerprint heavy enough (~200 ms) to straddle a drain."""
    return {"op": "run", "tenant": tenant, "algorithm": "dfp",
            "dataset": "cri1", "scale": 0.5, "iterations": iterations}


def _config() -> ServerConfig:
    return ServerConfig(port=0, max_queue=32, tenant_quota=16,
                        compile_workers=2, execute_workers=2)


def _row(scenario: str, outcomes: list[dict],
         latencies_by_fault: dict) -> dict:
    """Aggregate one scenario's driver outcomes into a report row."""
    counts = {"ok": 0, "rejected": 0, "typed_error": 0, "client_error": 0}
    retried = 0
    for outcome in outcomes:
        counts[outcome["outcome"]] += 1
        retried += outcome.get("retried", 0)
    clean = latencies_by_fault.get(None, [])
    return {
        "scenario": scenario,
        "requests": len(outcomes),
        "completed": counts["ok"],
        "rejected": counts["rejected"],
        "typed_errors": counts["typed_error"],
        "client_errors": counts["client_error"],
        "retried": retried,
        "inquota_p50_ms": percentile(clean, 50),
        "inquota_p99_ms": percentile(clean, 99),
    }


def _drive(supervisor: ServerSupervisor, plan: WireFaultPlan,
           count: int, workers: int,
           reference: str) -> tuple[list[dict], dict]:
    """Run ``count`` warm requests through chaos drivers on ``workers``
    closed-loop threads; verify the typed-or-bit-identical invariant on
    every outcome as it lands."""
    driver = ChaosDriver(supervisor, plan, timeout=60.0, max_retries=8,
                         max_retry_seconds=30.0, jitter_seed=CHAOS_SEED)
    outcomes: list[dict] = []
    latencies: dict = {}
    lock = threading.Lock()
    indices = iter(range(count))
    index_lock = threading.Lock()

    def worker(worker_id: int) -> None:
        while True:
            with index_lock:
                index = next(indices, None)
            if index is None:
                return
            payload = _run_payload(tenant=f"chaos-{worker_id}")
            started = time.perf_counter()
            outcome = driver.run_request(payload, index)
            elapsed = _elapsed_ms(started)
            if outcome["outcome"] == "ok":
                digest = outcome["response"]["results"]["x"]["sha256"]
                assert digest == reference, \
                    f"request {index} served a non-identical result"
            else:
                assert outcome["outcome"] in ("rejected", "typed_error",
                                              "client_error"), outcome
            with lock:
                outcomes.append(outcome)
                latencies.setdefault(outcome["fault"], []).append(elapsed)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, latencies


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_clean(count: int, workers: int, reference: str) -> dict:
    supervisor = ServerSupervisor(_config)
    try:
        with ServerClient(*supervisor.address()) as client:
            client.request(_run_payload(tenant="prewarm"))
        outcomes, latencies = _drive(supervisor,
                                     WireFaultPlan(rates={}),
                                     count, workers, reference)
        return _row("clean", outcomes, latencies)
    finally:
        supervisor.stop()


def scenario_chaos(count: int, workers: int, reference: str) -> dict:
    supervisor = ServerSupervisor(_config)
    try:
        plan = WireFaultPlan(rates=dict(CHAOS_RATES), seed=CHAOS_SEED,
                             stall_seconds=0.05)
        with ServerClient(*supervisor.address()) as client:
            client.request(_run_payload(tenant="prewarm"))
        outcomes, latencies = _drive(supervisor, plan, count, workers,
                                     reference)
        row = _row("chaos", outcomes, latencies)
        row["faults_injected"] = sum(1 for o in outcomes
                                     if o["fault"] is not None)
        row["plan"] = plan.to_dict()
        return row
    finally:
        supervisor.stop()


def scenario_deadline(count: int, reference: str) -> dict:
    """Doomed cold requests (1 ms budget) interleave in-quota warm ones."""
    doomed = max(2, count // 4)
    with ServerHandle(_config()) as handle:
        with ServerClient(handle.host, handle.port) as client:
            client.request(_run_payload(tenant="prewarm"))
            latencies, exceeded, completed = [], 0, 0
            for i in range(count):
                started = time.perf_counter()
                if i < doomed:
                    # A fresh fingerprint each time: always a full compile,
                    # never inside 1 ms.
                    response = client.request({
                        **_run_payload(iterations=10 + i, tenant="doomed"),
                        "deadline_seconds": 0.001})
                    assert response["status"] == "error" \
                        and response["error"] == "deadline_exceeded", \
                        response
                    exceeded += 1
                else:
                    response = client.request(_run_payload(tenant="ontime"))
                    assert response["status"] == "ok"
                    assert response["results"]["x"]["sha256"] == reference
                    latencies.append(_elapsed_ms(started))
                    completed += 1
        stats = handle.stop()
    return {
        "scenario": "deadline", "requests": count, "completed": completed,
        "rejected": 0, "typed_errors": exceeded, "client_errors": 0,
        "retried": 0, "deadline_exceeded": stats["counters"][
            "deadline_exceeded"],
        "inquota_p50_ms": percentile(latencies, 50),
        "inquota_p99_ms": percentile(latencies, 99),
    }


def scenario_rate_limit(count: int, reference: str) -> dict:
    """A rate-limited tenant pushed through by the retrying client."""
    config = ServerConfig(port=0, max_queue=32, tenant_quota=16,
                          compile_workers=2, execute_workers=2,
                          tenant_rate=2.0, tenant_burst=1.0)
    with ServerHandle(config) as handle:
        with ServerClient(handle.host, handle.port) as warmup:
            warmup.request(_run_payload(tenant="prewarm"))
        latencies = []
        client = ServerClient(handle.host, handle.port, max_retries=30,
                              max_retry_seconds=120.0,
                              retry_jitter_seed=CHAOS_SEED)
        with client:
            for _ in range(count):
                started = time.perf_counter()
                response = client.request(_run_payload(tenant="limited"))
                assert response["status"] == "ok", response
                assert response["results"]["x"]["sha256"] == reference
                latencies.append(_elapsed_ms(started))
        retried = client.retries_used
        stats = handle.stop()
    return {
        "scenario": "rate limit", "requests": count, "completed": count,
        "rejected": stats["counters"]["rejected_rate"],
        "typed_errors": 0, "client_errors": 0, "retried": retried,
        "inquota_p50_ms": percentile(latencies, 50),
        "inquota_p99_ms": percentile(latencies, 99),
    }


def scenario_drain(slow_requests: int = 3) -> dict:
    """Drain arrives while slow cold compiles are mid-flight."""
    with ServerHandle(_config()) as handle:
        responses, lock = [], threading.Lock()

        def slow(index: int) -> None:
            with ServerClient(handle.host, handle.port, timeout=60.0) as c:
                response = c.request(_slow_payload(30 + index,
                                                   f"drainee-{index}"))
                with lock:
                    responses.append(response)

        threads = [threading.Thread(target=slow, args=(i,))
                   for i in range(slow_requests)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while handle.service.in_flight == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.002)
        with ServerClient(handle.host, handle.port) as control:
            ack = control.drain()
            assert ack["status"] == "ok"
        for thread in threads:
            thread.join(timeout=60.0)
        stats = handle.stop()
    completed = sum(1 for r in responses if r.get("status") == "ok")
    report = stats["drain"] or {}
    return {
        "scenario": "drain", "requests": slow_requests,
        "completed": completed,
        "rejected": stats["counters"]["rejected_draining"],
        "typed_errors": 0, "client_errors": slow_requests - completed,
        "retried": 0, "shed": report.get("shed"),
        "completed_during_drain": report.get("completed_during_drain"),
        "inquota_p50_ms": None, "inquota_p99_ms": None,
    }


def scenario_kill_restart(reference: str) -> dict:
    """Hard kill mid-request; the restarted server re-serves warm."""
    supervisor = ServerSupervisor(_config)
    try:
        driver = ChaosDriver(supervisor,
                             WireFaultPlan(rates={"kill_server": 1.0},
                                           seed=CHAOS_SEED, max_kills=1),
                             timeout=60.0, max_retries=8,
                             max_retry_seconds=30.0)
        first = driver.run_request(_run_payload(tenant="kill"), 0)
        assert first["outcome"] == "ok" and first.get("server_restarted")
        assert first["response"]["results"]["x"]["sha256"] == reference
        # Past max_kills the fault degrades to a dropped connection; the
        # restarted server serves this warm from its repopulated cache.
        second = driver.run_request(_run_payload(tenant="kill"), 1)
        assert second["outcome"] == "ok"
        assert second["response"]["results"]["x"]["sha256"] == reference
        warm_after_restart = second["response"]["plan_cache"]
        restarts = supervisor.restarts
    finally:
        supervisor.stop()
    return {
        "scenario": "kill restart", "requests": 2, "completed": 2,
        "rejected": 0, "typed_errors": 0, "client_errors": 0,
        "retried": first.get("retried", 0) + second.get("retried", 0),
        "restarts": restarts, "warm_after_restart": warm_after_restart,
        "inquota_p50_ms": None, "inquota_p99_ms": None,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def serving_resilience(smoke: bool = False) -> dict:
    count = 12 if smoke else 48
    workers = 2 if smoke else 4
    reference = _reference_sha256()
    rows = [
        scenario_clean(count, workers, reference),
        scenario_chaos(count, workers, reference),
        scenario_deadline(8 if smoke else 16, reference),
        scenario_rate_limit(4 if smoke else 8, reference),
        scenario_drain(),
        scenario_kill_restart(reference),
    ]
    return {
        "smoke": smoke,
        "workload": {"algorithm": ALGORITHM, "dataset": DATASET,
                     "scale": SCALE, "iterations": ITERATIONS},
        "reference_sha256": reference,
        "chaos_seed": CHAOS_SEED,
        "host_cpus": os.cpu_count() or 1,
        "rows": rows,
    }


def _assert_acceptance(report: dict) -> None:
    rows = {row["scenario"]: row for row in report["rows"]}
    clean, chaos = rows["clean"], rows["chaos"]
    deadline, rate = rows["deadline"], rows["rate limit"]
    drain, restart = rows["drain"], rows["kill restart"]

    # Structural invariants — smoke and full runs alike. (The typed-or-
    # bit-identical check on every single outcome already ran inline.)
    assert clean["completed"] == clean["requests"], \
        "clean baseline dropped requests"
    assert chaos["completed"] >= 1, "chaos scenario never completed"
    assert chaos["faults_injected"] >= 1, "chaos plan injected nothing"
    assert chaos["completed"] + chaos["rejected"] + chaos["typed_errors"] \
        + chaos["client_errors"] == chaos["requests"], \
        "chaos outcomes do not account for every request"
    assert deadline["typed_errors"] >= 1, "no deadline was ever exceeded"
    assert deadline["completed"] >= 1, \
        "no in-quota request survived the deadline scenario"
    assert rate["rejected"] >= 1, "rate limiter never fired"
    assert rate["retried"] >= 1, "retrying client never retried"
    assert rate["completed"] == rate["requests"], \
        "rate-limited tenant lost requests despite the retry budget"
    assert drain["shed"] is not None \
        and drain["completed_during_drain"] is not None, \
        "drain produced no report"
    assert drain["completed"] + drain["client_errors"] \
        == drain["requests"], "drain outcomes unaccounted"
    assert restart["restarts"] == 1, "kill scenario restart count wrong"
    assert restart["warm_after_restart"] in ("hit", "coalesced"), \
        "restarted server did not re-serve from a repopulated cache"

    if report["smoke"]:
        return
    # Latency acceptance — full run only (smoke loads are too small for
    # stable percentiles on a shared host).
    degradation = chaos["inquota_p99_ms"] / max(clean["inquota_p99_ms"],
                                                1e-9)
    assert degradation <= CHAOS_P99_CEILING, \
        (f"chaos in-quota p99 {chaos['inquota_p99_ms']}ms degraded "
         f"{degradation:.2f}x over the clean baseline "
         f"{clean['inquota_p99_ms']}ms (ceiling {CHAOS_P99_CEILING}x)")


def _write_report(report: dict) -> None:
    from repro.bench import save_report

    save_report("serving_resilience", report["rows"],
                title="Serving resilience — deadlines, rate limits, "
                      f"drain, wire chaos ({ALGORITHM}/{DATASET} scale "
                      f"{SCALE}, host cores={report['host_cpus']})")
    out = Path(__file__).resolve().parents[1] \
        / "BENCH_serving_resilience.json"
    out.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")


def test_serving_resilience(benchmark, ctx):
    report = benchmark.pedantic(serving_resilience, args=(False,),
                                rounds=1, iterations=1)
    _write_report(report)
    _assert_acceptance(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="serving resilience (clean/chaos/deadline/rate/"
                    "drain/kill-restart)")
    parser.add_argument("--smoke", action="store_true",
                        help="small load: structural assertions only "
                             "(typed-or-bit-identical outcomes, deadline "
                             "hits, rate rejections, drain accounting, "
                             "one restart) — the CI serving-chaos gate")
    args = parser.parse_args(argv)
    report = serving_resilience(smoke=args.smoke)
    _write_report(report)
    _assert_acceptance(report)
    for row in report["rows"]:
        extras = []
        if row.get("shed") is not None:
            extras.append(f"shed {row['shed']}")
        if row.get("restarts") is not None:
            extras.append(f"restarts {row['restarts']}")
        print(f"{row['scenario']:>14}: {row['completed']}/{row['requests']}"
              f" ok, {row['rejected']} rejected, "
              f"{row['typed_errors']} typed, "
              f"{row['client_errors']} client-err, "
              f"retried {row['retried']} | in-quota p50 "
              f"{row['inquota_p50_ms']} ms p99 {row['inquota_p99_ms']} ms"
              + (" | " + ", ".join(extras) if extras else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
