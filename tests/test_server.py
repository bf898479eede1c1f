"""Serving layer: bit-identity, coalescing, admission control, pools.

Results served are **bit-identical** to a direct ``Engine.run`` of the
same workload — serving adds scheduling and accounting, never arithmetic.
``tests/test_identity.py``'s ``served`` way pins a miss and a hit to the
golden digests; the values returned over the wire are checked here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import get_algorithm
from repro.config import ClusterConfig, ServerConfig
from repro.data import load_dataset
from repro.engines import make_engine
from repro.engines.base import Engine
from repro.engines.session import Session
from repro.errors import ConfigError
from repro.matrix.blocked import BlockedMatrix
from repro.runtime.physical import Kernels
from repro.server import service
from repro.server import (ProtocolError, ServerClient, ServerHandle,
                          array_digest, decode_array, digest_result,
                          encode_array, parse_request)

ALGORITHM, DATASET, SCALE, ITERATIONS = "gd", "cri1", 0.25, 4


def _direct_run(algorithm: str = ALGORITHM, iterations: int = ITERATIONS,
                dataset: str = DATASET):
    algo = get_algorithm(algorithm)
    dataset = load_dataset(dataset, scale=SCALE)
    meta, data = algo.make_inputs(dataset.matrix)
    engine = make_engine("remac", ClusterConfig())
    return algo, engine.run(algo.program(iterations), meta, data,
                            symmetric=algo.symmetric_inputs,
                            iterations=iterations)


@pytest.fixture(scope="module")
def server():
    handle = ServerHandle(ServerConfig(port=0, max_queue=16,
                                       tenant_quota=4))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServerClient(server.host, server.port) as connection:
        yield connection


class TestValuesFrame:
    """``return_values: true``: one header line, then the raw sections."""

    OUTPUTS = ("H", "x")  # not the algorithm's own order

    def _values(self, client, tenant):
        return client.run("dfp", DATASET, scale=SCALE, iterations=2,
                          tenant=tenant, outputs=self.OUTPUTS,
                          return_values=True)

    def test_sections_arrive_in_results_order_and_decode_exactly(self,
                                                                 client):
        _, direct = _direct_run("dfp", iterations=2)
        response = self._values(client, "frame")
        assert response["status"] == "ok"
        assert tuple(response["results"]) == self.OUTPUTS
        for name, entry in response["results"].items():
            expected = np.asarray(direct.value(name))
            assert entry["nbytes"] == expected.nbytes == len(entry["data"])
            served = decode_array(entry)
            assert np.array_equal(served, expected)
            assert entry["sha256"] == array_digest(served) \
                == array_digest(expected)

    def test_decoded_arrays_are_writable_and_private(self, client):
        first = decode_array(self._values(client, "own-a")["results"]["H"])
        second = decode_array(self._values(client, "own-b")["results"]["H"])
        assert first.flags.writeable and not np.shares_memory(first, second)
        kept = second.copy()
        first += 1.0
        np.testing.assert_array_equal(second, kept)

    def test_no_bytes_left_over_for_the_next_response(self, client):
        assert self._values(client, "tail")["status"] == "ok"
        assert client.request({"op": "ping", "id": "next"}) \
            == {"id": "next", "status": "ok", "op": "ping"}
        # Without values the response is the line alone, as it always was.
        plain = client.run("dfp", DATASET, scale=SCALE, iterations=2,
                           outputs=self.OUTPUTS)
        assert all(set(entry) == {"sha256"}
                   for entry in plain["results"].values())
        assert client.ping() and client.retries_used == 0


class TestServing:
    def test_ping_and_stats(self, client):
        assert client.ping()
        stats = client.stats()
        assert stats["counters"]["received"] >= 1
        assert "plan_cache" in stats and "sessions" in stats

    def test_optimize_op(self, client):
        response = client.optimize(ALGORITHM, DATASET, scale=SCALE,
                                   iterations=ITERATIONS)
        assert response["status"] == "ok"
        assert response["estimated_cost_s"] > 0.0
        assert "results" not in response

    def test_tenant_accounting(self, client, server):
        client.run(ALGORITHM, DATASET, scale=SCALE,
                   iterations=ITERATIONS, tenant="bookkeeper")
        summaries = {s["tenant"]: s
                     for s in server.service.stats()["sessions"]}
        assert summaries["bookkeeper"]["runs"] >= 1
        assert summaries["bookkeeper"]["compiles"] >= 1

    def test_tenants_share_one_program_and_cannot_edit_it(self, client,
                                                          server):
        """``Algorithm.program(n)`` is one object for every tenant and
        engine in the process, and so is the cached plan's rewritten
        program: both keep the text that identifies them, so neither may
        change under a tenant's hands."""
        tenants = ("ann", "bob")
        for tenant in tenants:
            assert client.optimize(ALGORITHM, DATASET, scale=SCALE,
                                   iterations=ITERATIONS,
                                   tenant=tenant)["status"] == "ok"
        service = server.service
        workload = service._workloads[(ALGORITHM, DATASET, SCALE)]
        program = workload.algo.program(ITERATIONS)
        warm = [service.session(tenant, None).cached_plan(
            program, workload.meta, workload.data, iterations=ITERATIONS)
            for tenant in tenants]
        assert warm[0] is not warm[1]
        assert warm[0].program is warm[1].program
        for shared in (program, warm[0].program):
            with pytest.raises(dataclasses.FrozenInstanceError):
                shared.statements = ()
            with pytest.raises(AttributeError):
                shared.statements.append(shared.statements[0])
            with pytest.raises(AttributeError):
                shared.inputs.append("A")

    def test_unknown_algorithm_is_an_error_response(self, client):
        response = client.request({"op": "run", "algorithm": "nope"})
        assert response["status"] == "error"
        assert "unknown algorithm" in response["error"]

    def test_invalid_json_keeps_connection_usable(self, server):
        with socket.create_connection((server.host, server.port)) as sock:
            reader = sock.makefile("rb")
            for garbage in (b"this is not json\n", b'{"op": \xff}\n'):
                sock.sendall(garbage)  # not JSON; not even UTF-8
                response = json.loads(reader.readline())
                assert response["status"] == "error"
                assert "invalid JSON" in response["error"]
            sock.sendall(b'{"op": "ping", "id": 1}\n')
            assert json.loads(reader.readline())["status"] == "ok"

    @pytest.mark.parametrize("poison", [
        {"outputs": 0}, {"outputs": False}, {"outputs": None},
        {"outputs": "x"}, {"outputs": [1]}, {"algorithm": []},
        {"dataset": {}}, {"engine": 7}, {"return_values": "false"},
        {"return_values": 1}], ids=str)
    def test_poison_request_gets_a_typed_reply_and_keeps_its_connection(
            self, client, poison):
        """Each of these once escaped ``parse_request`` as a bare
        TypeError (or, for ``return_values``, meant *true*): the handler
        task died, the connection closed, a retrying client resent it."""
        response = client.request({"op": "run", "id": "poison", **poison})
        assert response["status"] == "error" and response["id"] == "poison"
        assert next(iter(poison)) in response["error"]
        assert client.connected and client.ping()
        assert client.retries_used == 0

    def test_handler_answers_whatever_submit_raises(self, server, client,
                                                    monkeypatch, caplog):
        async def broken(payload):
            raise RuntimeError("boom")
        monkeypatch.setattr(server.service, "submit", broken)
        response = client.request({"op": "ping", "id": 9})
        assert response == {"id": 9, "status": "error",
                            "error": "RuntimeError: boom"}
        assert "request handler failed" in caplog.text  # with its traceback
        monkeypatch.undo()
        assert client.connected and client.ping()

    def test_concurrent_tenants_one_compile(self, server):
        """A burst of identical fresh-fingerprint requests compiles once."""
        burst, iterations = 4, 6  # fingerprint unused elsewhere
        before = server.service.plan_cache.stats_dict()
        barrier = threading.Barrier(burst)
        responses = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            with ServerClient(server.host, server.port) as connection:
                barrier.wait()
                response = connection.run(
                    ALGORITHM, DATASET, scale=SCALE, iterations=iterations,
                    tenant=f"burst-{index}")
                with lock:
                    responses.append(response)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(burst)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = server.service.plan_cache.stats_dict()
        assert all(r["status"] == "ok" for r in responses)
        assert after["misses"] - before["misses"] == 1
        digests = {r["results"]["x"]["sha256"] for r in responses}
        assert len(digests) == 1
        outcomes = sorted(r["plan_cache"] for r in responses)
        assert outcomes.count("miss") == 1
        assert all(o in ("miss", "hit", "coalesced") for o in outcomes)


class TestResidentInputs:
    """A resident workload's inputs are partitioned once, by its first
    ``run``, and every run executes on those grids (docs §14)."""

    @pytest.fixture
    def wide(self):
        with ServerHandle(ServerConfig(port=0, max_queue=32, tenant_quota=8,
                                       execute_workers=4)) as handle:
            yield handle

    @staticmethod
    def _workload(handle, algorithm, dataset):
        return handle.service._workloads[(algorithm, dataset, SCALE)]

    @staticmethod
    def _assert_served_as_direct(response, algo, direct):
        assert response["status"] == "ok"
        assert {name: entry["sha256"] for name, entry
                in response["results"].items()} \
            == digest_result(direct, algo.outputs)
        assert response["simulated_execution_s"] == direct.execution_seconds

    @pytest.mark.parametrize("algorithm, dataset", [
        ("dfp", "cri3"),    # CSR A, symmetric H, fused t(A) in the loop
        ("gd", "cri1"),     # dense throughout
        ("gnmf", "red2"),   # shuffled (CPMM) products
    ])
    def test_first_and_later_runs_match_a_direct_run(self, wide, monkeypatch,
                                                     algorithm, dataset):
        algo, direct = _direct_run(algorithm, iterations=2, dataset=dataset)
        loaded = []
        real_load = Kernels.load

        def load(self, name, data, **kwargs):
            value = real_load(self, name, data, **kwargs)
            loaded.append((name, data, value.matrix, self.recovery))
            return value

        monkeypatch.setattr(Kernels, "load", load)
        with ServerClient(wide.host, wide.port) as client:
            for attempt in range(3):  # tiles / keeps t(A)'s tiles / reuses
                self._assert_served_as_direct(
                    client.run(algorithm, dataset, scale=SCALE, iterations=2,
                               tenant=f"t{attempt}"), algo, direct)
        workload = self._workload(wide, algorithm, dataset)
        grids = workload._grids
        assert {name for name, *_ in loaded} \
            == {name for name, grid in grids.items()
                if isinstance(grid, BlockedMatrix)}
        # Every request's executor was handed the resident grid and took
        # it as it is; a grid tiled without its symmetric flag would be
        # re-wrapped by ``from_any`` on every request and lose t(H)'s tiles.
        assert all(matrix is data is grids[name]
                   for name, data, matrix, _ in loaded)
        # Nothing edits a shared grid: the serve path runs no recovery.
        assert all(recovery is None for *_, recovery in loaded)
        if algorithm == "dfp":
            assert grids["H"].symmetric and not grids["A"].symmetric
            assert all(tile.is_sparse for tile in grids["A"].blocks.values())
            assert grids["A"]._transposed is not None  # kept across requests

    def test_concurrent_runs_tile_once_and_leave_the_tiles_alone(
            self, wide, monkeypatch):
        algorithm, dataset, burst = "dfp", "cri3", 16
        algo, direct = _direct_run(algorithm, iterations=2, dataset=dataset)
        executed = []
        real_execute = Engine.execute

        def execute(self, to_execute, input_data, **kwargs):
            executed.append(input_data)
            return real_execute(self, to_execute, input_data, **kwargs)

        monkeypatch.setattr(Engine, "execute", execute)
        barrier = threading.Barrier(burst)
        responses = []

        def worker(index: int) -> None:
            with ServerClient(wide.host, wide.port) as connection:
                barrier.wait(timeout=30)
                responses.append(connection.run(
                    algorithm, dataset, scale=SCALE, iterations=2,
                    tenant=f"tenant-{index % 3}"))

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(burst)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(responses) == burst
        for response in responses:  # the very first one included
            self._assert_served_as_direct(response, algo, direct)
        workload = self._workload(wide, algorithm, dataset)
        assert len(executed) == burst
        assert all(inputs is workload._grids for inputs in executed)
        # ... and sixteen executors later every tile is what a fresh
        # partitioning of the raw input gives, bit for bit.
        block_size = wide.service.cluster.block_size
        for name, grid in workload._grids.items():
            raw = workload.data[name]
            if not isinstance(grid, BlockedMatrix):
                assert grid is raw  # a scalar, as it is
                continue
            fresh = BlockedMatrix.from_any(
                raw, block_size=block_size,
                symmetric=name in algo.symmetric_inputs)
            assert list(grid.blocks) == list(fresh.blocks)
            assert grid.symmetric == fresh.symmetric
            for key, tile in grid.blocks.items():
                other = fresh.blocks[key]
                assert (tile.is_sparse, tile.nnz) \
                    == (other.is_sparse, other.nnz), (name, key)
                payloads = [(tile.data, other.data)] if not tile.is_sparse \
                    else [(getattr(tile.data, part), getattr(other.data, part))
                          for part in ("data", "indices", "indptr")]
                assert all(mine.tobytes() == theirs.tobytes()
                           for mine, theirs in payloads), (name, key)

    def test_optimize_only_traffic_never_partitions(self, wide):
        with ServerClient(wide.host, wide.port) as client:
            for tenant in ("a", "b"):
                response = client.optimize("gd", "cri2", scale=SCALE,
                                           iterations=2, tenant=tenant)
                assert response["status"] == "ok"
        assert response["plan_cache"] == "hit"
        assert self._workload(wide, "gd", "cri2")._grids is None


#: One cold and ten warm ``serve_payload``-shaped requests in a fresh
#: interpreter; prints, per warm request, the process's minor faults
#: around it and the ``execute_minor_faults`` it reports, then the
#: cold request's count and the ``stats`` sum.
_WARM_FAULTS_SCRIPT = """
import json, resource
from repro.config import ServerConfig
from repro.server import ServerClient, ServerHandle

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

fields = dict(algorithm="dfp", dataset="cri3", scale=0.5, iterations=2,
              outputs=["x", "H"], return_values=True)
with ServerHandle(ServerConfig(port=0)) as handle, \\
        ServerClient(handle.host, handle.port, timeout=60.0) as client:
    cold = client.run(**fields).get("execute_minor_faults")
    warm = []
    for _ in range(10):
        before = faults()
        response = client.run(**fields)
        warm.append((faults() - before, response["plan_cache"],
                     response.get("execute_minor_faults")))
        del response
    total = client.stats()["counters"].get("execute_minor_faults")
print(json.dumps({"warm": warm, "cold": cold, "total": total}))
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(service._RUSAGE_THREAD is None or not _glibc(),
                    reason="the heap policy and the count are glibc/Linux")
class TestServedHeap:
    """A warm served request does not fault its heap back in: the service
    fixes glibc's mmap and trim thresholds at start (docs §14)."""

    def test_warm_request_takes_no_page_faults(self):
        """Each fresh process settles its heap in a mode of its own; the
        trimming default faults a median of ~500 a request in most modes
        and few in some, so three processes are asked, not one."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(repro.__file__).parents[1]),
                          env.get("PYTHONPATH")]))
        for _ in range(3):
            done = subprocess.run(
                [sys.executable, "-c", _WARM_FAULTS_SCRIPT], env=env,
                capture_output=True, text=True, timeout=180, check=True)
            report = json.loads(done.stdout.splitlines()[-1])
            warm = report["warm"]
            assert [outcome for _, outcome, _ in warm] == ["hit"] * 10
            process = [count for count, _, _ in warm]
            assert statistics.median(process) <= 100, process
            # The execute thread's count is part of the process's.
            assert all(0 <= reported <= count
                       for count, _, reported in warm), warm
            assert statistics.median(r for _, _, r in warm) <= 100
            assert report["total"] \
                == report["cold"] + sum(r for _, _, r in warm)


class TestDecoupledStages:
    def test_warm_requests_never_wait_for_a_compile_slot(
            self, monkeypatch, compile_pool_submits):
        """Both compile workers held by cold compiles: a warm ``optimize``
        and a warm ``run`` still answer, from the loop and the execute
        pool. Only what generates, parses or compiles is submitted to the
        compile pool."""
        algo = get_algorithm(ALGORITHM)
        # The parsed-program table is process-wide; start from an empty
        # one so "new iterations" means new whatever ran before this test.
        monkeypatch.setattr(algo, "_program_cache", {})
        config = ServerConfig(port=0, max_queue=16, tenant_quota=8)
        assert config.compile_workers == 2
        entered, release = threading.Semaphore(0), threading.Event()
        real_compile = Session.compile

        def held_compile(self, *args, **kwargs):
            entered.release()
            assert release.wait(timeout=30)
            return real_compile(self, *args, **kwargs)

        cold = []

        def cold_run(iterations: int) -> None:
            with ServerClient(handle.host, handle.port) as connection:
                cold.append(connection.run(ALGORITHM, DATASET, scale=SCALE,
                                           iterations=iterations,
                                           tenant="cold"))

        with ServerHandle(config) as handle:
            submitted = compile_pool_submits(handle.service)
            fields = dict(scale=SCALE, iterations=ITERATIONS, tenant="warm")
            with ServerClient(handle.host, handle.port,
                              timeout=10.0) as client:
                first = client.run(ALGORITHM, DATASET, **fields)
                assert first["plan_cache"] == "miss"
                # Not yet resident: resolved and compiled off the loop.
                assert submitted == ["_workload", "<lambda>"]

                monkeypatch.setattr(Session, "compile", held_compile)
                threads = [threading.Thread(target=cold_run, args=(n,))
                           for n in (5, 6)]
                try:
                    for thread in threads:
                        thread.start()
                    assert entered.acquire(timeout=30) \
                        and entered.acquire(timeout=30)
                    # Resident, but a new ``iterations`` has to be parsed:
                    # those two went through the compile pool as well.
                    assert sorted(submitted) == ["<lambda>"] * 3 \
                        + ["_workload"] * 3

                    optimized = client.optimize(ALGORITHM, DATASET, **fields)
                    ran = client.run(ALGORITHM, DATASET, **fields)
                    assert not release.is_set() and not cold
                    assert optimized["status"] == ran["status"] == "ok"
                    assert optimized["plan_cache"] == ran["plan_cache"] \
                        == "hit"
                    assert ran["results"] == first["results"]
                    assert len(submitted) == 6  # neither entered the pool
                finally:
                    release.set()
                    for thread in threads:
                        thread.join(timeout=30)
            assert [response["status"] for response in cold] == ["ok", "ok"]


class TestAdmissionControl:
    def test_quota_exceeded_rejected_with_retry_after(self):
        """Requests past ``tenant_quota`` bounce; capacity then recovers."""
        config = ServerConfig(port=0, max_queue=8, tenant_quota=1,
                              compile_workers=1, execute_workers=1)
        with ServerHandle(config) as handle:
            workers = 4
            barrier = threading.Barrier(workers)
            responses = []
            lock = threading.Lock()

            def worker() -> None:
                with ServerClient(handle.host, handle.port) as connection:
                    barrier.wait()
                    response = connection.run(
                        ALGORITHM, DATASET, scale=SCALE,
                        iterations=ITERATIONS, tenant="greedy")
                    with lock:
                        responses.append(response)

            threads = [threading.Thread(target=worker)
                       for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            statuses = sorted(r["status"] for r in responses)
            assert "rejected" in statuses  # quota bit at least once
            rejected = [r for r in responses if r["status"] == "rejected"]
            assert all(r["error"] == "quota_exceeded" for r in rejected)
            # retry_after is computed from observed queue state, floored
            # at the configured constant.
            assert all(r["retry_after"] >= config.retry_after_seconds
                       for r in rejected)
            # The quota frees once requests drain: a sequential retry runs.
            with ServerClient(handle.host, handle.port) as connection:
                retry = connection.run(ALGORITHM, DATASET, scale=SCALE,
                                       iterations=ITERATIONS,
                                       tenant="greedy")
            assert retry["status"] == "ok"
            assert handle.service.stats()["counters"]["rejected_quota"] >= 1

    def test_rejected_requests_never_reach_the_cache(self):
        config = ServerConfig(port=0, max_queue=1, tenant_quota=1)
        with ServerHandle(config) as handle:
            # Saturate the global bound from inside the service so the
            # next request over the wire is rejected deterministically.
            handle.service._admitted = config.max_queue
            before = handle.service.plan_cache.stats_dict()
            with ServerClient(handle.host, handle.port) as connection:
                response = connection.run(ALGORITHM, DATASET, scale=SCALE,
                                          iterations=ITERATIONS)
            assert response["status"] == "rejected"
            assert response["error"] == "server_busy"
            assert handle.service.plan_cache.stats_dict() == before
            handle.service._admitted = 0


class TestSharedPools:
    def test_service_close_is_idempotent(self):
        handle = ServerHandle(ServerConfig(port=0))
        handle.stop()
        handle.service.close()  # second close must be a no-op
        assert handle.service.closed


class TestProtocol:
    def test_parse_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request([1, 2, 3])

    def test_parse_rejects_bad_scale(self):
        with pytest.raises(ProtocolError, match="scale"):
            parse_request({"op": "run", "scale": 99.0})

    def test_parse_rejects_bad_iterations(self):
        with pytest.raises(ProtocolError, match="iterations"):
            parse_request({"op": "run", "iterations": 0})

    def test_parse_rejects_empty_tenant(self):
        with pytest.raises(ProtocolError, match="tenant"):
            parse_request({"op": "run", "tenant": ""})

    def test_parse_wants_a_list_of_names_and_a_real_boolean(self):
        for bad in (0, False, None, "x", [1], {"x": 1}):
            with pytest.raises(ProtocolError, match="outputs"):
                parse_request({"op": "run", "outputs": bad})
        for bad in ("false", "no", 0, 1, None):
            with pytest.raises(ProtocolError, match="return_values"):
                parse_request({"op": "run", "return_values": bad})
        request = parse_request({"op": "run", "outputs": ["x", "H"],
                                 "return_values": True, "engine": None})
        assert request.outputs == ("x", "H") and request.return_values is True
        assert request.engine is None
        assert parse_request({"op": "run"}).return_values is False

    @pytest.mark.parametrize("outputs, named", [
        (["g"], "g"),  # an intermediate gd computes, then drops
        (["x", "nonexistent"], "nonexistent")])
    def test_an_undeclared_output_is_refused_before_anything_runs(
            self, client, compile_pool_submits, server, outputs, named):
        submitted = compile_pool_submits(server.service)
        response = client.request({"op": "run", "id": 3, "algorithm": "gd",
                                   "dataset": DATASET, "scale": SCALE,
                                   "iterations": 2, "outputs": outputs})
        assert response == {
            "id": 3, "status": "error",
            "error": f"outputs {named} not declared by gd, whose outputs "
                     f"are x"}
        assert submitted == [] and client.connected

    @pytest.mark.parametrize("make", [
        lambda rng: np.asfortranarray(rng.random((6, 4))),
        lambda rng: rng.random((5, 3)).astype(">f8"),
        lambda rng: rng.integers(-9, 9, size=(4, 7), dtype=np.int32),
        lambda rng: rng.random((8, 6))[1::2, ::3],
        lambda rng: rng.random(11),
        lambda rng: np.array(2.5),
        lambda rng: np.empty((0, 4)),
        lambda rng: np.empty(0, dtype=np.int64),
    ], ids=["f_order", "big_endian", "int32", "strided_slice", "1d", "0d",
            "0xn", "empty_1d"])
    def test_codec_roundtrip_and_digest_definition(self, rng, make):
        array = make(rng)
        # The digest as first defined, over a tobytes() copy: the
        # reference the buffer-hashing array_digest must keep matching.
        reference = np.ascontiguousarray(
            array, dtype=array.dtype.newbyteorder("<"))
        expected = hashlib.sha256(
            reference.dtype.str.encode() + repr(reference.shape).encode()
            + reference.tobytes()).hexdigest()
        assert array_digest(array) == expected
        encoded = encode_array(array)
        assert encoded["dtype"][0] in "<|"  # little-endian or no order
        assert encoded["nbytes"] == array.nbytes == len(encoded["data"])
        assert bytes(encoded["data"]) == reference.tobytes()
        assert json.dumps({key: value for key, value in encoded.items()
                           if key != "data"})  # the header stays JSON
        # Over the wire the section lands in a bytearray of its own.
        received = {**encoded, "data": bytearray(encoded["data"])}
        for decoded in (decode_array(encoded), decode_array(received)):
            assert decoded.shape == reference.shape  # 0-d travels as (1,)
            np.testing.assert_array_equal(decoded, reference)
            assert array_digest(decoded) == expected
        assert decode_array(received).flags.writeable

    def test_array_roundtrip_is_exact(self, rng):
        array = rng.random((5, 3))
        decoded = decode_array(encode_array(array))
        np.testing.assert_array_equal(decoded, array)
        assert array_digest(decoded) == array_digest(array)

    def test_digest_is_layout_invariant(self, rng):
        array = rng.random((6, 4))
        assert array_digest(array) \
            == array_digest(np.asfortranarray(array))

    def test_server_config_validation(self):
        with pytest.raises(ConfigError):
            ServerConfig(tenant_quota=10, max_queue=4)
        with pytest.raises(ConfigError):
            ServerConfig(port=99999)
        with pytest.raises(ConfigError):
            ServerConfig(retry_after_seconds=float("nan"))


class TestRunResultValue:
    def test_missing_variable_names_the_alternatives(self):
        _, result = _direct_run()
        with pytest.raises(KeyError) as excinfo:
            result.value("nonexistent")
        message = str(excinfo.value)
        assert "nonexistent" in message
        assert "available result variables" in message
        assert "x" in message
