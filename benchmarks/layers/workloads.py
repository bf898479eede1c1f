"""The five workloads: what one operation is, and how its output is checked.

Imported only inside the per-workload interpreter (it needs ``repro`` on
the path). Every workload is a closed loop with one caller. An *item* is
one program x dataset; a *round* runs each item once. The timed loop in
``child.py`` calls :meth:`operate` inside the clock and :meth:`signature`
outside it; :meth:`check` runs once after timing, against the outputs the
timed loop itself produced.

The program-facing calls go through module attributes (``parser.parse``,
``engines.make_engine``, ``protocol.decode_array``) so that the traced run
can wrap them where they are looked up.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro import engines
from repro.algorithms import get_algorithm, run_reference
from repro.config import ServerConfig
from repro.data import load_dataset
from repro.lang import parser
from repro.server import protocol
from repro.server.client import ServerClient
from repro.server.net import ServerHandle

SCALE = 0.5
ITERATIONS = 10
ENGINE = "remac"
WARMUP_ROUNDS = 3
SETUP_PHASES = ("import", "load_dataset", "make_inputs", "server_start",
                "cold_compile", "warmup")
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: Same tolerances as tests/test_integration.py (atol; rtol is 10x).
TOLERANCES = {"gd": 1e-6, "dfp": 1e-4, "bfgs": 1e-4, "gnmf": 1e-6}


class CheckFailure(Exception):
    """An operation returned, but not what a correct program returns."""


class Phases:
    """Wall seconds per named set-up phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - started


class Item:
    """One program x dataset with its generated inputs."""

    def __init__(self, label: str, phases: Phases, seed: int | None,
                 iterations: int = ITERATIONS):
        algorithm, dataset = label.split("/")
        self.label = label
        self.iterations = iterations
        self.algo = get_algorithm(algorithm)
        # seed=None reproduces the data a server generates for itself.
        keyword = {} if seed is None else {"seed": seed}
        with phases("load_dataset"):
            matrix = load_dataset(dataset, scale=SCALE, **keyword).matrix
        with phases("make_inputs"):
            self.meta, self.data = self.algo.make_inputs(matrix, **keyword)
        self.program = self.algo.program(iterations)

    def compile(self, engine):
        return engine.compile(self.program, self.meta, self.data,
                              iterations=self.iterations)

    def execute(self, engine, compiled):
        return engine.execute(compiled, self.data,
                              symmetric=self.algo.symmetric_inputs)

    def run_direct(self):
        """A direct ``Engine.run`` on a fresh engine."""
        return engines.make_engine(ENGINE).run(
            self.program, self.meta, self.data,
            symmetric=self.algo.symmetric_inputs, iterations=self.iterations)

    def reference_failures(self, values: dict, enabled: bool) -> list[str]:
        """Outputs that differ from the independent NumPy reference."""
        if not enabled:
            return []
        reference = run_reference(self.algo.name, self.data, self.iterations)
        tolerance = TOLERANCES[self.algo.name]
        return [f"{self.label}: {name} differs from the NumPy reference"
                for name, value in values.items()
                if not np.allclose(value, reference[name], atol=tolerance,
                                   rtol=tolerance * 10)]


def run_counts(result) -> dict[str, float]:
    """Exact per-run counts the runtime and cluster layers keep."""
    metrics = result.metrics
    operators = metrics.operator_counts  # keyed by OpPrice.impl
    phases = metrics.seconds_by_phase
    return {
        "runtime.ops_local": operators.get("local", 0),
        "runtime.ops_bmm": operators.get("bmm", 0)
        + operators.get("bmm_flipped", 0),
        "runtime.ops_cpmm": operators.get("cpmm", 0),
        "runtime.ops_distributed": operators.get("distributed", 0),
        "runtime.fused_regions": operators.get("fused_ewise", 0)
        + operators.get("mmchain", 0) + operators.get("mmchain_local", 0),
        "cluster.sim_bytes": sum(metrics.bytes_by_primitive.values()),
        "cluster.sim_compute_s": phases.get("computation", 0.0),
        "cluster.sim_transmission_s": phases.get("transmission", 0.0),
    }


class Workload:
    """Interface the timed loop drives; subclasses fill in the operation."""

    name = ""
    labels: tuple[str, ...] = ()
    #: Name of the span that wraps one whole operation in a traced run.
    root_span = "op"

    def __init__(self, seed: int, phases: Phases):
        self.seed = seed

    def order(self, round_index: int) -> list[int]:
        """Item positions in the order this round runs them."""
        return list(range(len(self.labels)))

    def operate(self, position: int, round_index: int):
        raise NotImplementedError

    def signature(self, position: int, result):
        """A cheap value that must be the same for every operation on this
        item, traced or not; raises :class:`CheckFailure` on a bad result."""
        raise NotImplementedError

    def digest(self, position: int, result):
        """An exact digest of one operation's output, compared between the
        last untraced and the last traced operation on each item."""
        return self.signature(position, result)

    def observe(self, position: int, result) -> dict[str, float]:
        """Counts read off one operation's result (traced run only)."""
        return {}

    def check(self, last: dict[int, object],
              reference: bool) -> tuple[list[str], float]:
        """(failures, sim_execution_s) from the last result of each item;
        ``reference=False`` skips only the NumPy reference runs."""
        raise NotImplementedError

    def direct_pair(self):
        """(served operation, direct ``Engine.execute`` of the same plan)
        as two thunks, for ``server.served_over_direct_x``; None when the
        workload is not served."""
        return None

    def rejected(self) -> int:
        """Requests a server refused (0 where there is no server)."""
        return 0

    def close(self) -> None:
        pass


class _DirectWorkload(Workload):
    def __init__(self, seed: int, phases: Phases):
        super().__init__(seed, phases)
        self.items = [Item(label, phases, seed) for label in self.labels]

    def _check_runs(self, runs: dict[int, object],
                    reference: bool) -> tuple[list[str], float]:
        failures: list[str] = []
        for position, item in enumerate(self.items):
            run = runs[position]
            failures += item.reference_failures(
                {name: run.value(name) for name in item.algo.outputs},
                reference)
        return failures, sum(run.execution_seconds for run in runs.values())


class CompileHeavy(_DirectWorkload):
    """Script text to plan, fully cold: parse + fresh engine + compile."""

    name = "compile_heavy"
    labels = ("dfp/cri1", "bfgs/red3")

    def operate(self, position, round_index):
        item = self.items[position]
        program = parser.parse(item.algo.script,
                               scalar_names=item.algo.scalar_names,
                               max_iterations=ITERATIONS)
        engine = engines.make_engine(ENGINE)
        return engine.compile(program, item.meta, item.data,
                              iterations=ITERATIONS)

    def signature(self, position, compiled):
        if compiled.notes.get("plan_cache") != "miss":
            raise CheckFailure("compile was not cold")
        return (compiled.estimated_cost,
                tuple(str(option) for option in compiled.applied_options))

    def observe(self, position, compiled):
        memo = compiled.notes["cost_memo"]
        return {"core.options_found": compiled.notes["options_found"],
                "core.options_applied": len(compiled.applied_options),
                "cost_memo.hits": memo["price_hits"],
                "cost_memo.lookups": memo["price_hits"] + memo["price_misses"],
                "plancache.lookups": 1}

    def check(self, last, reference):
        engine = engines.make_engine(ENGINE)
        return self._check_runs({
            position: item.execute(engine, last[position])
            for position, item in enumerate(self.items)}, reference)


class _Execute(_DirectWorkload):
    """``Engine.execute`` of a warm plan."""

    def __init__(self, seed: int, phases: Phases):
        super().__init__(seed, phases)
        self.engine = engines.make_engine(ENGINE)
        with phases("cold_compile"):
            self.compiled = [item.compile(self.engine) for item in self.items]

    def operate(self, position, round_index):
        return self.items[position].execute(self.engine,
                                            self.compiled[position])

    def signature(self, position, run):
        return run.execution_seconds

    def digest(self, position, run):
        return protocol.digest_result(run, self.items[position].algo.outputs)

    def observe(self, position, run):
        return run_counts(run)

    def check(self, last, reference):
        return self._check_runs(last, reference)


class ExecuteThin(_Execute):
    name = "execute_thin"
    labels = ("dfp/cri1", "bfgs/red1", "gd/cri1")


class ExecuteFat(_Execute):
    name = "execute_fat"
    labels = ("dfp/red3", "gnmf/red2", "gd/cri3")


class _Served(Workload):
    """One ``ServerClient`` connection to an in-process server."""

    root_span = "server.wire"
    iterations = ITERATIONS

    def __init__(self, seed: int, phases: Phases):
        super().__init__(seed, phases)
        with phases("server_start"):
            self.handle = ServerHandle(ServerConfig(port=0))
            self.client = ServerClient(self.handle.host, self.handle.port,
                                       timeout=60.0)
        self._direct: dict[int, Item] = {}
        with phases("cold_compile"):
            for position in range(len(self.labels)):
                response = self.request(position, 0)
                if response.get("status") != "ok":
                    raise RuntimeError(f"cold request failed: {response}")

    def request(self, position: int, round_index: int) -> dict:
        """The workload's client call for one item; its response."""
        raise NotImplementedError

    def _request_fields(self, position: int, round_index: int) -> dict:
        algorithm, dataset = self.labels[position].split("/")
        tenant = TENANTS[(self.seed + round_index + position) % len(TENANTS)]
        return {"algorithm": algorithm, "dataset": dataset, "tenant": tenant,
                "scale": SCALE, "iterations": self.iterations}

    @staticmethod
    def _require_warm(response: dict) -> None:
        if response.get("status") != "ok":
            raise CheckFailure(f"status {response.get('status')!r}: "
                               f"{response.get('error')}")
        if response.get("plan_cache") != "hit":
            raise CheckFailure(f"plan cache {response.get('plan_cache')!r}")

    def direct_item(self, position: int) -> Item:
        """The item as the server generated it, for direct comparison."""
        if position not in self._direct:
            self._direct[position] = Item(self.labels[position], Phases(),
                                          seed=None,
                                          iterations=self.iterations)
        return self._direct[position]

    def rejected(self) -> int:
        """Requests the server has refused since it started."""
        counters = self.client.stats()["counters"]
        return sum(value for key, value in counters.items()
                   if key.startswith("rejected_"))

    def close(self) -> None:
        self.client.close()
        self.handle.stop()


class ServeControl(_Served):
    """Warm ``optimize``: everything but execution and result packaging."""

    name = "serve_control"
    labels = ("dfp/cri1", "dfp/cri2", "bfgs/cri1", "bfgs/cri2",
              "gd/cri1", "gd/cri2")

    def __init__(self, seed: int, phases: Phases):
        self._order = list(range(len(self.labels)))
        random.Random(seed).shuffle(self._order)
        super().__init__(seed, phases)

    def order(self, round_index):
        return self._order

    def request(self, position, round_index):
        return self.client.optimize(
            **self._request_fields(position, round_index))

    operate = request

    def signature(self, position, response):
        self._require_warm(response)
        return (response["estimated_cost_s"],
                tuple(response["applied_options"]))

    def observe(self, position, response):
        return {"plancache.lookups": 1, "server.plan_cache_hits": 1,
                "server.queue_ms": response["queue_ms"],
                "server.compile_ms": response["compile_ms"]}

    def check(self, last, reference):
        failures: list[str] = []
        simulated = 0.0
        for position, label in enumerate(self.labels):
            item = self.direct_item(position)
            run = item.run_direct()
            simulated += run.execution_seconds
            if run.compiled.estimated_cost != \
                    last[position]["estimated_cost_s"]:
                failures.append(f"{label}: served plan cost differs from "
                                f"a direct compile")
            failures += item.reference_failures(
                {name: run.value(name) for name in item.algo.outputs},
                reference)
        return failures, simulated

    def direct_pair(self):
        item = self.direct_item(0)
        engine = engines.make_engine(ENGINE)
        compiled = item.compile(engine)
        fields = self._request_fields(0, 0)
        return (lambda: self.client.run(**fields),
                lambda: item.execute(engine, compiled))


class ServePayload(_Served):
    """Warm ``run`` returning 3.3 MB of result values over the wire."""

    name = "serve_payload"
    labels = ("dfp/cri3",)
    iterations = 2
    outputs = ("x", "H")

    def request(self, position, round_index):
        return self.client.run(
            **self._request_fields(position, round_index),
            outputs=self.outputs, return_values=True)

    def operate(self, position, round_index):
        response = self.request(position, round_index)
        arrays = {name: protocol.decode_array(entry)
                  for name, entry in response.get("results", {}).items()
                  if "data" in entry}
        return response, arrays

    def signature(self, position, result):
        response, arrays = result
        self._require_warm(response)
        if set(arrays) != set(self.outputs):
            raise CheckFailure("response carries no result values")
        return (response["simulated_execution_s"],
                tuple(response["results"][name]["sha256"]
                      for name in self.outputs))

    def observe(self, position, result):
        response = result[0]
        return {"plancache.lookups": 1, "server.plan_cache_hits": 1,
                "server.queue_ms": response["queue_ms"],
                "server.compile_ms": response["compile_ms"],
                "server.execute_ms": response["execute_ms"]}

    def check(self, last, reference):
        response, arrays = last[0]
        item = self.direct_item(0)
        run = item.run_direct()
        failures = []
        expected = protocol.digest_result(run, self.outputs)
        for name in self.outputs:
            served = response["results"][name]["sha256"]
            if not served == expected[name] == \
                    protocol.array_digest(arrays[name]):
                failures.append(f"{item.label}: SHA-256 of served {name} "
                                f"differs from a direct Engine.run")
        if response["simulated_execution_s"] != run.execution_seconds:
            failures.append(f"{item.label}: served simulated time differs")
        failures += item.reference_failures(arrays, reference)
        return failures, run.execution_seconds

    def direct_pair(self):
        item = self.direct_item(0)
        engine = engines.make_engine(ENGINE)
        compiled = item.compile(engine)
        return (lambda: self.operate(0, 0),
                lambda: item.execute(engine, compiled))


WORKLOADS = {cls.name: cls for cls in (CompileHeavy, ExecuteThin, ExecuteFat,
                                       ServeControl, ServePayload)}
