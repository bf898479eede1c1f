"""The layered wall-clock benchmark: one command, every metric by name.

    python3 benchmarks/layers/run.py [--workload NAME] [--seed S]
        [--seconds T] [--trace {0,1}] [--out FILE] [--smoke]

Each workload runs in a fresh interpreter (``child.py``) with BLAS pinned
to one thread and ``src/`` on its path, beside one host-probe process
(``probe.py``) pinned to the same CPU. Untraced, a workload is set up
SETUPS times (``setup_s`` is the median) and timed once; traced, it is
timed untraced and then again with the layers wrapped, which yields the
per-layer metrics. With one ``--workload`` the last line printed is the
JSON object the benchmark contract in ``BENCHMARK.json`` asks for. Exit
code 0 means every output was checked and correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import schema
from probe import HostProbe
from stats import median

HERE = Path(__file__).resolve().parent
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"
CHILD_TIMEOUT_SECONDS = 160
#: Set-ups per untraced workload; ``setup_s`` is their median.
SETUPS = 3
SMOKE_ARGUMENTS = ["--smoke", "--trace", "1"]
#: Reported by every run but not gated: BENCHMARK.json lists them, with
#: their units, in its unbounded per-layer group (see README.md for why).
UNGATED = ("latency_ms_p90", "sim_execution_s", "failed_share")


class ChildFailed(RuntimeError):
    pass


def child_environment() -> dict[str, str]:
    environment = dict(os.environ)
    for variable in BLAS_VARIABLES:
        environment[variable] = BLAS_THREADS
    inherited = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = str(schema.ROOT / "src") + (
        os.pathsep + inherited if inherited else "")
    return environment


def allowed_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else [0]


@contextmanager
def probe_process(cpu: int):
    """The host probe pinned to ``cpu``, as the ``--cpu`` and ``--probe``
    arguments of the interpreters that run beside it, one at a time."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(cpu)],
        env=child_environment(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE)
    try:
        descriptors = (process.stdin.fileno(), process.stdout.fileno())
        settle = HostProbe(*descriptors)
        for _ in range(4):  # the first readings pay NumPy's own start-up
            settle.take()
        yield ["--cpu", str(cpu), "--probe", *map(str, descriptors)]
    finally:
        process.stdin.close()
        process.wait()
        process.stdout.close()


def run_child(workload: str, seed: int, beside: list[str],
              arguments: list[str]) -> dict:
    """One fresh interpreter beside the probe process ``beside`` names;
    its report, or :class:`ChildFailed`."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), *beside, *arguments,
               "--started", repr(time.time())]
    try:
        finished = subprocess.run(command, env=child_environment(),
                                  stdout=subprocess.PIPE, text=True,
                                  pass_fds=[int(fd) for fd in beside[-2:]],
                                  timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: no result within "
                          f"{CHILD_TIMEOUT_SECONDS}s") from None
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: interpreter exited with code "
                          f"{finished.returncode}")
    return json.loads(lines[-1])


def workload_entry(report: dict, setups: list[float], benchmark: dict) -> dict:
    """A child's report in the result schema's shape."""
    items, rounds = report["items"], report["rounds"]
    end_to_end = {name: report[name]
                  for name in schema.metric_names(benchmark, "end_to_end")
                  if name != "setup_s"}
    end_to_end["setup_s"] = median(setups)
    ungated = {"latency_ms_p90": report["latency_ms_p90"],
               "sim_execution_s": report["sim_execution_s"],
               "failed_share": report["failed"] / report["attempted"]}
    per_layer = report.get("per_layer")
    if per_layer is not None:
        per_layer = {**per_layer, **ungated}
    return {
        "items": items, "K": len(items), "n": rounds, "N": len(items) * rounds,
        "attempted": report["attempted"], "failed": report["failed"],
        "errors": report["errors"], "end_to_end": end_to_end,
        "ungated": ungated, "per_layer": per_layer,
        "item_latency_ms_p50": report["item_latency_ms_p50"],
        "round_ms": report["round_ms"], "host": report["host"],
        "setup_s_runs": setups, "setup_phases_s": report["setup_phases_s"],
    }


def git_commit() -> str | None:
    if not (schema.ROOT / ".git").exists():
        return None
    found = subprocess.run(["git", "-C", str(schema.ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, text=True)
    return found.stdout.strip() or None


def result_of(entries: dict, versions: dict, args, traced: bool) -> dict:
    return {
        "schema": schema.SCHEMA,
        "host": {"nproc": os.cpu_count(), "platform": platform.platform(),
                 **versions, "blas_threads": BLAS_THREADS},
        "git_commit": git_commit(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "traced": traced,
        "workloads": entries,
    }


def print_table(result: dict, benchmark: dict) -> None:
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    columns = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] \
        + [(name, units[name]) for name in UNGATED]
    rows = [["workload", "N"] + [f"{name}[{unit}]" for name, unit in columns]]
    for name, entry in result["workloads"].items():
        values = {**entry["end_to_end"], **entry["ungated"]}
        rows.append([name, str(entry["N"])]
                    + [f"{values[column]:.6g}" for column, _ in columns])
    schema.print_rows(rows)
    if result["traced"]:
        print()
        schema.print_rows(
            [["per-layer metric [unit]"] + list(result["workloads"])]
            + [[f"{metric['name']} [{metric['unit']}]"]
               + [f"{entry['per_layer'][metric['name']]:.6g}"
                  for entry in result["workloads"].values()]
               for metric in benchmark["per_layer"]])
    for name, entry in result["workloads"].items():
        for error in entry["errors"]:
            print(f"FAILED {name}: {error}")


def contract_line(entry: dict, benchmark: dict, traced: bool) -> str:
    """The last line the benchmark contract asks for."""
    group = "per_layer" if traced else "end_to_end"
    values = entry[group]
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"], "failed": entry["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in benchmark[group]},
    }, allow_nan=False)


def measure(names: list[str], benchmark: dict, args,
            traced: bool) -> tuple[dict, list[str]]:
    """Each workload in turn: (result, departures from the schema)."""
    timing = ["--seconds", str(args.seconds)]
    entries, versions = {}, {}
    with probe_process(allowed_cpus()[-1]) as beside:
        for name in names:
            setups, arguments = [], timing
            if traced:
                arguments = timing + ["--trace", "1"]
                if args.out:
                    arguments += ["--spans",
                                  f"{args.out}.{name}.spans.jsonl"]
            else:
                setups = [run_child(name, args.seed, beside,
                                    timing + ["--setup-only"])["setup_s"]
                          for _ in range(SETUPS - 1)]
            report = run_child(name, args.seed, beside, arguments)
            versions = report["versions"]
            entries[name] = workload_entry(
                report, setups + [report["setup_s"]], benchmark)
    result = result_of(entries, versions, args, traced)
    return result, schema.validate(result, benchmark)


def smoke(names: list[str], benchmark: dict, args) -> tuple[dict, list[str]]:
    """Every workload twice at two rounds, two interpreters at a time; the
    second run of each skips the NumPy reference and exists to show that
    the exact counts repeat."""
    arguments = ["--seconds", str(args.seconds)] + SMOKE_ARGUMENTS
    cpus = allowed_cpus()[-2:]
    # First runs (heavy: they run the references) and second runs, dealt
    # out so that each CPU gets its share of both.
    jobs = [(name, extra) for extra in ([], ["--no-reference"])
            for name in names]

    def run_share(cpu: int, share: list) -> list[dict]:
        with probe_process(cpu) as beside:
            return [run_child(name, args.seed, beside, arguments + extra)
                    for name, extra in share]

    with ThreadPoolExecutor(max_workers=len(cpus)) as pool:
        reports = [report for share in pool.map(
            run_share, cpus, [jobs[i::len(cpus)] for i in range(len(cpus))])
            for report in share]
    first = {report["workload"]: report for report in reports
             if not report["no_reference"]}
    second = [report for report in reports if report["no_reference"]]
    entries = {name: workload_entry(first[name], [first[name]["setup_s"]],
                                    benchmark) for name in names}
    result = result_of(entries, first[names[0]]["versions"], args,
                       traced=True)
    problems = schema.validate(result, benchmark)
    exact = [metric["name"] for metric in benchmark["per_layer"]
             if metric["unit"] in schema.EXACT_UNITS]
    for report in second:
        ours = entries[report["workload"]]["per_layer"]
        theirs = {**report["per_layer"],
                  "sim_execution_s": report["sim_execution_s"]}
        problems += [f"{report['workload']}: {name} is {ours[name]!r} in one "
                     f"run and {theirs[name]!r} in the next"
                     for name in exact if ours.get(name) != theirs.get(name)]
        problems += [f"{report['workload']} (second run): {error}"
                     for error in report["errors"]]
    return result, problems


def main() -> int:
    benchmark = schema.load_benchmark()
    known = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="how long each workload is timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also time each workload with the layers "
                             "wrapped, for the per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="write the result (and, traced, the spans as "
                             "FILE.<workload>.spans.jsonl) here")
    parser.add_argument("--smoke", action="store_true",
                        help="two rounds of everything, traced, then "
                             "self-checks")
    args = parser.parse_args()
    names = args.workload or known
    traced = bool(args.trace)

    try:
        result, problems = smoke(names, benchmark, args) if args.smoke \
            else measure(names, benchmark, args, traced)
    except ChildFailed as failure:
        print(f"benchmark did not run: {failure}", file=sys.stderr)
        return 2

    print_table(result, benchmark)
    for problem in problems:
        print(f"PROBLEM {problem}")
    if args.out:
        schema.dump(result, args.out)
    failed = sum(entry["failed"] for entry in result["workloads"].values())
    if len(names) == 1 and not args.smoke:
        print(contract_line(result["workloads"][names[0]], benchmark, traced))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
