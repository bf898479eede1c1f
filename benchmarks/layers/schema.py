"""The one result schema, and the check that a result file follows it.

``run.py`` writes it, ``compare.py`` reads it, ``run.py --smoke`` proves
the two agree with ``BENCHMARK.json``. Written with ``allow_nan=False``:
every number is finite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SCHEMA = "repro.layers/1"
ROOT = Path(__file__).resolve().parents[2]
#: Units of per-layer metrics that must repeat exactly from run to run.
EXACT_UNITS = {"count", "sim_s", "sim_bytes"}

TOP_KEYS = {"schema", "host", "git_commit", "seed", "seconds", "smoke",
            "traced", "workloads"}
HOST_KEYS = {"nproc", "platform", "python", "numpy", "scipy", "blas_threads",
             "pinned_cpu"}
WORKLOAD_KEYS = {
    "items", "K", "n", "N", "attempted", "failed", "errors",
    "end_to_end", "ungated", "per_layer", "item_latency_ms_p50",
    "round_ms", "host", "setup_s_runs", "setup_phases_s",
}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_names(benchmark: dict, group: str) -> list[str]:
    return [metric["name"] for metric in benchmark[group]]


def dump(result: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, allow_nan=False)
        handle.write("\n")


def print_rows(rows: list[list[str]]) -> None:
    """One table: columns padded to their widest cell."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _numbers(mapping, where: str, names, problems: list[str]) -> None:
    if not isinstance(mapping, dict) or set(mapping) != set(names):
        have = set(mapping) if isinstance(mapping, dict) else set()
        problems.append(f"{where}: missing {sorted(set(names) - have)}, "
                        f"unnamed {sorted(have - set(names))}")
        return
    problems += [f"{where}.{name} is not a finite number"
                 for name, value in mapping.items() if not _number(value)]


def validate(result: dict, benchmark: dict) -> list[str]:
    """Every way ``result`` departs from the schema (empty when it does
    not). A result may hold any subset of the benchmark's workloads."""
    problems: list[str] = []
    if set(result) != TOP_KEYS:
        return [f"top-level keys are {sorted(result)}"]
    if result["schema"] != SCHEMA:
        problems.append(f"schema is {result['schema']!r}")
    if set(result["host"]) != HOST_KEYS:
        problems.append(f"host keys are {sorted(result['host'])}")
    if not isinstance(result["traced"], bool):
        problems.append("traced is not a boolean")
    known = {workload["name"] for workload in benchmark["workloads"]}
    for name, entry in result["workloads"].items():
        if name not in known:
            problems.append(f"workload {name!r} is not in BENCHMARK.json")
            continue
        if set(entry) != WORKLOAD_KEYS:
            problems.append(f"{name}: keys are {sorted(entry)}")
            continue
        if entry["K"] != len(entry["items"]) \
                or entry["N"] != entry["K"] * entry["n"] \
                or len(entry["round_ms"]) != entry["n"]:
            problems.append(f"{name}: K, n, N and the round series disagree")
        _numbers(entry["end_to_end"], f"{name}.end_to_end",
                 metric_names(benchmark, "end_to_end"), problems)
        _numbers(entry["item_latency_ms_p50"], f"{name}.item_latency_ms_p50",
                 entry["items"], problems)
        if result["traced"]:
            _numbers(entry["per_layer"], f"{name}.per_layer",
                     metric_names(benchmark, "per_layer"), problems)
        elif entry["per_layer"] is not None:
            problems.append(f"{name}: per_layer in an untraced result")
        _numbers(entry["ungated"], f"{name}.ungated",
                 ("latency_ms_p90", "sim_execution_s", "failed_share"),
                 problems)
        for key in ("attempted", "failed"):
            if not _number(entry[key]):
                problems.append(f"{name}.{key} is not a finite number")
    return problems
