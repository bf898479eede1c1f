"""Compare two results, or two sets of results, of ``run.py --out``.

    python3 benchmarks/layers/compare.py BASE.json NEW.json
    python3 benchmarks/layers/compare.py --base B1.json B2.json ... \\
                                         --new N1.json N2.json ...

Prints one row per workload x end-to-end metric: the base and new medians
(with quartiles when a side has several runs), their ratio, and a verdict
under the bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — the new median is worse than the base by more than the bound;
* ``unresolved`` — the run-to-run spread of either side exceeds the bound, so
  neither ``unchanged`` nor ``regressed`` can be said (unless every new run
  beats every base run);
* ``improved``   — the new side wins at least nine tenths of the run pairs and
  the medians differ by more than the base's own inter-quartile distance (with
  one run a side: better by more than the bound);
* ``unchanged``  — none of the above.

``sim_execution_s`` and the traced per-layer counts must be identical between
every base run and every new run of the same seed. Exit code 1 on any
``regressed`` or ``changed``, on any failed operation, and when the two sides
did not run the same set of seeds, so that the exact figures went unchecked.
"""

from __future__ import annotations

import argparse
import json
import sys

import schema
from stats import quartiles, spread


def load(paths: list[str], benchmark: dict) -> list[dict]:
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        problems = schema.validate(result, benchmark)
        if problems:
            raise SystemExit(f"{path} does not follow the schema: "
                             f"{problems[0]}")
        results.append(result)
    return results


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change in the direction that is worse (negative = better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    base_q1, base_median, base_q3 = quartiles(base)
    new_median = quartiles(new)[1]
    worse = worse_by(base_median, new_median, better)
    wins = sum(worse_by(b, n, better) < 0 for b, n in zip(base, new))
    losses = sum(worse_by(b, n, better) > 0 for b, n in zip(base, new))
    clean_sweep = all(worse_by(b, n, better) < 0 for b in base for n in new)
    if max(spread(base), spread(new)) > bound:
        return "improved" if clean_sweep else "unresolved"
    if worse > bound:
        return "regressed"
    if len(base) == 1 or len(new) == 1:
        return "improved" if -worse > bound else "unchanged"
    decided = wins + losses
    if decided and wins >= 0.9 * decided \
            and abs(new_median - base_median) > base_q3 - base_q1:
        return "improved"
    return "unchanged"


def summary(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    if len(values) == 1:
        return f"{q2:.6g}"
    return f"{q2:.6g} [{q1:.6g}..{q3:.6g}]"


def exact_differences(base: list[dict], new: list[dict], name: str,
                      benchmark: dict) -> list[str] | None:
    """Exact figures of workload ``name`` that differ between a base run
    and a new run of the same seed; None when the two sides did not run
    the same set of seeds, so that they cannot be held equal."""
    if {result["seed"] for result in base} != \
            {result["seed"] for result in new}:
        return None
    exact = [metric["name"] for metric in benchmark["per_layer"]
             if metric["unit"] in schema.EXACT_UNITS]
    differing = set()
    for ours in base:
        for theirs in new:
            if ours["seed"] != theirs["seed"]:
                continue
            one, other = ours["workloads"][name], theirs["workloads"][name]
            if one["ungated"]["sim_execution_s"] \
                    != other["ungated"]["sim_execution_s"]:
                differing.add("sim_execution_s")
            if one["per_layer"] and other["per_layer"]:
                differing |= {metric for metric in exact
                              if one["per_layer"][metric]
                              != other["per_layer"][metric]}
    return sorted(differing)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args()
    if args.files and (len(args.files) != 2 or args.base or args.new):
        parser.error("give BASE.json NEW.json, or --base ... --new ...")
    base_paths = args.base or args.files[:1]
    new_paths = args.new or args.files[1:]
    if not base_paths or not new_paths:
        parser.error("nothing to compare")

    benchmark = schema.load_benchmark()
    base, new = load(base_paths, benchmark), load(new_paths, benchmark)
    rows = [["workload", "metric", "unit", "base", "new", "new/base",
             "bound", "verdict"]]
    bad = False
    for workload in benchmark["workloads"]:
        name = workload["name"]
        # A file may hold any subset of the workloads.
        base_runs = [result for result in base if name in result["workloads"]]
        new_runs = [result for result in new if name in result["workloads"]]
        if not base_runs or not new_runs:
            continue
        for metric in benchmark["end_to_end"]:
            ours = [result["workloads"][name]["end_to_end"][metric["name"]]
                    for result in base_runs]
            theirs = [result["workloads"][name]["end_to_end"][metric["name"]]
                      for result in new_runs]
            outcome = verdict(ours, theirs, metric["better"], metric["bound"])
            bad |= outcome == "regressed"
            rows.append([name, metric["name"], metric["unit"], summary(ours),
                         summary(theirs),
                         f"{quartiles(theirs)[1] / quartiles(ours)[1]:.3f}",
                         f"{metric['bound']:.2f}", outcome])
        differing = exact_differences(base_runs, new_runs, name, benchmark)
        failed = sum(result["workloads"][name]["failed"]
                     for result in base_runs + new_runs)
        if differing is None:
            outcome = "seeds differ, not compared"
        else:
            outcome = "changed: " + ", ".join(differing) if differing \
                else "identical"
        bad |= differing != [] or failed > 0
        rows.append([name, "exact figures", "", "", "", "", "0", outcome])
        rows.append([name, "failed", "count", "", "", "", "0", str(failed)])
    schema.print_rows(rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
