"""Check the benchmark against its contract, mechanically.

Runs every workload in ``--smoke`` mode, untraced and traced, and checks
that ``BENCHMARK.json`` says what the code prints: the same names with
the same units, inside the contract's limits, with no failed operation.

    python3 benchmarks/e2e/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}


def problems() -> list:
    found = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    if declared != run.manifest():
        found.append("BENCHMARK.json differs from `run.py --manifest`")
    if set(declared) != KEYS:
        found.append(f"BENCHMARK.json keys are {sorted(declared)}")
    sections = {key: declared[key]
                for key in ("workloads", "end_to_end", "per_layer")}
    for key, low, high in (("workloads", 2, 8), ("end_to_end", 1, 16),
                           ("per_layer", 1, 128)):
        if not low <= len(sections[key]) <= high:
            found.append(f"{len(sections[key])} {key}, allowed {low}..{high}")
    names = [row["name"] for rows in sections.values() for row in rows]
    found += [f"name {name!r} breaks the name rule" for name in names
              if not NAME.match(name)]
    found += [f"name {name!r} is used twice" for name in set(names)
              if names.count(name) > 1]
    for row in sections["workloads"]:
        if set(row) != {"name", "why"} or not 0 < len(row["why"]) <= 200 \
                or "\n" in row["why"]:
            found.append(f"workload {row['name']}: needs a one-line why")
    for row in sections["end_to_end"] + sections["per_layer"]:
        if not UNIT.match(row.get("unit", "")) \
                or row.get("better") not in ("lower", "higher"):
            found.append(f"{row['name']}: bad unit or direction")
    for row in sections["end_to_end"]:
        if not 0 < row.get("bound", 0) <= 0.25:
            found.append(f"{row['name']}: bound must be in (0, 0.25]")
    if not any(row["name"] == "setup_s" and row["unit"] == "s"
               and row["better"] == "lower" for row in sections["end_to_end"]):
        found.append("no setup_s metric in seconds, lower is better")
    runs = 4 + 22 * len(sections["workloads"])
    if not 1 <= declared["run_seconds"] <= 60:
        found.append("run_seconds must be 1..60")

    for workload in (row["name"] for row in sections["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run.child(workload, 0, run.SMOKE_SECONDS, trace, True)
            label = f"{workload} --trace {trace}"
            if set(result) - {"detail"} != {"correct", "attempted", "failed",
                                           "metrics"}:
                found.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] \
                    or result["attempted"] < 1:
                found.append(f"{label}: failed_share is not 0 "
                             f"({result['detail']['failures'][:3]})")
            if not result["detail"]["smoke"]:
                found.append(f"{label}: not marked smoke")
            want = {row["name"]: row["unit"] for row in sections[section]}
            got = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
            if want != got:
                found.append(f"{label}: printed and declared metrics differ: "
                             f"{sorted(set(want) ^ set(got))}")
            if not trace:
                found += [f"{label}: {name} is {metric['value']!r}"
                          for name, metric in result["metrics"].items()
                          if not metric["value"] > 0]
    print(f"{runs} driver runs of {declared['run_seconds']} s declared; "
          f"{len(names)} names checked")
    return found


def main() -> int:
    run.prepare_environment()
    found = problems()
    for line in found:
        print("PROBLEM:", line)
    print("selftest:", "FAIL" if found else "OK")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
