"""The serve-to-kernel benchmark behind ``BENCHMARK.json``.

One workload, as the benchmark driver calls it (the last line of standard
output is the result object; everything above it is for people)::

    python3 benchmarks/e2e/run.py --workload serve_jobs --seed 3 \\
        --seconds 20 --trace 0

The whole suite (every workload untraced in a fresh process, then traced
for the per-layer numbers; results land in ``benchmarks/e2e/out/``)::

    python3 benchmarks/e2e/run.py --seed 0            # full length
    python3 benchmarks/e2e/run.py --smoke             # same paths, <=3 s each
    python3 benchmarks/e2e/run.py --sets 2            # noise check, untraced

See ``README.md`` beside this file for the metric and workload tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BUILD = os.path.join(ROOT, ".bench_build")

#: Engine overrides a shell may carry; cleared so the end-to-end numbers
#: are what the default construction path gives a user.
CLEARED_ENV = ("REPRO_ENGINE_BACKEND", "REPRO_ENGINE_THREADS",
               "REPRO_COMPILED_FLAVOR")

RUN_SECONDS = 20
#: Set-up runs at least this often, and cheap set-ups until this many
#: seconds or repeats are spent; the run reports the median.
SETUP_REPEATS, SETUP_SECONDS, SETUP_REPEATS_MOST = 3, 2.0, 15
SMOKE_SECONDS = 1.0

#: name -> (unit, better, bound).  Every workload reports every one.
#: The bounds on the three timings are the contract's ceiling: identical
#: runs on this shared 2-core host differ by 6-15 % between quartiles
#: (slow spells of minutes that lift user time by up to half), so a
#: tighter bound would flag the host, not the code.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_latency_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}


def prepare_environment() -> List[str]:
    """Clear engine overrides, keep every write inside the checkout, and
    put the checkout's own ``src`` first on the path."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"e2e benchmark: no program to measure under {SRC}")
    cleared = [name for name in CLEARED_ENV if os.environ.pop(name, None)]
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(BUILD, "repro-kernels")
    sys.path[:0] = [SRC, HERE]
    return cleared


def host_info(cleared: List[str]) -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": {name: os.environ.get(name, "unset") for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "cleared_env": cleared,
    }


# -- one workload ----------------------------------------------------------


def enough_setups(setups: List[float], smoke: bool) -> bool:
    if smoke:
        return len(setups) >= 1
    return len(setups) >= SETUP_REPEATS and (
        sum(setups) >= SETUP_SECONDS or len(setups) >= SETUP_REPEATS_MOST)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, cleared: List[str]) -> Dict[str, object]:
    import loadgen
    import workloads

    ctx = {"src": SRC, "scratch": os.path.join(BUILD, "e2e"),
           "env": dict(os.environ), "out": OUT, "smoke": smoke}
    workload = workloads.WORKLOADS[name](seed, ctx)
    failures: List[str] = []
    setups: List[float] = []
    layer_values: Dict[str, float] = {}
    notes: Dict[str, object] = {}
    loop = {"samples": [], "failures": [], "late": []}
    try:
        while not enough_setups(setups, smoke):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        if trace:
            import layers

            layer_values, notes = layers.traced_pass(workload, seconds)
        else:
            loop = loadgen.closed_loop(workload.n_clients, seconds,
                                       workload.op)
            failures = list(loop["failures"])
            failures += workload.finish(loop["samples"])
    except loadgen.OpFailed as exc:
        failures.append(f"aborted: {exc}")
    finally:
        workload.teardown()
    samples = loop["samples"]
    attempted = len(samples) + len(failures)
    if trace:
        attempted = max(1, int(notes.get("attempted", 1)))
        failures += notes.pop("failures", [])
        metrics = {name: layer_values.get(name, 0.0) for name in per_layer()}
        units = {name: per_layer()[name][0] for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "op_latency_s": workload.op_latency_s(samples) if samples else 0.0,
            "ops_per_s": workload.ops_per_s(samples) if samples else 0.0,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        units = {name: END_TO_END[name][0] for name in metrics}
    detail = {
        "workload": name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": trace, "smoke": smoke,
        "inputs_sha256": workload.inputs_sha256,
        "samples": len(samples), "setups_s": setups,
        "failed_share": len(failures) / max(1, attempted),
        "failures": failures[:20], "host": host_info(cleared), **notes,
    }
    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)}"
          f"{' smoke' if smoke else ''}")
    print(f"# inputs_sha256 {workload.inputs_sha256}")
    for metric, value in metrics.items():
        print(f"{metric:45s} {value!r:>24} {units[metric]}")
    print(f"{'failed_share':45s} {detail['failed_share']!r:>24} ratio "
          f"({len(failures)} of {attempted})")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }


def per_layer() -> Dict[str, tuple]:
    import layers

    return layers.PER_LAYER


# -- the suite -------------------------------------------------------------


def child(workload: str, seed: int, seconds: float, trace: int,
          smoke: bool) -> Dict[str, object]:
    """One workload in a fresh process (its own peak RSS, its own caches)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{workload} (trace {trace}) exited {done.returncode}")
    result = json.loads(lines[-1])
    result["detail"] = next(json.loads(line[len("DETAIL "):])
                            for line in lines if line.startswith("DETAIL "))
    return result


def manifest() -> Dict[str, object]:
    """What ``BENCHMARK.json`` must say, from the catalogue in the code."""
    import workloads

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why}
                      for cls in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in per_layer().items()],
    }


def suite(seed: int, sets: int, smoke: bool, cleared: List[str]) -> int:
    import workloads

    seconds = SMOKE_SECONDS if smoke else RUN_SECONDS
    names = list(workloads.WORKLOADS)
    lines: List[str] = []

    def say(line: str = "") -> None:
        print(line, flush=True)
        lines.append(line)

    untraced = [{name: child(name, seed, seconds, 0, smoke) for name in names}
                for _ in range(max(1, sets))]
    ok = all(r["correct"] for one in untraced for r in one.values())
    # The children inherit the environment this process already cleared.
    host = dict(untraced[0][names[0]]["detail"]["host"], cleared_env=cleared)
    say(f"host: {json.dumps(host, sort_keys=True)}")
    say(f"seed {seed}, {seconds:g} s per run{', smoke: true' if smoke else ''}")
    say()
    say(f"{'end-to-end metric':18s} {'workload':14s} "
        + " ".join(f"{'set ' + str(k + 1):>14s}" for k in range(len(untraced)))
        + f" {'unit':5s} {'differ by':>9s} {'bound':>6s}")
    for name in names:
        for metric, (unit, _, bound) in END_TO_END.items():
            values = [one[name]["metrics"][metric]["value"]
                      for one in untraced]
            gap = max(abs(v - values[0]) / values[0] for v in values)
            inside = gap <= bound
            ok = ok and (inside or sets < 2)
            say(f"{metric:18s} {name:14s} "
                + " ".join(f"{v:14.6g}" for v in values)
                + f" {unit:5s} {gap:9.2%} {bound:6.0%}"
                + ("" if inside or sets < 2 else "  OUTSIDE"))
        detail = untraced[0][name]["detail"]
        say(f"{'failed_share':18s} {name:14s} "
            + " ".join(f"{one[name]['detail']['failed_share']:14.6g}"
                       for one in untraced) + " ratio   (any increase)")
        say(f"  inputs_sha256 {detail['inputs_sha256']}  "
            f"samples {detail['samples']}")
    results = {"host": host, "seed": seed, "seconds": seconds, "smoke": smoke,
               "untraced": untraced}
    if sets < 2:
        traced = {name: child(name, seed, seconds, 1, smoke) for name in names}
        ok = ok and all(r["correct"] for r in traced.values())
        results["traced"] = traced
        say()
        say(f"{'per-layer metric':45s} "
            + " ".join(f"{name:>14s}" for name in names) + " unit")
        for metric, (unit, _) in per_layer().items():
            say(f"{metric:45s} " + " ".join(
                f"{traced[name]['metrics'][metric]['value']:14.6g}"
                for name in names) + f" {unit}")
        for name in names:
            say(f"  {name}: " + json.dumps(
                {k: v for k, v in traced[name]["detail"].items()
                 if k in ("labels", "sample_counts", "compiled")},
                sort_keys=True))
    say()
    say("PASS" if ok else "FAIL")
    if not smoke:
        os.makedirs(OUT, exist_ok=True)
        stem = f"sets-seed{seed}" if sets >= 2 else f"results-seed{seed}"
        with open(os.path.join(OUT, stem + ".txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(os.path.join(OUT, stem + ".json"), "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short runs, same code paths; nothing is saved")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the untraced suite N times and compare")
    parser.add_argument("--manifest", action="store_true",
                        help="print what BENCHMARK.json must contain")
    args = parser.parse_args(argv)
    cleared = prepare_environment()
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        return suite(args.seed, args.sets, args.smoke, cleared)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    result = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), args.smoke, cleared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
