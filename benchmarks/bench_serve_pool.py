"""Resident workers vs a fork per job, on the ``serve_jobs`` job shapes.

Recording only — no speed-up bar.  The three small job shapes of the
end-to-end ``serve_jobs`` workload (5 x 100 / 6 x 120 / 8 x 200 taxa x
sites, 1 inference + 1 / 2 / 3 bootstraps) go through
:func:`repro.cluster.run_job` two ways, by turns:

* **private** — no pool given: every run forks its workers, runs them
  cold, and terminates them (``cluster run``, and ``serve`` before the
  pool existed);
* **shared** — one :class:`~repro.cluster.WorkerPool` for all of them:
  workers are forked once and parked between jobs (``serve`` now).

What is asserted is correctness: each job's canonical result payload
(``perf`` counters included) is byte-identical both ways, the shared
pool's worker pids never change, and nothing is left running.  The wall
times land in the ``serve_pool`` section of ``BENCH_engine.json`` with
the host's ``cpu_count`` beside them.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve_pool.py
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO / "BENCH_engine.json"

#: (taxa, sites, bootstraps, job seed) — ``benchmarks/e2e`` ``ServeJobs.SHAPES``.
SHAPES = ((5, 100, 1, 11), (6, 120, 2, 12), (8, 200, 3, 13))
DATA_SEED = 3
N_WORKERS = 2
ROUNDS = 7


def main() -> int:
    from repro.cluster import JobSpec, WorkerPool, run_job
    from repro.harness.report import merge_bench_section
    from repro.phylo import synthetic_dataset
    from repro.serve.jobstore import result_payload

    jobs = [
        (synthetic_dataset(n_taxa=t, n_sites=s, seed=DATA_SEED).compress(),
         JobSpec(n_inferences=1, n_bootstraps=n_boot, seed=seed))
        for t, s, n_boot, seed in SHAPES
    ]
    workdir = Path(tempfile.mkdtemp(prefix="bench-serve-pool-"))
    shared = WorkerPool(N_WORKERS)
    shared.prefork()
    pids = shared.idle_pids()
    walls = {"private": [[] for _ in jobs], "shared": [[] for _ in jobs]}
    try:
        for round_ in range(ROUNDS):
            for k, (patterns, spec) in enumerate(jobs):
                payloads = {}
                arms = ("private", "shared") if round_ % 2 else \
                    ("shared", "private")
                for arm in arms:
                    journal = str(workdir / f"{arm}-{round_}-{k}.jsonl")
                    started = time.perf_counter()
                    run_job(spec, alignment=patterns, n_workers=N_WORKERS,
                            journal_path=journal,
                            pool=shared if arm == "shared" else None)
                    walls[arm][k].append(time.perf_counter() - started)
                    payloads[arm] = json.dumps(
                        result_payload("digest", spec, journal),
                        sort_keys=True)
                assert payloads["private"] == payloads["shared"], (
                    f"shape {SHAPES[k]}: result differs between a private "
                    f"and the shared pool")
                assert shared.idle_pids() == pids, "a resident worker changed"
    finally:
        shared.close()
    assert not multiprocessing.active_children(), "a worker outlived its pool"

    shapes = []
    for k, (t, s, n_boot, seed) in enumerate(SHAPES):
        private = statistics.median(walls["private"][k])
        pooled = statistics.median(walls["shared"][k])
        shapes.append({
            "n_taxa": t, "n_sites": s, "n_bootstraps": n_boot,
            "job_seed": seed,
            "private_pool_run_job_s": round(private, 4),
            "shared_pool_run_job_s": round(pooled, 4),
            "ratio": round(pooled / private, 3),
        })
        print(f"  {t} x {s}, 1+{n_boot}: private {private * 1e3:6.1f} ms   "
              f"shared {pooled * 1e3:6.1f} ms   ({pooled / private:.2f}x)")
    merge_bench_section(RESULT_PATH, "serve_pool", {
        "n_workers": N_WORKERS,
        "rounds": ROUNDS,
        "data_seed": DATA_SEED,
        "statistic": "median run_job wall seconds over the rounds",
        "payloads_identical": True,
        "shapes": shapes,
    })
    print(f"bench_serve_pool: OK — wrote 'serve_pool' section to "
          f"{RESULT_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
