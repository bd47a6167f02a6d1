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

Then two closed-loop clients run the mix one shape apart (as the
``serve_jobs`` clients do) through a FIFO job queue on the shared pool,
by turns:

* **one at a time** — one executor thread runs one job at once, the
  serve dispatcher before the pool became the core budget;
* **lent** — ``N_WORKERS`` executor threads run both clients' jobs at
  once, and the jobs borrow the pool's workers task by task (``serve``
  now).

A job's latency runs from its client asking to its result, waiting
included; the row records the median per shape.  Lending pays off when
the ``lent`` median is clearly below "own job + the other's".

What is asserted is correctness: each job's canonical result payload
(``perf`` counters included) is byte-identical every way, the shared
pool's worker pids never change, and nothing is left running.  The wall
times land in the ``serve_pool`` section of ``BENCH_engine.json`` with
the host's ``cpu_count`` beside them.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve_pool.py
"""

from __future__ import annotations

import json
import multiprocessing
import queue
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO / "BENCH_engine.json"

#: (taxa, sites, bootstraps, job seed) — ``benchmarks/e2e`` ``ServeJobs.SHAPES``.
SHAPES = ((5, 100, 1, 11), (6, 120, 2, 12), (8, 200, 3, 13))
DATA_SEED = 3
N_WORKERS = 2
ROUNDS = 7
N_CLIENTS = 2
#: Rounds of the two-client arms (even: each arm goes first as often),
#: and cycles of the mix per client in each.
TWO_CLIENT_ROUNDS = 6
CYCLES = 3


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
    walls = {arm: [[] for _ in jobs]
             for arm in ("private", "shared", "one at a time", "lent")}
    reference = {}

    def canonical(spec, journal):
        return json.dumps(result_payload("digest", spec, journal),
                          sort_keys=True)

    def two_clients(arm, round_):
        """Each client runs ``CYCLES`` cycles of the mix through one FIFO
        job queue, served by one executor thread (one at a time) or by
        ``N_WORKERS`` of them (lent); latencies land in ``walls[arm]``."""
        asked = queue.Queue()
        errors = []

        def executor():
            for k, journal, done in iter(asked.get, None):
                patterns, spec = jobs[k]
                try:
                    run_job(spec, alignment=patterns, n_workers=N_WORKERS,
                            journal_path=journal, pool=shared)
                    if canonical(spec, journal) != reference[k]:
                        errors.append(f"shape {SHAPES[k]}: {arm} differs")
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(repr(exc))
                done.set()

        def client(c):
            for i in range(CYCLES * len(jobs)):
                k = (i + c) % len(jobs)
                done = threading.Event()
                started = time.perf_counter()
                asked.put((k, str(workdir / f"{arm}-{round_}-{c}-{i}.jsonl"),
                           done))
                done.wait()
                walls[arm][k].append(time.perf_counter() - started)

        n_executors = 1 if arm == "one at a time" else N_WORKERS
        executors = [threading.Thread(target=executor)
                     for _ in range(n_executors)]
        clients = [threading.Thread(target=client, args=(c,))
                   for c in range(N_CLIENTS)]
        for thread in executors + clients:
            thread.start()
        for thread in clients:
            thread.join()
        for _ in executors:
            asked.put(None)
        for thread in executors:
            thread.join()
        assert not errors, errors
        assert shared.idle_pids() == pids, "a resident worker changed"

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
                    payloads[arm] = canonical(spec, journal)
                assert payloads["private"] == payloads["shared"], (
                    f"shape {SHAPES[k]}: result differs between a private "
                    f"and the shared pool")
                assert shared.idle_pids() == pids, "a resident worker changed"
                reference[k] = payloads["shared"]
        for round_ in range(TWO_CLIENT_ROUNDS):
            arms = ("one at a time", "lent") if round_ % 2 else \
                ("lent", "one at a time")
            for arm in arms:
                two_clients(arm, round_)
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
    two = []
    for k, (t, s, n_boot, seed) in enumerate(SHAPES):
        alone = shapes[k]["shared_pool_run_job_s"]
        serial = statistics.median(walls["one at a time"][k])
        lent = statistics.median(walls["lent"][k])
        two.append({
            "n_taxa": t, "n_sites": s, "n_bootstraps": n_boot,
            "job_seed": seed,
            "one_at_a_time_p50_s": round(serial, 4),
            "lent_p50_s": round(lent, 4),
            "ratio": round(lent / serial, 3),
        })
        print(f"  two clients, {t} x {s}: one at a time {serial * 1e3:6.1f} "
              f"ms   lent {lent * 1e3:6.1f} ms   (alone "
              f"{alone * 1e3:.1f} ms)")
    merge_bench_section(RESULT_PATH, "serve_pool", {
        "n_workers": N_WORKERS,
        "rounds": ROUNDS,
        "data_seed": DATA_SEED,
        "statistic": "median run_job wall seconds over the rounds",
        "payloads_identical": True,
        "shapes": shapes,
        "two_clients": {
            "n_clients": N_CLIENTS,
            "statistic": "median seconds from a client's ask to its "
                         "result, per shape, over the rounds",
            "shapes": two,
        },
    })
    print(f"bench_serve_pool: OK — wrote 'serve_pool' section to "
          f"{RESULT_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
