"""Two clients on one live server share its worker pool task by task.

The pool is the server's one core budget: up to ``n_workers`` jobs run
side by side and borrow its workers per task (the paper's EDTLP), so
two closed-loop clients' jobs overlap instead of queueing one behind
the other.  Every served result must still be the serial in-process
analysis, ``/stats.runs_executed`` must count each job once, and no
worker beyond the two forked at start-up may ever exist.
"""

import asyncio
import json
import multiprocessing

from repro.phylo import Alignment, synthetic_dataset
from repro.phylo.inference import run_full_analysis
from repro.serve import JobService, ServeApp
from tests.test_serve_api import _http, _sse_events

#: (taxa, sites, bootstraps, job seed): the ``serve_jobs`` job mix, one
#: inference each.
SHAPES = ((5, 100, 1, 11), (6, 120, 2, 12), (8, 200, 3, 13))


def _span(journal: str):
    """When a job's first task started and its last replicate landed."""
    with open(journal) as fh:
        records = [json.loads(line) for line in fh]
    started = [r["time"] for r in records if r["event"] == "task_started"]
    landed = [r["time"] for r in records if r["event"] == "replicate_done"]
    return min(started), max(landed)


def test_two_clients_overlap_and_every_result_is_the_serial_one(tmp_path):
    fastas = [synthetic_dataset(n_taxa=t, n_sites=s, seed=3).to_fasta()
              for t, s, _, _ in SHAPES]

    async def client(app, k, served):
        for i in range(len(SHAPES)):
            shape = (i + k) % len(SHAPES)
            _, _, n_boot, seed = SHAPES[shape]
            seed += 100 * k  # the clients' jobs are never duplicates
            status, _, blob = await _http(app.host, app.port, "POST",
                                          "/jobs", json.dumps({
                "alignment": fastas[shape],
                "model": {"n_inferences": 1, "n_bootstraps": n_boot,
                          "seed": seed},
                "client": f"client-{k}",
            }).encode())
            assert status == 201 and not json.loads(blob)["cached"]
            job_id = json.loads(blob)["job_id"]
            status, _, blob = await _http(app.host, app.port, "GET",
                                          f"/jobs/{job_id}/events")
            assert _sse_events(blob)[-1] == "run_finished"
            status, _, blob = await _http(app.host, app.port, "GET",
                                          f"/jobs/{job_id}/result")
            assert status == 200, blob
            served.append((k, job_id, shape, seed, json.loads(blob)))

    async def scenario():
        service = JobService(str(tmp_path / "root"), n_workers=2)
        app = ServeApp(service, port=0)
        await app.start()
        pids = set(service.pool.idle_pids())
        served, seen = [], []
        clients = asyncio.gather(*(client(app, k, served) for k in (0, 1)))
        try:
            while not clients.done():
                seen.append({p.pid for p in multiprocessing.active_children()})
                await asyncio.sleep(0.005)
            await clients
            status, _, blob = await _http(app.host, app.port, "GET",
                                          "/stats")
            stats = json.loads(blob)
        finally:
            await app.stop()
        journals = {job_id: service.store.journal_path(job_id)
                    for _, job_id, _, _, _ in served}
        return pids, seen, served, stats, journals

    pids, seen, served, stats, journals = asyncio.run(scenario())
    assert not multiprocessing.active_children()
    assert len(pids) == 2 and all(s <= pids for s in seen)
    assert stats["runs_executed"] == len(served) == 2 * len(SHAPES)

    spans = {k: [_span(journals[job_id]) for c, job_id, *_ in served
                 if c == k] for k in (0, 1)}
    assert any(max(a0, b0) < min(a1, b1)
               for a0, a1 in spans[0] for b0, b1 in spans[1]), spans

    for _, _, shape, seed, result in served:
        _, _, n_boot, _ = SHAPES[shape]
        local = run_full_analysis(Alignment.from_fasta(fastas[shape])
                                  .compress(), 1, n_boot, seed=seed)
        supports = sorted([sorted(split), value]
                          for split, value in local.supports.items())
        assert result["best_newick"] == local.best.newick
        assert result["best_log_likelihood"] == local.best.log_likelihood
        assert result["supports"] == supports
