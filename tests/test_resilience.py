"""End-to-end deadlines, graceful drain, and admission control.

Four robustness behaviours of the serve/cluster path, each proven
end to end:

* **deadlines** — ``JobSpec.deadline_s`` trips a cooperative
  :class:`~repro.cluster.cancel.CancelToken` at a safe point; finished
  replicates are salvaged into a ``degraded: true`` result that is
  journalled but *never cached*, so an identical resubmission re-runs;
* **drain** — ``begin_drain()`` flips ``/readyz``, bounces new submits
  with ``503 + Retry-After``, unwinds in-flight work to a resumable
  checkpoint within the grace budget, and the resumed run is
  bit-identical to an uninterrupted one;
* **admission control** — a memory preflight rejects impossible
  submissions with a typed 413 before any durable side effect, and the
  RSS watchdog reaps a runaway worker instead of letting the kernel
  OOM-kill it silently;
* **request hardening** — slowloris clients get typed 408s and an SSE
  stream notices a dead client within one poll interval.
"""

import asyncio
import json
import os
import time

import pytest

from repro.chaos import FaultPlan, FaultSpec, inject
from repro.chaos.injector import _uniform
from repro.chaos.plan import CLUSTER_WORKER_OOM, CLUSTER_WORKER_STALL
from repro.cluster import JobSpec, replay, run_job
from repro.cluster.cancel import (
    REASON_DEADLINE,
    REASON_DRAIN,
    CancelToken,
    TaskCancelled,
)
from repro.cluster.queue import _OOM_BALLAST_MB, ClusterConfig, _rss_bytes
from repro.phylo import synthetic_dataset
from repro.phylo.inference import infer_tree
from repro.serve import (
    JobService,
    ResourceLimitError,
    ServeApp,
    estimate_job_memory_mb,
    preflight,
)
from repro.serve.resilience import estimate_clv_mb


@pytest.fixture(scope="module")
def tiny_fasta():
    return synthetic_dataset(n_taxa=6, n_sites=120, seed=3).to_fasta()


async def _http(host, port, method, path, payload=None):
    reader, writer = await asyncio.open_connection(host, port)
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if payload is not None:
        head += f"Content-Length: {len(payload)}\r\n"
    head += "\r\n"
    writer.write(head.encode() + (payload or b""))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    return status, head_blob.decode("latin-1"), body_blob


# -- the token itself --------------------------------------------------------


class TestCancelToken:
    def test_deadline_trips_via_injected_clock(self):
        now = [100.0]
        token = CancelToken.with_timeout(5.0, clock=lambda: now[0])
        assert token.active and not token.cancelled
        assert token.remaining() == pytest.approx(5.0)
        token.check()  # within budget: no-op
        now[0] = 105.0
        assert token.cancelled and token.reason == REASON_DEADLINE
        assert token.remaining() == 0.0
        with pytest.raises(TaskCancelled) as excinfo:
            token.check()
        assert excinfo.value.reason == REASON_DEADLINE

    def test_explicit_cancel_first_reason_wins(self):
        token = CancelToken()
        assert not token.active  # no deadline, not cancelled: cheap gate
        token.cancel(REASON_DRAIN)
        token.cancel(REASON_DEADLINE)  # loses: first reason sticks
        assert token.reason == REASON_DRAIN
        with pytest.raises(TaskCancelled) as excinfo:
            token.check()
        assert excinfo.value.reason == REASON_DRAIN

    def test_cap_deadline_only_tightens(self):
        now = [0.0]
        token = CancelToken(deadline=50.0, clock=lambda: now[0])
        token.cap_deadline(100.0)  # looser: ignored
        assert token.deadline == 50.0
        token.cap_deadline(10.0)  # tighter: wins
        assert token.deadline == 10.0
        bare = CancelToken(clock=lambda: now[0])
        bare.cap_deadline(7.0)
        assert bare.deadline == 7.0

    def test_inference_unwinds_on_tripped_token(self, tiny_fasta,
                                                fast_config):
        from repro.phylo.alignment import Alignment

        patterns = Alignment.from_fasta(tiny_fasta).compress()
        token = CancelToken()
        token.cancel(REASON_DRAIN)
        with pytest.raises(TaskCancelled):
            infer_tree(patterns, config=fast_config, seed=1, cancel=token)


# -- deadlines end to end ----------------------------------------------------


class TestDeadlineEndToEnd:
    def test_deadline_salvages_degraded_result_and_skips_cache(
            self, tiny_fasta, fast_config, cluster_workers, tmp_path):
        service = JobService(str(tmp_path / "root"),
                             n_workers=cluster_workers)

        # Calibrate: time a bootstrap-free run so the deadline below is
        # comfortably after the first inference lands but far before
        # 600 bootstrap replicates could.
        probe = JobSpec(n_inferences=1, n_bootstraps=0, seed=5,
                        config=fast_config)
        t0 = time.monotonic()
        service.submit(tiny_fasta, probe, client="probe")
        assert service.run_next().state == "done"
        probe_s = time.monotonic() - t0

        deadline_s = max(0.75, 2.0 * probe_s)
        spec = JobSpec(n_inferences=1, n_bootstraps=600, seed=5,
                       batch_size=2, config=fast_config,
                       deadline_s=deadline_s)
        record, hit = service.submit(tiny_fasta, spec, client="alice")
        assert not hit
        done = service.run_next()
        assert done.state == "done"
        assert done.degraded is True

        status = service.status(record.job_id)
        assert status["degraded"] is True
        result = service.result(record.job_id)
        assert result["degraded"] is True
        assert result["best_newick"].endswith(";")  # >=1 inference salvaged
        assert result["n_bootstraps_used"] < 600

        # The deadline event is durable in the journal.
        journal = open(service.store.journal_path(record.job_id)).read()
        assert "task_deadline_exceeded" in journal

        # Degraded results are never cached: the identical resubmission
        # MISSES and would re-run.
        again, hit = service.submit(tiny_fasta, spec, client="alice")
        assert hit is False
        assert again.job_id != record.job_id

    def test_deadline_is_execution_policy_not_cache_content(
            self, tiny_fasta, fast_config, cluster_workers, tmp_path):
        """A completed (non-degraded) result serves resubmissions that
        merely differ in ``deadline_s`` — the deadline is an execution
        knob, not part of the job's content digest."""
        service = JobService(str(tmp_path / "root"),
                             n_workers=cluster_workers)
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9,
                       batch_size=2, config=fast_config)
        record, hit = service.submit(tiny_fasta, spec, client="alice")
        assert not hit
        done = service.run_next()
        assert done.state == "done" and done.degraded is False

        from dataclasses import replace

        with_deadline = replace(spec, deadline_s=999.0)
        cached, hit = service.submit(tiny_fasta, with_deadline,
                                     client="bob")
        assert hit is True
        assert cached.digest == record.digest

    def test_deadline_with_nothing_to_salvage_is_a_typed_failure(
            self, tiny_fasta, fast_config, cluster_workers, tmp_path):
        service = JobService(str(tmp_path / "root"),
                             n_workers=cluster_workers)
        spec = JobSpec(n_inferences=1, n_bootstraps=2, seed=5,
                       config=fast_config, deadline_s=1e-4)
        record, _ = service.submit(tiny_fasta, spec, client="alice")
        done = service.run_next()
        assert done.state == "failed"
        assert "TaskCancelled" in done.error
        assert service.result(record.job_id) is None

    def test_deadline_while_waiting_for_a_worker_is_the_typed_path(
            self, tiny_fasta, fast_config, tmp_path):
        """Every worker is lent to another run: the job waits for a
        check-in, and its deadline trips during the wait."""
        import multiprocessing

        service = JobService(str(tmp_path / "root"), n_workers=2)
        held = service.pool.checkout(2)
        try:
            spec = JobSpec(n_inferences=1, n_bootstraps=2, seed=5,
                           config=fast_config, deadline_s=0.3)
            record, _ = service.submit(tiny_fasta, spec, client="alice")
            done = service.run_next()
            assert done.state == "failed"
            assert done.error.startswith("TaskCancelled: deadline exceeded")
            journal = service.store.journal_path(record.job_id)
            events = [json.loads(line)["event"] for line in open(journal)]
            assert "task_deadline_exceeded" in events
            assert "task_started" not in events
        finally:
            service.pool.retire(*held)
            service.close()
        assert not multiprocessing.active_children()


# -- graceful drain end to end -----------------------------------------------


class TestDrainEndToEnd:
    def test_drain_checkpoints_inflight_and_resumes_bit_identical(
            self, tiny_fasta, cluster_workers, tmp_path):
        root = str(tmp_path / "root")
        submission = json.dumps({
            "alignment": tiny_fasta,
            "model": {"n_inferences": 1, "n_bootstraps": 24, "seed": 3},
            "client": "alice",
        }).encode()

        async def scenario():
            service = JobService(root, n_workers=cluster_workers)
            app = ServeApp(service, port=0, poll_interval=0.05,
                           drain_grace_s=20.0)
            await app.start()
            h, p = app.host, app.port
            try:
                status, _, blob = await _http(h, p, "GET", "/readyz")
                assert status == 200 and json.loads(blob)["ready"] is True

                status, _, blob = await _http(h, p, "POST", "/jobs",
                                              submission)
                assert status == 201
                job_id = json.loads(blob)["job_id"]

                # Wait for the executor to pick the job up, then drain
                # mid-run.
                for _ in range(200):
                    status, _, blob = await _http(h, p, "GET",
                                                  f"/jobs/{job_id}")
                    if json.loads(blob)["state"] == "running":
                        break
                    await asyncio.sleep(0.05)
                else:
                    raise AssertionError("job never started running")

                app.begin_drain()

                status, _, blob = await _http(h, p, "GET", "/readyz")
                assert status == 503
                assert json.loads(blob)["draining"] is True
                status, _, blob = await _http(h, p, "GET", "/healthz")
                assert status == 200  # alive-but-draining, not dead
                assert json.loads(blob)["draining"] is True

                status, head, blob = await _http(h, p, "POST", "/jobs",
                                                 submission)
                assert status == 503
                assert "Retry-After:" in head
                err = json.loads(blob)
                assert err["error"] == "draining"
                assert err["retry_after_s"] > 0
            finally:
                t0 = time.monotonic()
                await app.stop()
                # The drain unwound at a safe point, far inside the
                # grace budget — no 20 s hang, no cancelled executor.
                assert time.monotonic() - t0 < 15.0
            return job_id

        job_id = asyncio.run(scenario())

        # The drained job is durably *unfinished*: journal has no
        # terminal record, and the record is recoverable.
        first = JobService(root, n_workers=cluster_workers)
        journal_path = first.store.journal_path(job_id)
        if os.path.exists(journal_path):
            journal = open(journal_path).read()
            assert "run_cancelled" in journal
            assert "run_finished" not in journal
        recovered = first.recover()
        assert job_id in [r.job_id for r in recovered]

        # Resume to completion; compare bit-for-bit against an
        # uninterrupted run of the same submission in a fresh root.
        done = first.run_next()
        assert done.state == "done" and done.degraded is False
        resumed = first.result(job_id)

        from repro.serve.api import parse_submission

        _, spec, _, _ = parse_submission(submission)
        baseline_service = JobService(str(tmp_path / "baseline"),
                                      n_workers=cluster_workers)
        base_record, _ = baseline_service.submit(tiny_fasta, spec,
                                                 client="alice")
        assert baseline_service.run_next().state == "done"
        baseline = baseline_service.result(base_record.job_id)

        assert resumed["digest"] == baseline["digest"]
        assert json.dumps(resumed, sort_keys=True) == \
            json.dumps(baseline, sort_keys=True)

    def test_drain_reaches_a_job_waiting_for_a_worker(self, tiny_fasta,
                                                      tmp_path):
        """Job B waits on a fully lent pool when the drain lands: it
        unwinds with a typed drain, its record stays resumable, and no
        executor thread or worker outlives the server."""
        import multiprocessing
        import threading

        root = str(tmp_path / "root")
        submission = json.dumps({
            "alignment": tiny_fasta,
            "model": {"n_inferences": 1, "n_bootstraps": 2, "seed": 4},
            "client": "bob",
        }).encode()

        async def scenario():
            service = JobService(root, n_workers=2)
            app = ServeApp(service, port=0, poll_interval=0.05)
            await app.start()
            held = service.pool.checkout(2)  # job A holds every worker
            try:
                status, _, blob = await _http(app.host, app.port, "POST",
                                              "/jobs", submission)
                assert status == 201
                job_id = json.loads(blob)["job_id"]
                journal = service.store.journal_path(job_id)
                for _ in range(500):
                    if os.path.exists(journal) \
                            and "run_started" in open(journal).read():
                        break
                    await asyncio.sleep(0.01)
                else:
                    raise AssertionError("job B never started")
                (future,) = app._inflight
                app.begin_drain()
                await asyncio.wait({future}, timeout=10.0)
                exc = future.exception()
                assert isinstance(exc, TaskCancelled)
                assert exc.reason == REASON_DRAIN
            finally:
                service.pool.retire(*held)
                await app.stop()
            return job_id

        job_id = asyncio.run(scenario())
        for _ in range(200):
            if not any(t.name.startswith("repro-serve-job")
                       for t in threading.enumerate()):
                break
            time.sleep(0.01)
        else:
            raise AssertionError("an executor thread outlived the server")
        assert not multiprocessing.active_children()

        service = JobService(root, n_workers=2)
        try:
            assert service.store.get(job_id).state == "running"
            events = [json.loads(line)["event"] for line in
                      open(service.store.journal_path(job_id))]
            assert "run_cancelled" in events and "task_started" not in events
            assert job_id in [r.job_id for r in service.recover()]
            assert service.run_next().state == "done"
            resumed = service.result(job_id)
        finally:
            service.close()
        from repro.phylo import Alignment
        from repro.phylo.inference import run_full_analysis

        local = run_full_analysis(Alignment.from_fasta(tiny_fasta).compress(),
                                  1, 2, seed=4)
        assert resumed["best_newick"] == local.best.newick
        assert resumed["best_log_likelihood"] == local.best.log_likelihood

    def test_service_drain_rejects_submissions(self, tiny_fasta,
                                               fast_config, tmp_path):
        from repro.serve import DrainingError

        service = JobService(str(tmp_path / "root"))
        assert service.begin_drain() == 0  # idempotent, nothing in flight
        with pytest.raises(DrainingError) as excinfo:
            service.submit(tiny_fasta,
                           JobSpec(n_inferences=1, n_bootstraps=0, seed=1,
                                   config=fast_config))
        assert excinfo.value.retry_after_s > 0
        assert service.store.load_all() == []  # no durable trace


# -- admission control --------------------------------------------------------


class TestAdmissionPreflight:
    def test_estimate_scales_with_problem_size(self):
        small = estimate_job_memory_mb(8, 100)
        tall = estimate_job_memory_mb(800, 100)
        wide = estimate_job_memory_mb(8, 100_000)
        assert small < tall and small < wide
        # Protein models cost 5x the states.
        assert estimate_job_memory_mb(8, 100, n_states=20) > small
        assert estimate_job_memory_mb(8, 100, n_workers=4) > \
            2 * estimate_job_memory_mb(8, 100, n_workers=1)
        assert estimate_clv_mb(100, 1000) == pytest.approx(
            100 * 1000 * 4 * 4 * 8 / 1024 / 1024)

    def test_preflight_passes_without_a_ceiling(self, tiny_fasta):
        from repro.phylo.alignment import Alignment

        patterns = Alignment.from_fasta(tiny_fasta).compress()
        spec = JobSpec(n_inferences=1, n_bootstraps=0, seed=0)
        estimate = preflight(patterns, spec, None)
        assert estimate > 0
        with pytest.raises(ResourceLimitError) as excinfo:
            preflight(patterns, spec, limit_mb=1.0, n_workers=2)
        err = excinfo.value
        assert err.limit_mb == 1.0
        assert err.estimated_mb > 1.0
        assert "exceeds the service ceiling" in str(err)

    def test_oversize_submission_is_413_with_no_durable_trace(
            self, tiny_fasta, tmp_path):
        async def scenario():
            app = ServeApp(
                JobService(str(tmp_path / "root"), max_job_memory_mb=1.0),
                port=0,
            )
            await app.start()
            h, p = app.host, app.port
            try:
                submission = json.dumps({
                    "alignment": tiny_fasta,
                    "model": {"n_inferences": 1, "n_bootstraps": 0,
                              "seed": 0},
                }).encode()
                status, _, blob = await _http(h, p, "POST", "/jobs",
                                              submission)
                assert status == 413
                err = json.loads(blob)
                assert err["error"] == "job_too_large"
                assert err["estimated_mb"] > err["limit_mb"] == 1.0

                status, _, blob = await _http(h, p, "GET", "/jobs")
                assert json.loads(blob)["jobs"] == []
            finally:
                await app.stop()

        asyncio.run(scenario())


# -- request hardening --------------------------------------------------------


class TestRequestHardening:
    def test_slowloris_header_gets_typed_408(self, tmp_path):
        async def scenario():
            app = ServeApp(JobService(str(tmp_path / "root")), port=0,
                           header_timeout_s=0.2)
            await app.start()
            try:
                reader, writer = await asyncio.open_connection(
                    app.host, app.port)
                writer.write(b"POST /jobs HTTP/1.1\r\nHost: slow")
                await writer.drain()  # ...and never finish the head
                raw = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                assert b" 408 " in raw.split(b"\r\n", 1)[0]
                assert json.loads(raw.partition(b"\r\n\r\n")[2])["error"] \
                    == "header_timeout"
            finally:
                await app.stop()

        asyncio.run(scenario())

    def test_stalled_body_gets_typed_408(self, tmp_path):
        async def scenario():
            app = ServeApp(JobService(str(tmp_path / "root")), port=0,
                           body_timeout_s=0.2)
            await app.start()
            try:
                reader, writer = await asyncio.open_connection(
                    app.host, app.port)
                writer.write(b"POST /jobs HTTP/1.1\r\nHost: slow\r\n"
                             b"Content-Length: 4096\r\n\r\nonly-a-bit")
                await writer.drain()  # promised 4096 bytes, sent 10
                raw = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                assert b" 408 " in raw.split(b"\r\n", 1)[0]
                assert json.loads(raw.partition(b"\r\n\r\n")[2])["error"] \
                    == "body_timeout"
            finally:
                await app.stop()

        asyncio.run(scenario())

    def test_sse_stream_notices_client_disconnect(self, tiny_fasta,
                                                  tmp_path):
        """Regression: an aborted SSE client must release its stream
        within about one poll interval, not linger until job end."""

        async def scenario():
            app = ServeApp(JobService(str(tmp_path / "root")), port=0,
                           poll_interval=0.05)
            app._max_concurrent = 0  # freeze dispatch: job stays queued
            await app.start()
            h, p = app.host, app.port
            try:
                submission = json.dumps({
                    "alignment": tiny_fasta,
                    "model": {"n_inferences": 1, "n_bootstraps": 2,
                              "seed": 11},
                }).encode()
                status, _, blob = await _http(h, p, "POST", "/jobs",
                                              submission)
                assert status == 201
                job_id = json.loads(blob)["job_id"]

                reader, writer = await asyncio.open_connection(h, p)
                writer.write(f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
                             f"Host: t\r\n\r\n".encode())
                await writer.drain()
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=5.0)
                assert b"text/event-stream" in head
                for _ in range(100):
                    if app._sse_active == 1:
                        break
                    await asyncio.sleep(0.02)
                assert app._sse_active == 1

                # Hard client abort, then the server notices on its own.
                writer.transport.abort()
                for _ in range(100):
                    if app._sse_active == 0:
                        break
                    await asyncio.sleep(0.02)
                assert app._sse_active == 0
            finally:
                await app.stop()

        asyncio.run(scenario())

    def test_stream_notices_disconnect_and_drain_within_one_poll_interval(
            self, tiny_fasta, tmp_path):
        """The stream waits on the job's completion event, not a bare
        sleep — the wait keeps ``poll_interval`` as its timeout, so a
        vanished client and a drain are still seen within one tick."""
        import multiprocessing

        poll = 0.4

        async def open_stream(h, p, job_id):
            reader, writer = await asyncio.open_connection(h, p)
            writer.write(f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
                         f"Host: t\r\n\r\n".encode())
            await writer.drain()
            await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5.0)
            return reader, writer

        async def scenario():
            app = ServeApp(JobService(str(tmp_path / "root")), port=0,
                           poll_interval=poll)
            app._max_concurrent = 0  # freeze dispatch: job stays queued
            await app.start()
            h, p = app.host, app.port
            try:
                status, _, blob = await _http(h, p, "POST", "/jobs",
                                              json.dumps({
                    "alignment": tiny_fasta,
                    "model": {"n_inferences": 1, "n_bootstraps": 2,
                              "seed": 11},
                }).encode())
                assert status == 201
                job_id = json.loads(blob)["job_id"]

                _, gone = await open_stream(h, p, job_id)
                reader, writer = await open_stream(h, p, job_id)
                assert app._sse_active == 2
                await asyncio.sleep(poll / 4)  # both are mid-wait now

                gone.transport.abort()
                t0 = time.monotonic()
                while app._sse_active == 2:
                    assert time.monotonic() - t0 < poll + 0.25
                    await asyncio.sleep(0.01)

                app.begin_drain()
                t0 = time.monotonic()
                tail = await asyncio.wait_for(reader.read(), poll + 0.25)
                assert b"event: server_draining" in tail
                assert time.monotonic() - t0 < poll + 0.25
                writer.close()
            finally:
                await app.stop()

        asyncio.run(scenario())
        assert not multiprocessing.active_children()


# -- wedged workers: stall timeout and RSS watchdog ---------------------------

#: With two workers, the coarse tasks dispatched first; the trailing
#: batch is split by the multigrain scheduler into fine children before
#: any worker sees it, so worker-site draws never use its coarse id.
FIRST_DISPATCH = ("inference/0", "bootstrap/0-1")
OTHER_KEYS = ("bootstrap/2-3", "bootstrap/2-2", "bootstrap/3-3")
FAULT_PROBABILITY = 0.3


def _seed_firing_once(site):
    """A plan seed whose draw fires *site* on exactly one first-dispatch
    task's first attempt — and on no retry and no split-child grain, so
    the requeue must succeed.  Returns ``(seed, task_id)``."""
    for seed in range(5000):
        first = [t for t in FIRST_DISPATCH
                 if _uniform(seed, site, f"{t}:1") < FAULT_PROBABILITY]
        if len(first) != 1:
            continue
        task = first[0]
        quiet = [f"{t}:{a}"
                 for t in FIRST_DISPATCH + OTHER_KEYS
                 for a in (1, 2, 3)
                 if (t, a) != (task, 1)]
        if all(_uniform(seed, site, k) >= FAULT_PROBABILITY
               for k in quiet):
            return seed, task
    raise AssertionError(f"no seed fires {site} exactly once")


class TestWedgedWorkers:
    def _spec(self, fast_config):
        return JobSpec(n_inferences=1, n_bootstraps=4, seed=9,
                       batch_size=2, config=fast_config)

    def test_stalled_worker_is_reaped_by_the_task_timeout(
            self, tiny_patterns, fast_config, serial_reference, tmp_path):
        """``cluster.worker_stall`` keeps heartbeating, so the *task
        timeout* — not the staleness sweep — must catch it."""
        seed, stalled_task = _seed_firing_once(CLUSTER_WORKER_STALL)
        plan = FaultPlan(seed=seed, specs=(
            FaultSpec(CLUSTER_WORKER_STALL, probability=FAULT_PROBABILITY),
        ))
        cfg = ClusterConfig(
            n_workers=2, task_timeout_s=1.5, max_retries=2,
            retry_backoff_s=0.01, retry_backoff_cap_s=0.1,
            heartbeat_interval_s=0.05, heartbeat_timeout_s=30.0,
        )
        journal = str(tmp_path / "j.jsonl")
        with inject(plan):
            analysis = run_job(self._spec(fast_config),
                               alignment=tiny_patterns,
                               journal_path=journal, cluster=cfg)
        assert analysis.best.newick == serial_reference.best.newick
        assert analysis.supports == serial_reference.supports
        state = replay(journal)
        assert any(d["reason"] == "timeout" for d in state.worker_deaths)
        assert any(f["task"] == stalled_task and f["will_retry"]
                   for f in state.failures)

    def test_rss_watchdog_reaps_runaway_worker(
            self, tiny_patterns, fast_config, serial_reference, tmp_path):
        """``cluster.worker_oom`` allocates ballast and wedges; the RSS
        watchdog journals the overrun and requeues the task instead of
        waiting for the kernel's OOM killer."""
        seed, fat_task = _seed_firing_once(CLUSTER_WORKER_OOM)
        plan = FaultPlan(seed=seed, specs=(
            FaultSpec(CLUSTER_WORKER_OOM, probability=FAULT_PROBABILITY),
        ))
        parent_mb = (_rss_bytes(os.getpid()) or 0) / 1048576.0
        cfg = ClusterConfig(
            n_workers=2, task_timeout_s=60.0, max_retries=2,
            retry_backoff_s=0.01, retry_backoff_cap_s=0.1,
            heartbeat_interval_s=0.05, heartbeat_timeout_s=30.0,
            max_worker_rss_mb=parent_mb + _OOM_BALLAST_MB / 2.0,
        )
        journal = str(tmp_path / "j.jsonl")
        with inject(plan):
            analysis = run_job(self._spec(fast_config),
                               alignment=tiny_patterns,
                               journal_path=journal, cluster=cfg)
        assert analysis.best.newick == serial_reference.best.newick
        assert analysis.supports == serial_reference.supports
        raw = open(journal).read()
        assert "worker_rss_exceeded" in raw
        state = replay(journal)
        assert any(d["reason"] == "rss" for d in state.worker_deaths)
        assert any(f["task"] == fat_task and f["will_retry"]
                   for f in state.failures)
