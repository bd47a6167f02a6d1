"""The job API: request validation and the end-to-end HTTP service.

The e2e test drives the real asyncio server over a loopback socket:
submit -> stream SSE progress events -> fetch the result, then resubmit
the same alignment (shuffled taxa, duplicated sites) and assert a cache
hit that schedules no new cluster run.
"""

import asyncio
import json

import pytest

from repro.cluster import BootstopConfig
from repro.phylo import synthetic_dataset
from repro.serve import ApiError, JobService, ServeApp, parse_submission, \
    spec_from_request


def body(**overrides) -> bytes:
    payload = {
        "alignment": ">a\nACGT\n>b\nACGA\n>c\nTCGA\n",
        "model": {"n_inferences": 1, "n_bootstraps": 2, "seed": 7},
    }
    payload.update(overrides)
    return json.dumps(payload).encode()


class TestParseSubmission:
    def test_happy_path(self):
        alignment, spec, client, priority = parse_submission(body(
            client="alice", priority=3,
        ))
        assert alignment.startswith(">a")
        assert (spec.n_inferences, spec.n_bootstraps, spec.seed) == (1, 2, 7)
        assert spec.bootstop is None
        assert (client, priority) == ("alice", 3)

    def test_default_client_and_priority(self):
        _, _, client, priority = parse_submission(body())
        assert (client, priority) == ("anonymous", 10)

    @pytest.mark.parametrize("raw, code", [
        (b"not json", "body_not_json"),
        (b"[1, 2]", "body_not_object"),
        (json.dumps({"model": {}}).encode(), "alignment_missing"),
        (body(alignment=""), "alignment_missing"),
        (body(model=None), "model_invalid"),
        (json.dumps({"alignment": ">a\nAC\n"}).encode(), "model_missing"),
        (body(model={"n_inferences": 1, "n_bootstraps": 2, "seed": 0,
                     "warp_factor": 9}), "model_unknown_field"),
        (body(model={"n_inferences": 0, "n_bootstraps": 2, "seed": 0}),
         "model_invalid"),
        (body(model={"n_inferences": 1, "seed": 0}), "model_missing_field"),
        (body(model={"n_inferences": 1, "n_bootstraps": 0, "seed": 1,
                     "model_name": "FOO"}), "model_invalid"),
        (body(model={"n_inferences": 1, "n_bootstraps": 0, "seed": 1,
                     "aa": True, "model_name": "JC69"}), "model_invalid"),
        (body(priority=-1), "priority_invalid"),
        (body(priority=True), "priority_invalid"),
        (body(client=""), "client_invalid"),
        (body(bootstop="yes"), "bootstop_invalid"),
        (body(bootstop={"check_every": 0}), "bootstop_invalid"),
        (b'{"alignment": ">a\\nACGT\\n", "model": {"n_inferences": 1, '
         b'"n_bootstraps": 0, "seed": 1, "alpha": 1' + b"0" * 400 + b"}}",
         "model_invalid"),
    ])
    def test_rejections_carry_stable_codes(self, raw, code):
        with pytest.raises(ApiError) as excinfo:
            parse_submission(raw)
        assert excinfo.value.code == code
        assert excinfo.value.status in (400, 413)

    def test_bad_model_is_refused_before_any_record(self, tmp_path):
        import multiprocessing

        service = JobService(str(tmp_path), n_workers=1)
        app = ServeApp(service, port=0)
        try:
            with pytest.raises(ApiError) as excinfo:
                app._submit(body(model={"n_inferences": 1, "n_bootstraps": 0,
                                        "seed": 1, "model_name": "FOO"}))
            assert (excinfo.value.status, excinfo.value.code) == \
                (400, "model_invalid")
            assert service.store.load_all() == []
            assert service.run_next() is None
            assert not multiprocessing.active_children()
        finally:
            service.close()

    def test_bootstop_true_uses_defaults(self):
        spec = spec_from_request(
            {"n_inferences": 1, "n_bootstraps": 200, "seed": 1},
            bootstop=True,
        )
        assert spec.bootstop == BootstopConfig()

    def test_bootstop_config_object(self):
        spec = spec_from_request(
            {"n_inferences": 1, "n_bootstraps": 200, "seed": 1},
            bootstop={"check_every": 25, "threshold": 0.05},
        )
        assert spec.bootstop.check_every == 25
        assert spec.bootstop.threshold == 0.05


class TestRestartOnOlderState:
    """A root an older version wrote can hold records whose spec this
    version refuses (it validated less at submit): the service still
    starts, and such a job loads failed instead of running."""

    @staticmethod
    def _write_record(root, job_id, state, error):
        from repro.cluster import JobSpec
        from repro.serve import JobRecord

        record = JobRecord(job_id=job_id, client="old", priority=10,
                           digest="0" * 64, spec=JobSpec(1, 0, seed=1),
                           state=state, error=error, submitted_seq=7)
        payload = record.to_json()
        payload["spec"]["model_name"] = "FOO"
        jobs = root / "jobs"
        jobs.mkdir(parents=True, exist_ok=True)
        (jobs / f"{job_id}.json").write_text(json.dumps(payload))

    def test_service_starts_on_a_record_it_now_refuses(self, tmp_path):
        failure = ("TaskExecutionError: task inference/0 failed after 3 "
                   "attempt(s): ValueError: unknown model FOO")
        self._write_record(tmp_path, "j000007-failed", "failed", failure)
        self._write_record(tmp_path, "j000008-queued", "queued", None)
        service = JobService(str(tmp_path), n_workers=1)
        try:
            assert service.recover() == []
            failed = service.status("j000007-failed")
            assert (failed["state"], failed["error"]) == ("failed", failure)
            queued = service.status("j000008-queued")
            assert queued["state"] == "failed"
            assert queued["error"].startswith("JobSpecError: ")
            assert "model_name='FOO'" in queued["error"]
            assert service.result("j000008-queued") is None
            assert service.run_next() is None
            assert service.store._next_seq == 8
        finally:
            service.close()


# -- end-to-end over a real socket -------------------------------------------


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


def _sse_events(blob: bytes):
    return [line.split(": ", 1)[1]
            for line in blob.decode().splitlines()
            if line.startswith("event: ")]


@pytest.fixture(scope="module")
def service_fasta():
    return synthetic_dataset(n_taxa=6, n_sites=120, seed=3).to_fasta()


class TestServeEndToEnd:
    def test_submit_stream_result_and_cache_hit(self, tmp_path,
                                                service_fasta,
                                                cluster_workers):
        async def scenario():
            app = ServeApp(
                JobService(str(tmp_path / "root"),
                           n_workers=cluster_workers),
                port=0,
            )
            await app.start()
            h, p = app.host, app.port
            try:
                status, _, blob = await _http(h, p, "GET", "/healthz")
                assert status == 200 and json.loads(blob)["ok"] is True

                submission = json.dumps({
                    "alignment": service_fasta,
                    "model": {"n_inferences": 1, "n_bootstraps": 2,
                              "seed": 11},
                    "client": "alice",
                }).encode()
                status, _, blob = await _http(h, p, "POST", "/jobs",
                                              submission)
                assert status == 201
                job = json.loads(blob)
                assert job["cached"] is False

                # The SSE stream runs to the journal's terminal event.
                status, head, blob = await _http(
                    h, p, "GET", f"/jobs/{job['job_id']}/events")
                assert status == 200
                assert "text/event-stream" in head
                events = _sse_events(blob)
                assert events[0] == "run_started"
                assert events[-1] == "run_finished"
                assert "replicate_done" in events

                # The SSE stream ends at the journal's run_finished
                # record; the job record flips to "done" in the executor
                # thread a moment later, so tolerate a brief 409 window.
                for _ in range(50):
                    status, _, blob = await _http(
                        h, p, "GET", f"/jobs/{job['job_id']}/result")
                    if status != 409:
                        break
                    await asyncio.sleep(0.05)
                assert status == 200
                result = json.loads(blob)
                assert result["best_newick"].endswith(";")
                assert result["n_bootstraps_used"] == 2
                assert result["consensus_newick"].endswith(";")
                assert isinstance(result["supports"], list)

                status, _, blob = await _http(
                    h, p, "GET", f"/jobs/{job['job_id']}")
                assert status == 200
                assert json.loads(blob)["state"] == "done"

                # Duplicate submission: same content, different
                # presentation (taxa reversed, one site duplicated).
                lines = service_fasta.strip().split("\n")
                records = list(zip(lines[::2], lines[1::2]))
                shuffled = "".join(
                    f"{name}\n{seq + seq[0]}\n"
                    for name, seq in reversed(records)
                )
                dup = json.dumps({
                    "alignment": shuffled,
                    "model": {"n_inferences": 1, "n_bootstraps": 2,
                              "seed": 11},
                    "client": "bob",
                }).encode()
                status, _, blob = await _http(h, p, "POST", "/jobs", dup)
                assert status == 200  # hit, not created
                job2 = json.loads(blob)
                assert job2["cached"] is True
                assert job2["digest"] == job["digest"]

                # The hit scheduled no cluster work and streams a
                # single synthetic terminal event.
                status, _, blob = await _http(h, p, "GET", "/stats")
                stats = json.loads(blob)
                assert stats["runs_executed"] == 1
                assert stats["scheduler"]["dispatched"] == 1
                status, _, blob = await _http(
                    h, p, "GET", f"/jobs/{job2['job_id']}/events")
                assert _sse_events(blob) == ["cached_result"]
                status, _, blob = await _http(
                    h, p, "GET", f"/jobs/{job2['job_id']}/result")
                assert status == 200
                assert json.loads(blob) == result

                status, _, blob = await _http(h, p, "GET", "/jobs")
                assert [j["state"] for j in json.loads(blob)["jobs"]] == \
                    ["done", "done"]

                # Error surface.
                status, _, _ = await _http(h, p, "GET", "/jobs/nope")
                assert status == 404
                status, _, blob = await _http(h, p, "POST", "/jobs",
                                              b"not json")
                assert status == 400
                assert json.loads(blob)["error"] == "body_not_json"
                status, _, _ = await _http(h, p, "GET", "/nothing")
                assert status == 404
                bad_alignment = json.dumps({
                    "alignment": ">a\nACGT\n>a\nACGT\n",
                    "model": {"n_inferences": 1, "n_bootstraps": 0,
                              "seed": 0},
                }).encode()
                status, _, blob = await _http(h, p, "POST", "/jobs",
                                              bad_alignment)
                assert status == 400
                assert json.loads(blob)["error"] == "alignment_invalid"
            finally:
                await app.stop()

        asyncio.run(scenario())

    def test_restarted_service_recovers_queued_jobs(self, tmp_path,
                                                    service_fasta):
        """A submit-then-die server leaves a queued record; the next
        service over the same root re-enqueues and completes it."""
        from repro.cluster import JobSpec

        root = str(tmp_path / "root")
        first = JobService(root, n_workers=2)
        record, hit = first.submit(
            service_fasta, JobSpec(n_inferences=1, n_bootstraps=0, seed=2),
            client="alice",
        )
        assert not hit
        # The first service dies here without running anything.
        second = JobService(root, n_workers=2)
        recovered = second.recover()
        assert [r.job_id for r in recovered] == [record.job_id]
        done = second.run_next()
        assert done.state == "done"
        assert second.result(record.job_id)["best_newick"].endswith(";")

    def test_backpressure_surfaces_as_429_with_retry_after(
            self, tmp_path, service_fasta):
        """Submissions over the queue watermark bounce with a 429, a
        ``Retry-After`` header, and no durable trace — while cache hits
        sail past the full queue."""
        from repro.cluster import JobSpec

        root = str(tmp_path / "root")
        # Complete one job out of band so its result is cached before
        # the bounded server comes up.
        warm = JobService(root, n_workers=2)
        cached_spec = JobSpec(n_inferences=1, n_bootstraps=0, seed=21)
        warm.submit(service_fasta, cached_spec, client="alice")
        assert warm.run_next().state == "done"

        def submission(seed, client):
            return json.dumps({
                "alignment": service_fasta,
                "model": {"n_inferences": 1, "n_bootstraps": 0,
                          "seed": seed},
                "client": client,
            }).encode()

        async def scenario():
            service = JobService(root, n_workers=2, max_queued_total=1)
            app = ServeApp(service, port=0)
            # Freeze dispatch for the whole scenario: admitted jobs stay
            # *queued*, so every admission decision below is
            # deterministic, not a race against the executor.
            app._max_concurrent = 0
            await app.start()
            h, p = app.host, app.port
            try:
                status, _, _ = await _http(h, p, "POST", "/jobs",
                                           submission(22, "alice"))
                assert status == 201  # fills the queue to the watermark

                status, head, blob = await _http(h, p, "POST", "/jobs",
                                                 submission(23, "bob"))
                assert status == 429
                assert "429 Too Many Requests" in head
                assert "Retry-After: 5" in head
                err = json.loads(blob)
                assert err["error"] == "queue_full"
                assert err["retry_after_s"] == 5.0
                assert "total queue is full (1/1)" in err["message"]

                # The rejection left no record behind: /jobs still lists
                # exactly the warm-up job and the one queued job.
                status, _, blob = await _http(h, p, "GET", "/jobs")
                assert status == 200
                assert len(json.loads(blob)["jobs"]) == 2

                # A duplicate of the cached job bypasses the watermark.
                status, _, blob = await _http(h, p, "POST", "/jobs",
                                              submission(21, "carol"))
                assert status == 200
                assert json.loads(blob)["cached"] is True

                status, _, blob = await _http(h, p, "GET", "/stats")
                assert status == 200
                stats = json.loads(blob)
                assert stats["scheduler"]["rejected"] == 1
                assert stats["scheduler"]["max_queued_total"] == 1
            finally:
                await app.stop()

        asyncio.run(scenario())


class TestResidentWorkersAndStreamEnd:
    """The stream ends when the job ends — not a poll tick later — and
    once it has, ``/result`` is there; the workers behind it all are the
    same processes from the first job to the last."""

    N_JOBS = 50

    def test_fifty_jobs_stream_to_a_ready_result_on_resident_workers(
            self, tmp_path):
        import multiprocessing
        import statistics
        import time

        fasta = synthetic_dataset(n_taxa=5, n_sites=100, seed=3).to_fasta()

        async def scenario():
            service = JobService(str(tmp_path / "root"), n_workers=2)
            # A poll interval far above a job's run time: anything that
            # still waits for the next tick shows as a ~1 s lag.
            app = ServeApp(service, port=0, poll_interval=1.0)
            await app.start()
            h, p = app.host, app.port
            pids = service.pool.idle_pids()
            assert len(pids) == 2  # forked by start(), before any job
            lags = []
            try:
                for seed in range(self.N_JOBS):
                    status, _, blob = await _http(h, p, "POST", "/jobs",
                                                  json.dumps({
                        "alignment": fasta,
                        "model": {"n_inferences": 1, "n_bootstraps": 0,
                                  "seed": seed},
                    }).encode())
                    assert status == 201
                    job_id = json.loads(blob)["job_id"]
                    status, _, blob = await _http(
                        h, p, "GET", f"/jobs/{job_id}/events")
                    ended = time.time()
                    assert status == 200
                    assert _sse_events(blob)[-1] == "run_finished"
                    # The first GET after the stream: never a 409.
                    status, _, blob = await _http(
                        h, p, "GET", f"/jobs/{job_id}/result")
                    assert status == 200, blob
                    assert json.loads(blob)["best_newick"].endswith(";")
                    status, _, blob = await _http(h, p, "GET",
                                                  f"/jobs/{job_id}")
                    record = json.loads(blob)
                    assert record["state"] == "done"
                    lags.append(ended - record["updated"])
                assert service.pool.idle_pids() == pids
            finally:
                await app.stop()
            return lags

        lags = asyncio.run(scenario())
        # ``updated`` is stamped just before the record's fsync'd write.
        assert statistics.median(lags) < 0.020, sorted(lags)
        assert max(lags) < 0.5, sorted(lags)
        assert not multiprocessing.active_children()

    def test_service_close_terminates_the_resident_workers(self, tmp_path,
                                                           service_fasta):
        import multiprocessing

        from repro.cluster import JobSpec

        service = JobService(str(tmp_path / "root"), n_workers=2)
        service.submit(service_fasta,
                       JobSpec(n_inferences=1, n_bootstraps=1, seed=2))
        assert service.run_next().state == "done"  # forks lazily
        assert len(service.pool.idle_pids()) == 2
        service.close()
        service.close()  # idempotent
        assert service.pool.n_idle == 0
        assert not multiprocessing.active_children()
