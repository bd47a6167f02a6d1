"""The JobStore's record log: durability, concurrent reads, migration.

Every record save is one CRC-framed line appended to ``jobs.log`` and
fsynced before ``save`` returns; ``get`` reads a job's newest line with
``os.pread`` through an offset index.  These tests hold the log to the
guarantees the per-record files gave: a kill at any byte of an append
loses at most that record, a reader never sees a mixed record, a root an
older version wrote is migrated, and a restarted service re-enqueues
the same jobs in the same order with the same next submission number.
The digest half: a submission is digested before (and on a cache hit
without) being compressed, so ``job_digest`` must give the same address
for an alignment and for its compressed patterns.
"""

import asyncio
import dataclasses
import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec, inject
from repro.chaos.plan import CLUSTER_JOURNAL_OSERROR
from repro.cluster import JobSpec
from repro.cluster.bootstop import BootstopConfig
from repro.cluster.checkpoint import decode_record, encode_record
from repro.phylo import Alignment, SearchConfig, synthetic_dataset
from repro.phylo.alignment import load_alignment_text
from repro.phylo.protein import AA
from repro.serve import JobRecord, JobService, JobStore, ServeApp, job_digest

FASTA = ">a\nACGTACGTAA\n>b\nACGTTCGTAA\n>c\nACCTACGTAG\n>d\nTCGTACGAAA\n"


def _counter():
    ticks = iter(range(1, 1_000_000))
    return lambda: float(next(ticks))


def _submit_six(store):
    """Six queued jobs under distinct digests (one spec seed each)."""
    return [store.submit(FASTA, JobSpec(1, 0, seed=s), client=f"c{s % 2}",
                         priority=10 - s % 3)[0] for s in range(6)]


def _move(store, job_id, state, error=None):
    record = store.get(job_id)
    record.state, record.error = state, error
    store.save(record)
    return record


class TestTornTail:
    def test_a_kill_at_any_byte_loses_at_most_that_record(self, tmp_path):
        """Cut the log at every byte of one appended state transition:
        the job reads its previous state until the line is whole, and
        every other record is served as it was."""
        root = str(tmp_path / "root")
        store = JobStore(root, clock=_counter())
        records = _submit_six(store)
        _move(store, records[1].job_id, "running")
        store.close()
        with open(os.path.join(root, "jobs.log"), "rb") as fh:
            base = fh.read()
        transition = dataclasses.replace(
            records[1], state="done", updated=99.0)
        line = f"{encode_record(transition.to_json())}\n".encode()
        expected = {r.job_id: r.state for r in records}
        expected[records[1].job_id] = "running"
        for cut in range(len(line) + 1):
            with open(os.path.join(root, "jobs.log"), "wb") as fh:
                fh.write(base + line[:cut])
            reopened = JobStore(root)
            try:
                states = {r.job_id: r.state for r in reopened.load_all()}
                whole = cut >= len(line) - 1  # only the newline missing
                assert states == {
                    **expected, records[1].job_id:
                        "done" if whole else "running"}, cut
                for record in records:
                    assert reopened.get(record.job_id).state == \
                        states[record.job_id]
            finally:
                reopened.close()

    def test_appends_after_a_torn_tail_survive_the_next_restart(
            self, tmp_path):
        root = str(tmp_path / "root")
        store = JobStore(root, clock=_counter())
        records = _submit_six(store)
        store.close()
        with open(os.path.join(root, "jobs.log"), "ab") as fh:
            fh.write(b'{"job_id": "j000002-')  # a writer died here
        store = JobStore(root, clock=_counter())
        _move(store, records[2].job_id, "failed", "boom")
        store.close()
        store = JobStore(root)
        try:
            assert store.get(records[2].job_id).error == "boom"
            assert [r.job_id for r in store.load_all()] == \
                [r.job_id for r in records]
        finally:
            store.close()


class TestTransientWriteError:
    def test_a_save_retries_a_transient_oserror(self, tmp_path):
        """One injected ``OSError`` on a save's first attempt: the retry
        lands, the log holds exactly one whole line for the save, and
        ``get`` (and a restart) read the new state."""
        root = str(tmp_path / "root")
        store = JobStore(root, clock=_counter())
        records = _submit_six(store)
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(CLUSTER_JOURNAL_OSERROR, trigger_at=(0,)),
        ))
        try:
            with inject(plan) as injector:
                _move(store, records[3].job_id, "running")
            assert injector.fired[CLUSTER_JOURNAL_OSERROR] == 1
            assert store.get(records[3].job_id).state == "running"
        finally:
            store.close()
        with open(os.path.join(root, "jobs.log"), "rb") as fh:
            blob = fh.read()
        assert blob.endswith(b"\n")
        lines = [decode_record(line.decode())
                 for line in blob.splitlines()]
        assert len(lines) == 7
        assert [(r["job_id"], r["state"]) for r in lines[6:]] == \
            [(records[3].job_id, "running")]
        reopened = JobStore(root)
        try:
            assert reopened.get(records[3].job_id).state == "running"
        finally:
            reopened.close()


class TestConcurrentReads:
    def test_readers_never_see_a_mixed_record(self, tmp_path):
        """Writers flip records between versions whose fields agree
        with each other (and whose lines differ in length) while
        readers read them: every read is one whole version."""
        store = JobStore(str(tmp_path / "root"))
        records = _submit_six(store)
        stop = threading.Event()
        errors = []

        def write(record):
            for k in range(60):
                record.priority = k
                record.error = f"v{k}-" + "x" * (k * 37 % 300)
                store.save(record)

        def read():
            while not stop.is_set():
                for record in records:
                    try:
                        got = store.get(record.job_id)
                        assert got is not None and got.job_id == record.job_id
                        if got.error is not None:
                            k = got.priority
                            assert got.error == f"v{k}-" + "x" * (k * 37 % 300)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

        readers = [threading.Thread(target=read) for _ in range(3)]
        writers = [threading.Thread(target=write, args=(r,))
                   for r in records[:3]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert errors == []
        assert [store.get(r.job_id).priority for r in records[:3]] == \
            [59, 59, 59]
        store.close()
        reopened = JobStore(str(tmp_path / "root"))
        try:
            assert [reopened.get(r.job_id).priority for r in records[:3]] \
                == [59, 59, 59]
        finally:
            reopened.close()


class TestOlderRoot:
    @staticmethod
    def _write_old_root(root, history):
        jobs = root / "jobs"
        jobs.mkdir(parents=True)
        for job_id, seq, state in history:
            record = JobRecord(job_id=job_id, client="old", priority=10,
                               digest="0" * 64, spec=JobSpec(1, 0, seed=1),
                               state=state, submitted_seq=seq)
            (jobs / f"{job_id}.json").write_text(
                json.dumps(record.to_json(), sort_keys=True) + "\n")
        # A temp file an interrupted per-file write left behind.
        (jobs / "j000003-z.json.abc.tmp").write_text('{"job_id": ')

    HISTORY = [("j000007-b", 7, "queued"), ("j000007-a", 7, "running"),
               ("j000003-z", 3, "queued"), ("j000009-q", 2, "queued"),
               ("j000010-d", 10, "done")]

    def test_migrates_once_in_the_old_order(self, tmp_path):
        self._write_old_root(tmp_path, self.HISTORY)
        service = JobService(str(tmp_path), n_workers=1)
        try:
            assert not (tmp_path / "jobs").exists()
            # Submission order, then file name: what the per-file layout
            # gave for the same root.
            assert [r.job_id for r in service.recover()] == \
                ["j000009-q", "j000003-z", "j000007-a", "j000007-b"]
            assert service.store._next_seq == 11
            record, hit = service.submit(FASTA, JobSpec(1, 0, seed=5))
            assert record.job_id.startswith("j000011-") and not hit
        finally:
            service.close()
        # A second start reads the log alone; the migrated records and
        # the new one are all there, the recovered one now queued.
        again = JobService(str(tmp_path), n_workers=1)
        try:
            states = {r.job_id: r.state for r in again.store.load_all()}
            assert states == {"j000007-b": "queued", "j000007-a": "queued",
                              "j000003-z": "queued", "j000009-q": "queued",
                              "j000010-d": "done", record.job_id: "queued"}
        finally:
            again.close()

    def test_a_record_the_log_holds_wins_over_an_old_file(self, tmp_path):
        """A start killed between writing the migrated log and removing
        ``jobs/`` leaves both: the log's record is the newer one."""
        self._write_old_root(tmp_path, self.HISTORY)
        store = JobStore(str(tmp_path))
        _move(store, "j000007-a", "failed", "later")
        store.close()
        self._write_old_root(tmp_path, self.HISTORY)
        store = JobStore(str(tmp_path))
        try:
            assert store.get("j000007-a").state == "failed"
            assert store.get("j000010-d").state == "done"
        finally:
            store.close()

    def test_an_id_whose_slot_is_taken_is_still_served(self, tmp_path):
        """``j000008-queued`` (submitted as 7) holds slot 8 when the
        next submission, number 8, is born: both stay readable."""
        self._write_old_root(tmp_path, [("j000007-failed", 7, "failed"),
                                        ("j000008-queued", 7, "queued")])
        store = JobStore(str(tmp_path))
        try:
            record, _ = store.submit(FASTA, JobSpec(1, 0, seed=5), "new")
            assert record.job_id.startswith("j000008-")
            _move(store, record.job_id, "running")
            assert store.get(record.job_id).state == "running"
            assert store.get("j000008-queued").state == "queued"
            assert store.get("j000008-nothing") is None
            assert store.get("nothing") is None
        finally:
            store.close()


class TestRestartOrder:
    def test_recover_order_and_next_seq_match_the_per_file_layout(
            self, tmp_path):
        """The same history as the per-file store recorded: recover()
        order, states, stamps and the next submission number."""
        root = str(tmp_path / "root")
        clock = _counter()
        service = JobService(root, n_workers=1, clock=clock)
        ids = [service.submit(FASTA, JobSpec(1, 0, seed=s),
                              client=f"c{s % 2}", priority=10 - s % 3
                              )[0].job_id for s in range(6)]
        for i, state in [(2, "running"), (0, "done"), (4, "running"),
                         (1, "failed"), (5, "running"), (2, "queued"),
                         (5, "done")]:
            _move(service.store, ids[i], state)
        service.close()
        second = JobService(root, n_workers=1, clock=clock)
        try:
            assert [r.job_id[:7] for r in second.recover()] == \
                ["j000003", "j000004", "j000005"]
            assert [second.store.get(i).state for i in ids] == \
                ["done", "failed", "queued", "queued", "queued", "done"]
            assert [second.store.get(i).updated for i in ids] == \
                [14.0, 16.0, 18.0, 8.0, 20.0, 19.0]
            assert second.store._next_seq == 7
        finally:
            second.close()

    def test_a_closed_store_refuses_to_write(self, tmp_path):
        store = JobStore(str(tmp_path / "root"))
        record = _submit_six(store)[0]
        store.close()
        store.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            store.save(record)


class TestRecordJson:
    @pytest.mark.parametrize("bootstop", [None, BootstopConfig(
        check_every=5, n_permutations=20)])
    def test_serialized_record_is_unchanged(self, bootstop):
        """to_json gives what dataclasses.asdict gave, key order too."""
        spec = JobSpec(2, 10, seed=3, bootstop=bootstop, deadline_s=4.5)
        record = JobRecord(job_id="j000001-abc", client="alice", priority=3,
                           digest="f" * 64, spec=spec, state="running",
                           cached=False, submitted_seq=1, error=None,
                           created=1.5, updated=2.5, degraded=True)
        assert json.dumps(record.to_json()) == \
            json.dumps(dataclasses.asdict(record))
        assert JobRecord.from_json(record.to_json()) == record
        payload = record.to_json()
        payload["spec"]["seed"] = 99
        assert record.spec.seed == 3  # a copy, not the spec's own dict

    @pytest.mark.parametrize("spec", [
        JobSpec(1, 0),
        JobSpec(3, 20, seed=9, batch_size=4, alignment_path="a.fa",
                model_name="HKY85", alpha=0.5, categories=6,
                deadline_s=30.0, bootstop=BootstopConfig()),
        JobSpec(1, 5, aa=True, config=SearchConfig(max_rounds=2)),
    ])
    def test_serialized_spec_is_unchanged(self, spec):
        payload = spec.to_json()
        assert json.dumps(payload) == json.dumps(dataclasses.asdict(spec))
        assert JobSpec.from_json(payload) == spec
        if spec.config is not None:
            payload["config"]["max_rounds"] = 99
            assert spec.config.max_rounds == 2

    def test_a_record_without_a_spec(self):
        record = JobRecord(job_id="j000001-abc", client="a", priority=1,
                           digest="0" * 64, spec=None, state="failed")
        assert json.dumps(record.to_json()) == \
            json.dumps(dataclasses.asdict(record))


def _fuzz_alignments(seed):
    """Seeded DNA and amino-acid alignments with duplicated columns, and
    a copy of each with its rows and columns permuted."""
    rng = np.random.default_rng(seed)
    for alphabet, letters in ((None, "ACGTNR-"), (AA, "ARNDCQBXZ-")):
        n_taxa = int(rng.integers(3, 9))
        n_sites = int(rng.integers(1, 40))
        # Few letters per column so columns repeat.
        pool = rng.choice(list(letters), size=int(rng.integers(1, 4)))
        columns = rng.choice(pool, size=(n_taxa, n_sites))
        columns = np.concatenate(
            [columns, columns[:, rng.integers(0, n_sites, size=n_sites)]],
            axis=1)
        seqs = {f"t{i}": "".join(row) for i, row in enumerate(columns)}
        rows = rng.permutation(n_taxa)
        sites = rng.permutation(columns.shape[1])
        shuffled = {f"t{i}": "".join(columns[i, sites]) for i in rows}
        kwargs = {} if alphabet is None else {"alphabet": alphabet}
        yield (Alignment.from_sequences(seqs, **kwargs),
               Alignment.from_sequences(shuffled, **kwargs),
               JobSpec(1, 0, seed=seed, aa=alphabet is not None))


class TestDigestBeforeCompress:
    @pytest.mark.parametrize("seed", range(40))
    def test_alignment_and_patterns_share_a_digest(self, seed):
        for alignment, shuffled, spec in _fuzz_alignments(seed):
            digest = job_digest(alignment, spec)
            assert digest == job_digest(alignment.compress(), spec)
            assert digest == job_digest(shuffled, spec)
            assert digest == job_digest(shuffled.compress(), spec)

    def test_digests_are_pinned(self):
        """Three digests as the compressed patterns give them, pinned:
        no cached result's address moves."""
        cases = [
            (synthetic_dataset(n_taxa=8, n_sites=400, seed=21).to_fasta(),
             JobSpec(n_inferences=1, n_bootstraps=0, seed=7),
             "24fb1f1411481ebfdd681f06c533cdb7"
             "f32a547d86f8342406ae648550b6d92f"),
            (">b\nACGTNRYACGT-\n>a\nACGTACGTACGA\n>c\nTTGTACG?ACGT\n",
             JobSpec(n_inferences=2, n_bootstraps=10, seed=3,
                     bootstop=BootstopConfig(check_every=5,
                                             n_permutations=20)),
             "5144da59d8594e16f716fffd0cbcb8c1"
             "3f5ee0d8deadd1193d99163ba4574162"),
            (">p2\nARNDCQEGHILKMFPSTWYVBZX-\n>p1\nARNDCQEGHILKMFPSTWYVARND\n"
             ">p3\nMMNDCQEGHILKMFPSTWYVBZJ?\n",
             JobSpec(n_inferences=1, n_bootstraps=2, seed=5, aa=True),
             "f9ec3bbdade6bca4e7bda95650747996"
             "eca875cad8a9d0ac317e35f447fde222"),
        ]
        for text, spec, pinned in cases:
            alignment = load_alignment_text(text, aa=spec.aa)
            assert job_digest(alignment, spec) == pinned
            assert job_digest(alignment.compress(), spec) == pinned


class TestCacheHitPath:
    def test_a_hit_writes_no_file_and_compresses_nothing(self, tmp_path,
                                                         monkeypatch):
        """``200, cached: true`` over HTTP: no atomic_write (the record
        is one log append) and no compress (the digest reads the parsed
        alignment)."""
        import repro.serve.cache as cache_module
        import repro.serve.jobstore as jobstore_module

        spec = JobSpec(1, 0, seed=4)
        service = JobService(str(tmp_path / "root"), n_workers=1)
        # Prime the cache the way a finished miss leaves it.
        record, hit = service.submit(FASTA, spec, client="primer")
        assert not hit
        service.store.cache.put(record.digest, {"digest": record.digest})
        calls = {"atomic_write": 0, "compress": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (jobstore_module, cache_module):
            monkeypatch.setattr(module, "atomic_write", counting(
                "atomic_write", module.atomic_write))
        monkeypatch.setattr(Alignment, "compress",
                            counting("compress", Alignment.compress))
        body = json.dumps({"alignment": FASTA, "client": "reader",
                           "model": {"n_inferences": 1, "n_bootstraps": 0,
                                     "seed": 4}}).encode()

        async def scenario():
            app = ServeApp(service, port=0)
            app._max_concurrent = 0  # the primer's job stays queued
            await app.start()
            try:
                reader, writer = await asyncio.open_connection(
                    app.host, app.port)
                writer.write(b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body)
                             + body)
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw
            finally:
                await app.stop()

        raw = asyncio.run(scenario())
        head, _, blob = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        ack = json.loads(blob)
        assert ack["cached"] is True and ack["digest"] == record.digest
        assert calls == {"atomic_write": 0, "compress": 0}
        reopened = JobStore(str(tmp_path / "root"))
        try:
            assert reopened.get(ack["job_id"]).cached is True
        finally:
            reopened.close()
