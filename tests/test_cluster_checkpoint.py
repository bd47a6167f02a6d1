"""Journal replay, compaction and resume-determinism tests.

The acceptance bar: a run interrupted at any task boundary — or killed
mid-append — and resumed from its journal produces bit-identical trees,
log likelihoods, and bootstrap supports to an uninterrupted run, and
``replay(compact(journal))`` equals ``replay(journal)`` for any journal,
however damaged.
"""

import json
import os
import random

import pytest

from repro.cluster import (
    JobSpec,
    RunJournal,
    WorkerPool,
    replay,
    resume_job,
    run_job,
)
from repro.cluster.checkpoint import (
    RetiredJournalFormatError,
    compact_journal,
    decode_record,
    encode_record,
)
from repro.harness.report import render_cluster_status
from repro.phylo import cli, run_full_analysis


def _truncate_after(journal_path: str, out_path: str, k: int) -> int:
    """Keep the run header and the first *k* replicate results —
    simulating a run killed at a task boundary after *k* replicates."""
    kept, replicates = [], 0
    with open(journal_path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["event"] == "replicate_done":
                replicates += 1
                if replicates > k:
                    continue
            if record["event"] in ("run_finished", "run_progress"):
                continue
            kept.append(line.rstrip("\n"))
    with open(out_path, "w") as fh:
        fh.write("\n".join(kept) + "\n")
    return min(k, replicates)


def _events(path: str) -> list:
    """The event names of a journal's readable records."""
    events = []
    with open(path) as fh:
        for line in fh:
            try:
                events.append(decode_record(line)["event"])
            except ValueError:
                pass  # a torn or corrupt line
    return events


class TestJournal:
    def test_append_and_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.append("run_started", spec={"n_inferences": 1})
            journal.append("task_started", task="inference/0", attempt=1,
                           worker=0)
            journal.append(
                "replicate_done", task="inference/0",
                payload={"kind": "inference", "replicate": 0,
                         "newick": "(a,b,c);", "log_likelihood": -1.5,
                         "is_bootstrap": False, "perf": {"pmat_hits": 2}},
            )
            journal.append("task_finished", task="inference/0", attempt=1,
                           worker=0)
        state = replay(path)
        assert state.spec == {"n_inferences": 1}
        assert state.payloads[("inference", 0)]["log_likelihood"] == -1.5
        assert state.tasks_started == 1 and state.tasks_finished == 1
        assert not state.finished
        assert state.perf_totals() == {"pmat_hits": 2}

    def test_duplicate_replicates_first_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            for i in range(2):
                journal.append(
                    "replicate_done", task="bootstrap/0",
                    payload={"kind": "bootstrap", "replicate": 0,
                             "newick": "(a,b,c);", "log_likelihood": -2.0,
                             "is_bootstrap": True},
                )
        assert len(replay(path).payloads) == 1

    def test_replay_tolerates_torn_tail_line(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.append("run_started", spec={"n_inferences": 1})
        with open(path, "a") as fh:
            fh.write('{"event": "replicate_done", "payl')  # torn write
        state = replay(path)
        assert state.spec == {"n_inferences": 1}
        assert not state.payloads

    def test_in_memory_journal_has_no_file(self):
        journal = RunJournal(None)
        journal.append("run_started", spec={})
        assert journal.path is None and len(journal.events) == 1


def _payload(replicate, kind="bootstrap"):
    return {"kind": kind, "replicate": replicate,
            "newick": f"(a,b,c{replicate});", "log_likelihood": -2.0,
            "is_bootstrap": kind == "bootstrap"}


class TestJournalHardening:
    """CRC + torn-record tolerance (hardened by the chaos campaign)."""

    def _journal_with_payloads(self, path, n=3):
        with RunJournal(path) as journal:
            journal.append("run_started", spec={"n_inferences": 1})
            for r in range(n):
                journal.append("replicate_done", task=f"bootstrap/{r}",
                               payload=_payload(r))

    def test_crc_detects_in_place_corruption(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        self._journal_with_payloads(path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        # Flip two characters inside the *middle* record's newick — the
        # line stays valid JSON of the right shape, so only the CRC can
        # catch it.
        corrupted = lines[2].replace("(a,b,c1)", "(a,c,b1)")
        assert corrupted != lines[2]
        lines[2] = corrupted
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="CRC32"):
            decode_record(corrupted)
        state = replay(path)
        assert state.corrupt_records == 1
        assert any("CRC32" in w for w in state.warnings)
        # The damaged replicate is dropped (it would rerun on resume);
        # its neighbours are untouched.
        assert sorted(state.payloads) == [("bootstrap", 0), ("bootstrap", 2)]

    def test_truncation_at_every_byte_offset_is_tolerated(self, tmp_path):
        """Replay must survive the writer dying at *any* byte of the
        final record: earlier records stay intact, the torn tail is
        skipped and counted, and nothing raises."""
        path = str(tmp_path / "j.jsonl")
        self._journal_with_payloads(path, n=2)
        with open(path, "rb") as fh:
            blob = fh.read()
        last_start = blob[:-1].rfind(b"\n") + 1
        cut_path = str(tmp_path / "cut.jsonl")
        for cut in range(last_start, len(blob)):
            with open(cut_path, "wb") as fh:
                fh.write(blob[:cut])
            state = replay(cut_path)
            assert state.spec == {"n_inferences": 1}
            assert ("bootstrap", 0) in state.payloads  # never collateral
            if ("bootstrap", 1) in state.payloads:
                # A clean cut: the whole record survived, only the
                # newline is missing.
                assert state.corrupt_records == 0
            else:
                # A nonempty fragment is counted; a cut at the record
                # boundary leaves nothing to count.
                assert state.corrupt_records == (
                    1 if cut > last_start else 0
                )

    def test_malformed_payload_is_skipped_not_trusted(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.append("run_started", spec={"n_inferences": 1})
            journal.append("replicate_done", task="bootstrap/0",
                           payload=_payload(0))
            # CRC-valid record, nonsense payload (no newick/lnl): the
            # validate-first ingest must refuse it.
            journal.append("replicate_done", task="bootstrap/1",
                           payload={"kind": "bootstrap", "replicate": 1})
        state = replay(path)
        assert state.corrupt_records == 1
        assert any("bad result payload" in w for w in state.warnings)
        assert sorted(state.payloads) == [("bootstrap", 0)]

    def test_append_repairs_a_torn_tail_before_writing(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        self._journal_with_payloads(path, n=1)
        with open(path, "a") as fh:
            fh.write('{"event": "replicate_done", "payl')  # torn write
        # Reopening for append must terminate the fragment so the next
        # record does not splice onto it.
        with RunJournal(path, append=True) as journal:
            journal.append("replicate_done", task="bootstrap/9",
                           payload=_payload(9))
        state = replay(path)
        assert state.corrupt_records == 1  # the fragment, nothing else
        assert sorted(state.payloads) == [("bootstrap", 0), ("bootstrap", 9)]

    def test_compact_journal_keeps_the_durable_essence(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.append("run_started", spec={"n_inferences": 1})
            journal.append("task_started", task="bootstrap/0", attempt=1,
                           worker=0)
            for _ in range(2):  # a retry duplicate
                journal.append("replicate_done", task="bootstrap/0",
                               payload=_payload(0))
            journal.append("task_failed", task="bootstrap/1", attempt=1,
                           attempts=3, backoff_ms=10.0, error="boom",
                           will_retry=True)
            journal.append("run_finished", n_results=1)
        with open(path, "a") as fh:
            fh.write('{"event": "replicate_done", "payl')  # torn write
        before = replay(path)
        compact_journal(path)
        after = replay(path)
        assert after.payloads == before.payloads
        assert after.spec == before.spec
        assert after.finished
        assert after.corrupt_records == 0  # the torn line is gone
        assert after.tasks_started == 0  # scheduling chatter dropped
        with open(path) as fh:
            assert len(fh.read().splitlines()) == 3

    def test_atomic_write_fsyncs_the_parent_directory(self, tmp_path,
                                                      monkeypatch):
        """``os.replace`` only updates the directory entry; without a
        directory fsync a crash right after the rename can resurrect
        the old file.  atomic_write must therefore fsync the target's
        parent exactly once, after the replace has landed."""
        from repro.cluster import checkpoint

        calls = []
        real = checkpoint._fsync_directory

        def recording(directory):
            # The rename must already be visible when the fsync runs —
            # otherwise the fsync hardens nothing.
            calls.append((directory, target.read_text()))
            real(directory)

        monkeypatch.setattr(checkpoint, "_fsync_directory", recording)
        target = tmp_path / "snapshot.json"
        checkpoint.atomic_write(str(target), "durable\n")
        assert target.read_text() == "durable\n"
        assert calls == [(str(tmp_path), "durable\n")]
        # No temp file survives a successful write.
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]

    def test_single_worker_runs_journal_identically(
            self, tiny_patterns, fast_config, tmp_path):
        """With one worker and an injected deterministic clock, two runs
        of the same spec journal byte-identically, run_progress's phase
        timings included (the scheduler times phases by the journal's
        stamps)."""
        spec = JobSpec(n_inferences=1, n_bootstraps=2, seed=9,
                       batch_size=2, config=fast_config)

        def journal(path):
            clock = iter(range(1, 10_000)).__next__
            run_job(spec, alignment=tiny_patterns, n_workers=1,
                    journal_path=path,
                    clock=lambda: float(clock()))
            with open(path) as fh:
                return fh.read()

        first = journal(str(tmp_path / "a.jsonl"))
        second = journal(str(tmp_path / "b.jsonl"))
        assert first == second


def _essence(state):
    """The resume-relevant projection of a replayed state: everything a
    compaction must preserve (scheduling chatter and corrupt-line counts
    are deliberately excluded — dropping those is compaction's job)."""
    return {
        "spec": state.spec,
        "payloads": state.payloads,
        "done_inferences": state.done_inferences,
        "done_bootstraps": state.done_bootstraps,
        "bootstop": state.bootstop,
        "finished": state.finished,
        "perf": state.perf_totals(),
    }


def _random_payload(kind, replicate, rng):
    return {
        "kind": kind,
        "replicate": replicate,
        "newick": f"(t0:0.{rng.randrange(9)},t1:0.1,t2:0.2);",
        "log_likelihood": -100.0 - rng.random(),
        "is_bootstrap": kind == "bootstrap",
        "perf": {"newview_calls": rng.randrange(1, 50)},
    }


def _corrupt_lines(path, rng):
    """Chaos-seeded damage: garbage lines, CRC flips, and a torn tail."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        return
    out = []
    for i, line in enumerate(lines):
        roll = rng.random()
        if i > 0 and roll < 0.10:
            out.append("{not json at all")  # malformed line
        elif i > 0 and roll < 0.20:
            out.append(line.replace('"', "'", 1))  # CRC-breaking flip
        else:
            out.append(line)
    text = "\n".join(out) + "\n"
    if rng.random() < 0.5:  # writer died mid-append
        text += out[-1][: max(1, len(out[-1]) // 2)]
    with open(path, "w") as fh:
        fh.write(text)


class TestCompactionProperty:
    """replay(compact(journal)) == replay(journal), for any damage."""

    @pytest.mark.parametrize("seed", range(8))
    def test_single_file_journal(self, tmp_path, seed):
        rng = random.Random(seed)
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.append("run_started",
                           spec={"n_inferences": 1, "n_bootstraps": 8})
            for _ in range(rng.randrange(4, 14)):
                kind = "bootstrap" if rng.random() < 0.75 else "inference"
                rep = rng.randrange(0, 8)
                task = f"{kind}/{rep}"
                journal.append("task_started", task=task, attempt=1, worker=0)
                journal.append("replicate_done", task=task, attempt=1,
                               payload=_random_payload(kind, rep, rng))
                journal.append("task_finished", task=task, attempt=1,
                               worker=0)
            if rng.random() < 0.3:
                journal.append("bootstop_converged", stop_at=4, requested=8,
                               metric=0.01, pass_fraction=1.0)
            if rng.random() < 0.5:
                journal.append("run_finished", n_results=1, perf={})
        _corrupt_lines(path, rng)

        before = replay(path)
        compact_journal(path)
        after = replay(path)
        assert _essence(after) == _essence(before)
        assert after.corrupt_records == 0  # damage never survives compaction
        with open(path) as fh:
            n_lines = sum(1 for _ in fh)
        assert n_lines <= (1 + len(before.payloads)
                           + (1 if before.bootstop else 0)
                           + (1 if before.finished else 0))


class TestResumeDeterminism:
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_resume_after_k_replicates_is_bit_identical(
            self, k, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        # A clean journalled run, then a copy truncated after k of its 5
        # replicate results (1 inference + 4 bootstraps) to simulate an
        # interruption at a task boundary.
        full = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=full)

        truncated = str(tmp_path / f"cut{k}.jsonl")
        _truncate_after(full, truncated, k)
        resumed = resume_job(truncated, alignment=tiny_patterns,
                             n_workers=cluster_workers)

        assert resumed.best.newick == serial_reference.best.newick
        assert resumed.best.log_likelihood == \
            serial_reference.best.log_likelihood
        assert [r.newick for r in resumed.inferences] == \
            [r.newick for r in serial_reference.inferences]
        assert [b.newick for b in resumed.bootstraps] == \
            [b.newick for b in serial_reference.bootstraps]
        assert [b.log_likelihood for b in resumed.bootstraps] == \
            [b.log_likelihood for b in serial_reference.bootstraps]
        assert resumed.supports == serial_reference.supports

        state = replay(truncated)
        assert state.resumes == 1
        assert state.finished

    @pytest.mark.parametrize("kill_seed", [101, 202, 303])
    def test_kill_and_resume_is_bit_identical(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path, kill_seed):
        """A run killed at a seeded record, possibly mid-append (a torn
        half-record), resumes to the serial reference bit for bit."""
        full = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=1,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=full)

        journal = str(tmp_path / f"killed{kill_seed}.jsonl")
        with open(full) as fh:
            lines = fh.read().splitlines(True)
        rng = random.Random(kill_seed)
        keep = rng.randint(1, len(lines))  # the header always survives
        text = "".join(lines[:keep])
        if keep < len(lines) and rng.random() < 0.5:
            torn = lines[keep]
            text += torn[: max(1, len(torn) // 2)]  # died mid-write
        with open(journal, "w") as fh:
            fh.write(text)

        resumed = resume_job(journal, alignment=tiny_patterns,
                             n_workers=cluster_workers)
        assert resumed.best.newick == serial_reference.best.newick
        assert resumed.best.log_likelihood == \
            serial_reference.best.log_likelihood
        assert [b.newick for b in resumed.bootstraps] == \
            [b.newick for b in serial_reference.bootstraps]
        assert [b.log_likelihood for b in resumed.bootstraps] == \
            [b.log_likelihood for b in serial_reference.bootstraps]
        assert resumed.supports == serial_reference.supports
        state = replay(journal)
        assert state.resumes == 1
        assert state.finished

    @pytest.mark.parametrize("n_inferences,n_bootstraps", [(1, 4), (2, 3)],
                             ids=["1+4", "2+3"])
    def test_every_journal_cut_resumes_bit_identical(
            self, tiny_patterns, fast_config, cluster_workers, tmp_path,
            n_inferences, n_bootstraps):
        """A run killed after any record of its journal, cleanly or
        mid-append (a torn half-record), resumes to the serial reference
        bit for bit: every cut k = 0..N is tried, on one shared pool,
        each through ``run_job``.  At k = 0 the file is empty or holds
        half a header, and the run starts afresh."""
        reference = run_full_analysis(
            tiny_patterns, n_inferences=n_inferences,
            n_bootstraps=n_bootstraps, config=fast_config, seed=9)
        full = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=n_inferences, n_bootstraps=n_bootstraps,
                       seed=9, batch_size=1, config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=full)
        with open(full) as fh:
            lines = fh.read().splitlines(True)
        cuts = [(k, False) for k in range(len(lines) + 1)]
        cuts += [(k, True) for k in range(len(lines))]

        pool = WorkerPool(cluster_workers)
        try:
            for k, torn in cuts:
                text = "".join(lines[:k])
                if torn:
                    text += lines[k][: max(1, len(lines[k]) // 2)]
                journal = str(tmp_path / f"cut{k}{'t' if torn else ''}.jsonl")
                with open(journal, "w") as fh:
                    fh.write(text)

                resumed = run_job(spec, alignment=tiny_patterns,
                                  n_workers=cluster_workers,
                                  journal_path=journal, pool=pool)
                cut = (k, torn)
                assert resumed.best.newick == reference.best.newick, cut
                assert resumed.best.log_likelihood == \
                    reference.best.log_likelihood, cut
                for got, want in ((resumed.inferences, reference.inferences),
                                  (resumed.bootstraps, reference.bootstraps)):
                    assert [r.newick for r in got] == \
                        [r.newick for r in want], cut
                    assert [r.log_likelihood for r in got] == \
                        [r.log_likelihood for r in want], cut
                assert resumed.supports == reference.supports, cut
                state = replay(journal)
                # The uncut journal already holds the run's run_finished,
                # and continuing it only reads it; a cut without a header
                # starts afresh; every other cut is resumed and
                # finalized once.
                assert state.resumes == (0 if k in (0, len(lines)) else 1), cut
                assert _events(journal).count("run_started") == 1, cut
                assert state.finished, cut
                assert _events(journal).count("run_finished") == 1, cut
        finally:
            pool.close()

    def test_resume_of_complete_run_spawns_no_workers(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        journal = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=journal)
        # No alignment passed: a complete journal must not need one (it
        # would have to load from spec.alignment_path, which is unset).
        resumed = resume_job(journal)
        assert resumed.supports == serial_reference.supports
        assert resumed.best.newick == serial_reference.best.newick

    def test_resume_of_finished_run_writes_nothing(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        """A journal that already ends in ``run_finished`` is read, not
        appended to: resuming it returns the journalled analysis and
        leaves the file byte for byte as it was."""
        journal = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=journal)
        with open(journal, "rb") as fh:
            before = fh.read()
        for _ in range(2):
            resumed = resume_job(journal)
            assert resumed.best.newick == serial_reference.best.newick
            assert resumed.best.log_likelihood == \
                serial_reference.best.log_likelihood
            assert [b.newick for b in resumed.bootstraps] == \
                [b.newick for b in serial_reference.bootstraps]
            assert resumed.supports == serial_reference.supports
            assert resumed.degraded is False
        with open(journal, "rb") as fh:
            assert fh.read() == before
        state = replay(journal)
        assert state.resumes == 0
        assert _events(journal).count("run_finished") == 1

    @staticmethod
    def _older_journal(tiny_patterns, fast_config, workers, tmp_path,
                       batch_spr):
        """A run cut after two replicates, its header rewritten the way
        a build that still had ``batch_spr``/``gradient_smoothing``
        journalled its ``SearchConfig``."""
        full = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=workers,
                journal_path=full)
        truncated = str(tmp_path / "cut.jsonl")
        _truncate_after(full, truncated, 2)
        with open(truncated) as fh:
            records = [decode_record(line) for line in fh]
        assert records[0]["event"] == "run_started"
        records[0]["spec"]["config"].update(batch_spr=batch_spr,
                                            gradient_smoothing=False)
        older = str(tmp_path / "older.jsonl")
        with open(older, "w") as fh:
            fh.write("".join(encode_record(r) + "\n" for r in records))
        return older

    def test_resume_accepts_a_header_with_the_retired_options_off(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        older = self._older_journal(tiny_patterns, fast_config,
                                    cluster_workers, tmp_path, False)
        resumed = resume_job(older, alignment=tiny_patterns,
                             n_workers=cluster_workers)
        assert resumed.best.newick == serial_reference.best.newick
        assert resumed.best.log_likelihood == \
            serial_reference.best.log_likelihood
        assert [b.newick for b in resumed.bootstraps] == \
            [b.newick for b in serial_reference.bootstraps]
        assert [b.log_likelihood for b in resumed.bootstraps] == \
            [b.log_likelihood for b in serial_reference.bootstraps]
        assert resumed.supports == serial_reference.supports

    def test_resume_rejects_a_header_with_a_retired_option_on(
            self, tiny_patterns, fast_config, cluster_workers, tmp_path):
        older = self._older_journal(tiny_patterns, fast_config,
                                    cluster_workers, tmp_path, True)
        with open(older) as fh:
            before = fh.read()
        with pytest.raises(ValueError, match="'batch_spr'"):
            resume_job(older, alignment=tiny_patterns,
                       n_workers=cluster_workers)
        with open(older) as fh:
            assert fh.read() == before  # no run_resumed, no task

    def test_resume_requires_a_header(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(ValueError, match="no run_started header"):
            resume_job(path)

    def test_run_job_on_a_finished_journal_writes_nothing(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        """``run_job`` over the finished journal of the same job only
        reads it: the journalled analysis comes back, the file is left
        byte for byte, and no alignment is needed."""
        journal = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=journal)
        with open(journal, "rb") as fh:
            before = fh.read()
        again = run_job(spec, n_workers=cluster_workers,
                        journal_path=journal)
        assert again.best.newick == serial_reference.best.newick
        assert again.best.log_likelihood == \
            serial_reference.best.log_likelihood
        assert [b.newick for b in again.bootstraps] == \
            [b.newick for b in serial_reference.bootstraps]
        assert again.supports == serial_reference.supports
        with open(journal, "rb") as fh:
            assert fh.read() == before

    def test_run_job_refuses_another_jobs_journal(
            self, tiny_patterns, fast_config, cluster_workers, tmp_path):
        journal = str(tmp_path / "cut.jsonl")
        full = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=full)
        _truncate_after(full, journal, 2)
        with open(journal, "rb") as fh:
            before = fh.read()
        other = JobSpec(n_inferences=1, n_bootstraps=4, seed=10,
                        config=fast_config)
        with pytest.raises(ValueError, match="cut.jsonl: journal holds "
                           "another job"):
            run_job(other, alignment=tiny_patterns,
                    n_workers=cluster_workers, journal_path=journal)
        with open(journal, "rb") as fh:
            assert fh.read() == before


class TestStatusRendering:
    def test_status_of_partial_run(self, tiny_patterns, fast_config,
                                   cluster_workers, tmp_path):
        full = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=full)
        # Keep the inference and the first two bootstraps (arrival order
        # of the journal is nondeterministic, so filter by kind).
        partial = str(tmp_path / "partial.jsonl")
        kept, boots = [], 0
        with open(full) as fh:
            for line in fh:
                record = json.loads(line)
                if record["event"] in ("run_finished", "run_progress"):
                    continue
                if (record["event"] == "replicate_done"
                        and record["payload"]["is_bootstrap"]):
                    boots += 1
                    if boots > 2:
                        continue
                kept.append(line.rstrip("\n"))
        with open(partial, "w") as fh:
            fh.write("\n".join(kept) + "\n")

        text = render_cluster_status(partial)
        assert "1 inference(s) + 4 bootstrap(s)" in text
        assert "best so far" in text
        assert "engine counters" in text
        assert "[finished]" not in text

        finished = render_cluster_status(full)
        assert "[finished]" in finished
        assert "bootstraps 4/4" in finished
        assert "corrupt journal records" not in finished

    def test_status_counts_corrupt_records(self, tiny_patterns,
                                           fast_config, cluster_workers,
                                           tmp_path):
        full = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=full)
        with open(full) as fh:
            lines = fh.read().splitlines()
        # Corrupt one replicate record in place (CRC catches it) and
        # append a torn tail: both must be counted, not trusted.
        index = next(i for i, line in enumerate(lines)
                     if json.loads(line)["event"] == "replicate_done")
        lines[index] = lines[index][:-3] + '"}}'
        lines.append('{"event": "replicate_done", "payl')
        with open(full, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        text = render_cluster_status(full)
        assert "corrupt journal records skipped: 2" in text


def _shard_manifest(tmp_path, spec):
    """What the retired sharded journal left at a journal path: a
    one-line manifest naming per-group shard files under ``<path>.d/``,
    whose meta shard holds a resumable run header."""
    shard_dir = tmp_path / "run.jsonl.d"
    shard_dir.mkdir()
    (shard_dir / "meta.g0.jsonl").write_text(encode_record(
        {"event": "run_started", "time": 1.0, "spec": spec.to_json()}
    ) + "\n")
    (shard_dir / "shard0.g0.jsonl").write_text("")
    path = tmp_path / "run.jsonl"
    path.write_text(json.dumps({
        "format": "repro-cluster-shard-manifest", "version": 1,
        "n_shards": 1, "generation": 0, "compactions": 0, "snapshot": None,
        "shards": ["meta.g0.jsonl", "shard0.g0.jsonl"],
    }) + "\n")
    return str(path)


def _tree_bytes(root):
    paths = [os.path.join(d, name)
             for d, _, files in os.walk(root) for name in files]
    tree = {}
    for path in paths:
        with open(path, "rb") as fh:
            tree[path] = fh.read()
    return tree


class TestRetiredShardManifest:
    """The sharded journal is gone; its manifest is refused, not read as
    a corrupt single-file journal and appended to."""

    @pytest.mark.parametrize("entry", ["replay", "run_job", "resume_job",
                                       "compact_journal"])
    def test_manifest_is_refused_before_any_write(
            self, tiny_patterns, fast_config, tmp_path, entry):
        spec = JobSpec(n_inferences=1, n_bootstraps=2, seed=9,
                       config=fast_config)
        path = _shard_manifest(tmp_path, spec)
        before = _tree_bytes(tmp_path)
        call = {
            "replay": lambda: replay(path),
            "run_job": lambda: run_job(spec, alignment=tiny_patterns,
                                       n_workers=1, journal_path=path),
            "resume_job": lambda: resume_job(path, alignment=tiny_patterns,
                                             n_workers=1),
            "compact_journal": lambda: compact_journal(path),
        }[entry]
        with pytest.raises(RetiredJournalFormatError, match="manifest"):
            call()
        assert _tree_bytes(tmp_path) == before

    def test_cluster_status_exits_2(self, fast_config, tmp_path, capsys):
        spec = JobSpec(n_inferences=1, n_bootstraps=2, seed=9,
                       config=fast_config)
        path = _shard_manifest(tmp_path, spec)
        assert cli.main(["cluster", "status", "--journal", path]) == 2
        assert "manifest" in capsys.readouterr().err
