"""Journal replay and resume-determinism tests.

The acceptance bar: a run interrupted at any task boundary and resumed
from its journal produces bit-identical trees, log likelihoods, and
bootstrap supports to an uninterrupted run.
"""

import json

import pytest

from repro.cluster import (
    JobSpec,
    RunJournal,
    replay,
    resume_job,
    run_job,
)
from repro.cluster.checkpoint import (
    compact_journal,
    decode_record,
    encode_record,
)
from repro.harness.report import render_cluster_status


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
        lines = open(path).read().splitlines()
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
        blob = open(path, "rb").read()
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
        assert len(open(path).read().splitlines()) == 3

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
        of the same spec journal identically (modulo the run_progress
        record, which summarizes wall-clock phase timings)."""
        spec = JobSpec(n_inferences=1, n_bootstraps=2, seed=9,
                       batch_size=2, config=fast_config)

        def lines(path):
            clock = iter(range(1, 10_000)).__next__
            run_job(spec, alignment=tiny_patterns, n_workers=1,
                    journal_path=path,
                    clock=lambda: float(clock()))
            return [line for line in open(path).read().splitlines()
                    if json.loads(line)["event"] != "run_progress"]

        first = lines(str(tmp_path / "a.jsonl"))
        second = lines(str(tmp_path / "b.jsonl"))
        assert first == second


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
        before = open(older).read()
        with pytest.raises(ValueError, match="'batch_spr'"):
            resume_job(older, alignment=tiny_patterns,
                       n_workers=cluster_workers)
        assert open(older).read() == before  # no run_resumed, no task

    def test_resume_requires_a_header(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(ValueError, match="no run_started header"):
            resume_job(path)


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
        lines = open(full).read().splitlines()
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
