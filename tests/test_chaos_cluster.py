"""Cluster-layer chaos tests: process deaths, torn writes, retry budgets.

Worker faults are keyed on ``task_id:attempt`` (the draw is a pure CRC32
function of the plan seed and that key), so each test *derives* a plan
seed that fires exactly the wanted fault — the schedule is deterministic
across processes, worker counts, and dispatch order.

The bar throughout: a run that survives must be bit-identical to the
serial reference (trees, likelihoods, supports); a run that dies must
die with a typed error.
"""

import os

import pytest

from repro.chaos import (
    SURVIVED_IDENTICAL,
    Campaign,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    inject,
)
from repro.chaos.injector import _uniform
from repro.chaos.plan import (
    CLUSTER_CHECKPOINT_TORN,
    CLUSTER_JOURNAL_OSERROR,
    CLUSTER_JOURNAL_TORN,
    CLUSTER_WORKER_CRASH_ACK,
    CLUSTER_WORKER_HANG,
)
from repro.cluster import JobSpec, RunJournal, replay, resume_job, run_job
from repro.cluster.checkpoint import JournalWriteError, atomic_write
from repro.cluster.queue import ClusterConfig, retry_backoff

#: Task ids of the shared job spec (1 inference + 4 bootstraps in
#: batches of 2) — what the worker-site draws are keyed on.
TASK_IDS = ("inference/0", "bootstrap/0-1", "bootstrap/2-3")
FAULT_PROBABILITY = 0.3


def _spec(fast_config):
    return JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                   config=fast_config)


def _open_paths():
    """The paths this process holds open descriptors on."""
    paths = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            paths.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # closed since the listing
            pass
    return paths


def _cfg(n_workers):
    """Small timeouts: an injected hang costs ~1.5 s, not minutes."""
    return ClusterConfig(
        n_workers=n_workers,
        task_timeout_s=60.0,
        max_retries=2,
        retry_backoff_s=0.01,
        retry_backoff_cap_s=0.1,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=1.5,
    )


def _seed_firing_once(site):
    """A plan seed whose deterministic draw fires *site* on exactly one
    task's first attempt — and not on that task's retries, so the requeue
    must succeed.  Returns ``(seed, task_id)``."""
    for seed in range(5000):
        first = [t for t in TASK_IDS
                 if _uniform(seed, site, f"{t}:1") < FAULT_PROBABILITY]
        if len(first) != 1:
            continue
        task = first[0]
        if all(_uniform(seed, site, f"{task}:{a}") >= FAULT_PROBABILITY
               for a in (2, 3)):
            return seed, task
    raise AssertionError(f"no seed fires {site} exactly once")


def _assert_identical(analysis, reference):
    assert analysis.best.newick == reference.best.newick
    assert analysis.best.log_likelihood == reference.best.log_likelihood
    assert [b.newick for b in analysis.bootstraps] == \
        [b.newick for b in reference.bootstraps]
    assert [b.log_likelihood for b in analysis.bootstraps] == \
        [b.log_likelihood for b in reference.bootstraps]
    assert analysis.supports == reference.supports


class TestWorkerFaults:
    def test_crash_before_ack_costs_a_worker_not_the_run(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        seed, _task = _seed_firing_once(CLUSTER_WORKER_CRASH_ACK)
        plan = FaultPlan(seed=seed, specs=(
            FaultSpec(CLUSTER_WORKER_CRASH_ACK,
                      probability=FAULT_PROBABILITY),
        ))
        journal = str(tmp_path / "j.jsonl")
        with inject(plan):
            analysis = run_job(_spec(fast_config), alignment=tiny_patterns,
                               journal_path=journal,
                               cluster=_cfg(cluster_workers))
        _assert_identical(analysis, serial_reference)
        state = replay(journal)
        # The worker died after streaming its replicates: the master
        # journals the death and reconciles the fully-delivered task.
        assert len(state.worker_deaths) >= 1
        assert state.finished

    def test_hung_worker_is_reaped_by_the_heartbeat_sweep(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        seed, hung_task = _seed_firing_once(CLUSTER_WORKER_HANG)
        plan = FaultPlan(seed=seed, specs=(
            FaultSpec(CLUSTER_WORKER_HANG, probability=FAULT_PROBABILITY),
        ))
        journal = str(tmp_path / "j.jsonl")
        with inject(plan):
            analysis = run_job(_spec(fast_config), alignment=tiny_patterns,
                               journal_path=journal,
                               cluster=_cfg(cluster_workers))
        _assert_identical(analysis, serial_reference)
        state = replay(journal)
        assert any(d["reason"] == "heartbeat" for d in state.worker_deaths)
        # The hung task produced nothing before dying: it must have been
        # requeued with its backoff journalled.
        assert any(f["task"] == hung_task and f["will_retry"]
                   for f in state.failures)
        for failure in state.failures:
            assert failure["backoff_ms"] == pytest.approx(
                retry_backoff(_cfg(cluster_workers), failure["task"],
                              failure["attempt"]) * 1000.0, abs=0.01,
            )


class TestJournalFaults:
    def test_transient_append_oserror_is_absorbed(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(CLUSTER_JOURNAL_OSERROR, trigger_at=(0,)),
        ))
        journal = str(tmp_path / "j.jsonl")
        with inject(plan) as injector:
            analysis = run_job(_spec(fast_config), alignment=tiny_patterns,
                               journal_path=journal,
                               cluster=_cfg(cluster_workers))
            assert injector.fired[CLUSTER_JOURNAL_OSERROR] == 1
        _assert_identical(analysis, serial_reference)
        state = replay(journal)
        assert state.corrupt_records == 0  # the retried append landed whole
        assert state.finished

    def test_append_retry_exhaustion_raises_typed_error(self, tmp_path):
        # Three consecutive injected OSErrors exhaust APPEND_RETRIES
        # within one append.
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(CLUSTER_JOURNAL_OSERROR, trigger_at=(0, 1, 2),
                      max_triggers=3),
        ))
        with RunJournal(str(tmp_path / "j.jsonl")) as journal:
            with inject(plan):
                with pytest.raises(JournalWriteError,
                                   match="after 3 attempts"):
                    journal.append("run_started", spec={})

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open descriptors through /proc")
    def test_a_failed_header_append_closes_the_journal(
            self, tiny_patterns, fast_config, cluster_workers, tmp_path):
        """The ``run_started`` append exhausts its retries: ``run_job``
        raises the typed error and leaves no descriptor open on the
        journal (a serving process would leak one per job)."""
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(CLUSTER_JOURNAL_OSERROR, trigger_at=(0, 1, 2),
                      max_triggers=3),
        ))
        journal = str(tmp_path / "j.jsonl")
        with inject(plan):
            with pytest.raises(JournalWriteError) as raised:
                run_job(_spec(fast_config), alignment=tiny_patterns,
                        journal_path=journal,
                        cluster=_cfg(cluster_workers))
        # ``raised`` keeps the traceback, and with it run_job's frames,
        # alive: a journal they hold open would still be open here.
        assert raised.type is JournalWriteError
        assert os.path.realpath(journal) not in _open_paths()

    def test_torn_append_crashes_then_resumes_bit_identical(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        """The flagship cluster recovery path: the master dies mid-write,
        leaving a half-record; resume repairs the tail, skips the torn
        line, and completes bit-identically to the serial reference."""
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(CLUSTER_JOURNAL_TORN, trigger_at=(4,)),
        ))
        journal = str(tmp_path / "j.jsonl")
        cfg = _cfg(cluster_workers)
        with inject(plan) as injector:
            with pytest.raises(InjectedCrash, match="torn mid-write"):
                run_job(_spec(fast_config), alignment=tiny_patterns,
                        journal_path=journal, cluster=cfg)
            assert injector.fired[CLUSTER_JOURNAL_TORN] == 1
            analysis = resume_job(journal, alignment=tiny_patterns,
                                  cluster=cfg)
        _assert_identical(analysis, serial_reference)
        state = replay(journal)
        assert state.corrupt_records == 1  # exactly the torn line
        assert state.resumes == 1
        assert state.finished

    def test_torn_header_restarts_the_run(self, tiny_alignment,
                                          cluster_workers, tmp_path):
        """The master dies mid-write of the ``run_started`` header: the
        journal holds half a line and no job, so the next ``run_job``
        starts it afresh and the seed survives identically."""
        campaign = Campaign("cluster", n_workers=cluster_workers,
                            workdir=str(tmp_path), alignment=tiny_alignment)
        run = campaign.run_seed(FaultPlan(seed=0, specs=(
            FaultSpec(CLUSTER_JOURNAL_TORN, trigger_at=(0,)),
        )))
        assert run.classification == SURVIVED_IDENTICAL, run.error
        assert run.fired == {CLUSTER_JOURNAL_TORN: 1}
        assert run.resumes == 1
        state = replay(str(tmp_path / "seed000" / "journal.jsonl"))
        assert state.corrupt_records == 0  # the torn header was rewritten
        assert state.resumes == 0
        assert state.finished


class TestCheckpointFaults:
    def test_torn_checkpoint_leaves_target_intact(self, tmp_path):
        target = tmp_path / "best.tree"
        atomic_write(str(target), "(a,b,c);\n")
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(CLUSTER_CHECKPOINT_TORN, trigger_at=(0,)),
        ))
        with inject(plan):
            with pytest.raises(InjectedCrash, match="torn mid-write"):
                atomic_write(str(target), "(a,(b,c));\n")
            # The previous checkpoint survives untouched...
            assert target.read_text() == "(a,b,c);\n"
            # ...with the partial temp file left behind, like a real
            # crash would leave it.
            assert list(tmp_path.glob("best.tree.*.tmp"))
            # The retry (fault budget spent) lands the full content.
            atomic_write(str(target), "(a,(b,c));\n")
        assert target.read_text() == "(a,(b,c));\n"

    def test_organic_write_failure_cleans_up_its_temp_file(self, tmp_path):
        target = tmp_path / "best.tree"
        with pytest.raises(TypeError):
            atomic_write(str(target), object())  # not str: write() raises
        assert not list(tmp_path.glob("best.tree.*.tmp"))
        assert not target.exists()


class TestRetryBackoff:
    def test_backoff_is_capped_exponential_with_deterministic_jitter(self):
        cfg = ClusterConfig(retry_backoff_s=0.05, retry_backoff_cap_s=2.0)
        delays = [retry_backoff(cfg, "bootstrap/0-1", a)
                  for a in range(1, 12)]
        assert delays == [retry_backoff(cfg, "bootstrap/0-1", a)
                          for a in range(1, 12)]  # pure function
        for attempt, delay in enumerate(delays, start=1):
            base = min(2.0, 0.05 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.25
        # Past the cap every delay is cap * (1 + jitter(task, attempt)).
        assert all(2.0 <= d <= 2.5 for d in delays[-3:])

    def test_jitter_decorrelates_tasks(self):
        cfg = ClusterConfig(retry_backoff_s=0.05)
        assert retry_backoff(cfg, "inference/0", 1) != \
            retry_backoff(cfg, "bootstrap/0-1", 1)
