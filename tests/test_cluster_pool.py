"""Resident cluster workers: ``WorkerPool`` check-out, parking, retiring.

A pool's worker is forked once and serves job after job; these tests pin
what that must not change (a replicate stays a pure function of
``(seed, kind, replicate)`` whatever the worker ran before; journals,
retries and chaos behave as with a fork per run) and what it adds
(parked workers survive between runs, never outlive their owner, and
are replaced when dead or forked under another chaos injector).
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.chaos import FaultPlan, FaultSpec, inject
from repro.chaos.plan import CLUSTER_WORKER_HANG
from repro.cluster import (
    ClusterConfig,
    JobSpec,
    WorkerPlans,
    WorkerPool,
    replay,
    resume_job,
    run_job,
)
from repro.cluster.cancel import REASON_DRAIN, CancelToken, TaskCancelled
from repro.cluster.pool import PARKED_TICK_S
from repro.phylo import synthetic_dataset
from repro.serve.jobstore import result_payload
from tests.test_resilience import FAULT_PROBABILITY, _seed_firing_once

FAST_RETRY = dict(retry_backoff_s=0.01)


def _gone(pid: int) -> bool:
    """True once *pid* has exited (a not-yet-reaped zombie counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


def _wait_gone(pids, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(_gone(pid) for pid in pids):
            return True
        time.sleep(0.01)
    return all(_gone(pid) for pid in pids)


def _canonical(spec, journal) -> str:
    """The servable result of a finished journal, ``perf`` included."""
    return json.dumps(result_payload("digest", spec, journal),
                      sort_keys=True)


@pytest.fixture()
def pool(cluster_workers):
    pool = WorkerPool(cluster_workers)
    yield pool
    pool.close()
    assert pool.n_idle == 0


@pytest.fixture()
def pair():
    """A two-worker pool for the tests that run two-worker jobs."""
    pool = WorkerPool(2)
    yield pool
    pool.close()
    assert pool.n_idle == 0


@pytest.fixture(scope="module")
def other_patterns():
    """A second, differently shaped job for the same workers."""
    return synthetic_dataset(n_taxa=5, n_sites=100, seed=3).compress()


class TestResidentWorkers:
    def test_back_to_back_jobs_reuse_workers_bit_identically(
            self, tiny_patterns, other_patterns, fast_config,
            cluster_workers, pool, tmp_path):
        jobs = {
            "a": (JobSpec(n_inferences=1, n_bootstraps=4, seed=9,
                          batch_size=2, config=fast_config), tiny_patterns),
            "b": (JobSpec(n_inferences=2, n_bootstraps=3, seed=4,
                          config=fast_config), other_patterns),
        }

        def run(name, tag, pool=None):
            spec, patterns = jobs[name]
            journal = str(tmp_path / f"{tag}-{name}.jsonl")
            run_job(spec, alignment=patterns, n_workers=cluster_workers,
                    journal_path=journal, pool=pool)
            return _canonical(spec, journal)

        fresh = {name: run(name, "fresh") for name in jobs}
        pool.prefork()
        pids = pool.idle_pids()
        assert len(pids) == cluster_workers
        for round_, order in enumerate(("ab", "ba")):
            for name in order:
                assert run(name, f"shared{round_}", pool) == fresh[name]
                assert pool.idle_pids() == pids  # same processes, parked

    def test_private_pool_leaves_no_process_behind(
            self, tiny_patterns, fast_config, cluster_workers, tmp_path):
        before = set(multiprocessing.active_children())
        run_job(JobSpec(n_inferences=1, n_bootstraps=1, seed=2,
                        config=fast_config),
                alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=str(tmp_path / "j.jsonl"))
        assert set(multiprocessing.active_children()) <= before

    def test_killed_parked_worker_is_replaced_without_a_retry(
            self, tiny_patterns, fast_config, serial_reference,
            pair, tmp_path):
        pair.prefork()
        victim = pair.idle_pids()[0]
        os.kill(victim, signal.SIGKILL)
        assert _wait_gone([victim], 5.0)
        journal = str(tmp_path / "j.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                       config=fast_config)
        result = run_job(spec, alignment=tiny_patterns,
                         n_workers=2, journal_path=journal,
                         pool=pair)
        assert result.supports == serial_reference.supports
        state = replay(journal)
        assert not state.retries and not state.worker_deaths
        assert victim not in pair.idle_pids()
        assert len(pair.idle_pids()) == 2

    def test_just_killed_parked_worker_is_never_checked_out(self, pair):
        """No wait between the SIGKILL and the check-out: ``is_alive()``
        is still true and the pipe still quiet (the flake of ROADMAP
        7(f)); only the unanswered ping tells."""
        for _ in range(5):
            pair.prefork()
            victim = pair.idle_pids()[0]
            os.kill(victim, signal.SIGKILL)
            taken = pair.checkout(2)
            try:
                assert victim not in [w.proc.pid for w in taken]
            finally:
                pair.retire(*taken)

    def test_parks_at_most_n_workers_under_concurrent_runs(
            self, tiny_patterns, other_patterns, fast_config, tmp_path):
        """Three runner threads (more than this host has cores, a
        shortened switch interval) over one two-worker pool: check-out
        and check-in never lose or duplicate a worker."""
        pool = WorkerPool(2)
        errors = []

        def job(tag, patterns):
            try:
                for k in range(3):
                    run_job(JobSpec(n_inferences=1, n_bootstraps=2,
                                    seed=k, config=fast_config),
                            alignment=patterns, n_workers=2,
                            journal_path=str(tmp_path / f"{tag}{k}.jsonl"),
                            pool=pool)
                    parked = pool.idle_pids()
                    assert len(parked) == len(set(parked)) <= 2
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=job, args=args)
                   for args in (("x", tiny_patterns), ("y", other_patterns),
                                ("z", tiny_patterns))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert pool.n_idle == 2
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert not multiprocessing.active_children()


class TestFaultsOnASharedPool:
    def _spec(self, fast_config):
        return JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                       config=fast_config)

    def test_crashed_worker_is_retried_and_not_parked(
            self, tiny_patterns, fast_config, serial_reference, pair,
            tmp_path):
        pair.prefork()
        before = pair.idle_pids()
        journal = str(tmp_path / "j.jsonl")
        result = run_job(
            self._spec(fast_config), alignment=tiny_patterns, n_workers=2,
            journal_path=journal, pool=pair,
            cluster=ClusterConfig(n_workers=2, **FAST_RETRY),
            plans=WorkerPlans(crash={"bootstrap/0-1": (1,)}))
        assert result.supports == serial_reference.supports
        state = replay(journal)
        assert [d["reason"] for d in state.worker_deaths] == ["crash"]
        assert len(state.retries) == 1
        after = pair.idle_pids()
        assert len(set(before) - set(after)) == 1  # the crashed one is gone
        assert all(not _gone(pid) for pid in after)

    def test_failed_and_hung_tasks_behave_as_with_a_fork_per_run(
            self, tiny_patterns, fast_config, serial_reference, pair,
            tmp_path):
        cfg = ClusterConfig(n_workers=2, task_timeout_s=1.0, **FAST_RETRY)
        for name, plans in (
                ("fail", WorkerPlans(fail={"bootstrap/0-1": (1,)})),
                ("hang", WorkerPlans(hang={"bootstrap/0-1": (1,)}))):
            journal = str(tmp_path / f"{name}.jsonl")
            result = run_job(self._spec(fast_config),
                             alignment=tiny_patterns, journal_path=journal,
                             cluster=cfg, plans=plans, pool=pair)
            assert result.supports == serial_reference.supports
            state = replay(journal)
            assert len(state.retries) == 1
            assert len(state.worker_deaths) == (1 if name == "hang" else 0)
            assert all(not _gone(pid) for pid in pair.idle_pids())

    def test_new_chaos_injector_is_a_new_epoch(
            self, tiny_patterns, fast_config, serial_reference, pair,
            tmp_path):
        spec = self._spec(fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=2, pool=pair,
                journal_path=str(tmp_path / "calm.jsonl"))
        calm = pair.idle_pids()
        assert len(calm) == 2
        # Fires on exactly one (task, attempt) key, in whichever worker
        # runs it — which must be one forked *under this injector*.
        seed, hung_task = _seed_firing_once(CLUSTER_WORKER_HANG)
        plan = FaultPlan(seed=seed, specs=(FaultSpec(
            CLUSTER_WORKER_HANG, probability=FAULT_PROBABILITY),))
        cfg = ClusterConfig(n_workers=2, heartbeat_interval_s=0.05,
                            heartbeat_timeout_s=0.5, **FAST_RETRY)
        journal = str(tmp_path / "chaos.jsonl")
        with inject(plan):
            result = run_job(spec, alignment=tiny_patterns,
                             journal_path=journal, cluster=cfg, pool=pair)
            assert _wait_gone(calm, 5.0)  # retired at check-out
            chaotic = pair.idle_pids()
        assert result.supports == serial_reference.supports
        assert not set(chaotic) & set(calm)
        state = replay(journal)
        deaths = [(d["task"], d["reason"]) for d in state.worker_deaths]
        assert (hung_task, "heartbeat") in deaths
        assert {reason for _, reason in deaths} == {"heartbeat"}
        # ... and leaving the injector is one more epoch.
        run_job(spec, alignment=tiny_patterns, n_workers=2, pool=pair,
                journal_path=str(tmp_path / "calm2.jsonl"))
        assert not set(pair.idle_pids()) & set(chaotic)


class _DrainAfterFirstReplicate:
    """A journal ``clock`` that drains the run from inside it: the first
    append after a ``replicate_done`` record reached the journal cancels
    *token*, so the drain lands mid-run whatever the host's speed."""

    def __init__(self, journal: str, token: CancelToken):
        self.journal, self.token = journal, token

    def __call__(self) -> float:
        if not self.token.cancelled:
            with open(self.journal) as fh:
                if '"replicate_done"' in fh.read():
                    self.token.cancel(REASON_DRAIN)
        return time.time()


class TestAbnormalEnds:
    """A run that does not end normally terminates what it holds."""

    SPEC = JobSpec(n_inferences=1, n_bootstraps=24, seed=3)

    @pytest.fixture(scope="class")
    def uninterrupted(self, tiny_patterns, tmp_path_factory):
        journal = str(tmp_path_factory.mktemp("pool") / "base.jsonl")
        run_job(self.SPEC, alignment=tiny_patterns, n_workers=2,
                journal_path=journal)
        return _canonical(self.SPEC, journal)

    def test_drain_terminates_held_workers_and_resume_is_bit_identical(
            self, tiny_patterns, uninterrupted, pair, tmp_path):
        pair.prefork()
        held = pair.idle_pids()
        journal = str(tmp_path / "j.jsonl")
        token = CancelToken()
        with pytest.raises(TaskCancelled) as excinfo:
            run_job(self.SPEC, alignment=tiny_patterns, n_workers=2,
                    journal_path=journal, cancel=token, pool=pair,
                    clock=_DrainAfterFirstReplicate(journal, token))
        assert excinfo.value.reason == REASON_DRAIN
        assert pair.n_idle == 0
        assert _wait_gone(held, 5.0)
        with open(journal) as fh:
            assert "run_cancelled" in fh.read()
        resume_job(journal, alignment=tiny_patterns, n_workers=2, pool=pair)
        assert _canonical(self.SPEC, journal) == uninterrupted
        assert pair.n_idle == 2  # the resumed run ended normally

    def test_deadline_terminates_held_workers(self, tiny_patterns, pair,
                                              tmp_path):
        from dataclasses import replace

        pair.prefork()
        held = pair.idle_pids()
        journal = str(tmp_path / "j.jsonl")
        spec = replace(self.SPEC, n_bootstraps=600, deadline_s=0.75)
        result = run_job(spec, alignment=tiny_patterns, n_workers=2,
                         journal_path=journal, pool=pair)
        assert result.degraded
        assert pair.n_idle == 0
        assert _wait_gone(held, 5.0)

    def test_permanent_failure_terminates_held_workers(
            self, tiny_patterns, fast_config, pair, tmp_path):
        from repro.cluster import TaskExecutionError

        pair.prefork()
        held = pair.idle_pids()
        with pytest.raises(TaskExecutionError):
            run_job(JobSpec(n_inferences=1, n_bootstraps=2, seed=5,
                            config=fast_config),
                    alignment=tiny_patterns, n_workers=2, pool=pair,
                    journal_path=str(tmp_path / "j.jsonl"),
                    cluster=ClusterConfig(n_workers=2, max_retries=0),
                    plans=WorkerPlans(fail={"bootstrap/0": (1,),
                                            "bootstrap/0-1": (1,)}))
        assert pair.n_idle == 0
        assert _wait_gone(held, 5.0)


_OWNER = """
import sys, time
from repro.cluster import WorkerPool
pool = WorkerPool(2)
pool.prefork()
print(*pool.idle_pids(), flush=True)
time.sleep(60)
"""


class TestOwnership:
    def test_worker_exits_when_its_parent_is_killed(self):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER], stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src))
        pids = []
        try:
            pids = [int(p) for p in owner.stdout.readline().split()]
            assert len(pids) == 2 and not any(_gone(p) for p in pids)
            owner.kill()
            owner.wait()
            killed = time.monotonic()
            assert _wait_gone(pids, 10 * PARKED_TICK_S)
            assert time.monotonic() - killed < 2 * PARKED_TICK_S + 0.1
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
            for pid in pids:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_dropped_pool_is_finalized(self):
        import gc

        pool = WorkerPool(2)
        pool.prefork()
        pids = pool.idle_pids()
        del pool
        gc.collect()
        assert _wait_gone(pids, 5.0)

    def test_closed_pool_still_serves_but_parks_nothing(
            self, tiny_patterns, fast_config, tmp_path):
        pool = WorkerPool(2)
        pool.close()
        run_job(JobSpec(n_inferences=1, n_bootstraps=1, seed=2,
                        config=fast_config),
                alignment=tiny_patterns, n_workers=2, pool=pool,
                journal_path=str(tmp_path / "j.jsonl"))
        assert pool.n_idle == 0
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("campaign", ["cluster", "serve", "resilience"])
    def test_campaigns_leave_no_live_children(self, campaign, tmp_path):
        from repro.chaos import run_campaign

        report = run_campaign(campaign, 1, workdir=str(tmp_path))
        assert len(report.runs) == 1 and report.ok, report.summary()
        assert not multiprocessing.active_children()
