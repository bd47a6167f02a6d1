"""Tests for the fault-tolerant work queue (retry, backoff, surfacing).

Worker-count sensitive scheduling paths run under the
``REPRO_CLUSTER_WORKERS`` worker count (CI sweeps 2 and 4).
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    JobSpec,
    TaskExecutionError,
    WorkerPlans,
    replay,
    run_job,
)

FAST_RETRY = dict(retry_backoff_s=0.01)


class TestCleanRuns:
    def test_matches_serial_bit_for_bit(self, tiny_patterns, fast_config,
                                        serial_reference, cluster_workers,
                                        tmp_path):
        journal = str(tmp_path / "run.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                       config=fast_config)
        result = run_job(spec, alignment=tiny_patterns,
                         n_workers=cluster_workers, journal_path=journal)
        assert result.best.newick == serial_reference.best.newick
        assert result.best.log_likelihood == \
            serial_reference.best.log_likelihood
        assert [b.newick for b in result.bootstraps] == \
            [b.newick for b in serial_reference.bootstraps]
        assert result.supports == serial_reference.supports

    def test_journal_records_full_lifecycle(self, tiny_patterns, fast_config,
                                            cluster_workers, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=2, seed=2,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=journal)
        state = replay(journal)
        assert state.spec is not None
        assert len(state.payloads) == 3
        assert state.finished
        assert state.tasks_started >= 3
        assert state.tasks_finished >= 3

    def test_perf_counters_journalled_per_task(self, tiny_patterns,
                                               fast_config, cluster_workers,
                                               tmp_path):
        journal = str(tmp_path / "run.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=1, seed=2,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=journal)
        state = replay(journal)
        for payload in state.payloads.values():
            assert payload["perf"]["newview_calls"] > 0
            assert "pmat_hits" in payload["perf"]
            assert "arena_acquires" in payload["perf"]
        totals = state.perf_totals()
        assert totals["newview_calls"] == sum(
            p["perf"]["newview_calls"] for p in state.payloads.values()
        )

    def test_perf_is_the_live_engine_at_the_end_of_the_search(
            self, tiny_patterns, fast_config, cluster_workers, tmp_path):
        """Snapshotted before the engine's caches are dropped: the CLV
        cache, P-matrix cache and arena occupancy it ended with."""
        journal = str(tmp_path / "run.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=1, seed=2,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=journal)
        for payload in replay(journal).payloads.values():
            perf = payload["perf"]
            assert perf["clv_cache_entries"] > 0
            assert perf["pmat_entries"] > 0
            assert perf["arena_in_use"] >= perf["clv_cache_entries"]


class TestRetries:
    def test_transient_failure_is_retried(self, tiny_patterns, fast_config,
                                          serial_reference, cluster_workers,
                                          tmp_path):
        journal = str(tmp_path / "run.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                       config=fast_config)
        plans = WorkerPlans(fail={"bootstrap/0-1": (1,)})  # attempt 1 only
        result = run_job(
            spec, alignment=tiny_patterns, journal_path=journal, plans=plans,
            cluster=ClusterConfig(n_workers=cluster_workers, **FAST_RETRY),
        )
        assert result.supports == serial_reference.supports
        state = replay(journal)
        assert len(state.retries) == 1
        retry = state.retries[0]
        assert retry["task"] == "bootstrap/0-1"
        assert retry["attempt"] == 1
        assert "injected failure" in retry["error"]

    def test_exhausted_retries_surface_the_task_spec(self, tiny_patterns,
                                                     fast_config,
                                                     cluster_workers,
                                                     tmp_path):
        spec = JobSpec(n_inferences=1, n_bootstraps=1, seed=2,
                       config=fast_config)
        plans = WorkerPlans(fail={"bootstrap/0": (1, 2)})
        with pytest.raises(TaskExecutionError) as err:
            run_job(
                spec, alignment=tiny_patterns,
                journal_path=str(tmp_path / "run.jsonl"), plans=plans,
                cluster=ClusterConfig(n_workers=cluster_workers,
                                      max_retries=1, **FAST_RETRY),
            )
        message = str(err.value)
        assert "kind=bootstrap" in message
        assert "replicates=[0]" in message
        assert "seed=2" in message

    def test_scheduler_phases_journalled(self, tiny_patterns, fast_config,
                                         cluster_workers, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=6, seed=2, batch_size=3,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=cluster_workers,
                journal_path=journal)
        state = replay(journal)
        progress = [e for e in state.events if e["event"] == "run_progress"]
        assert progress, "queue should journal its phase accounting"
        phases = progress[-1]["phases"]
        assert set(phases) <= {"edtlp", "llp"}
        total = sum(entry["tasks"] for entry in phases.values())
        assert total >= 3  # every dispatched task is accounted somewhere
