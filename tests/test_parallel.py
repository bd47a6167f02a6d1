"""The section-3.1 parallel analysis on host cores: `run_job` against the
serial `run_full_analysis`."""

import os

import pytest

from repro.cluster import JobSpec, TaskExecutionError, WorkerPool, run_job
from repro.phylo import SearchConfig, run_full_analysis
from repro.phylo.alignment import PatternAlignment

FAST = SearchConfig(initial_radius=1, max_radius=1, max_rounds=1,
                    smoothing_passes=1, final_smoothing_passes=1)


class TestParallelAnalysis:
    def test_matches_serial_exactly(self, small_patterns):
        serial = run_full_analysis(
            small_patterns, n_inferences=2, n_bootstraps=2,
            config=FAST, seed=4,
        )
        parallel = run_job(
            JobSpec(n_inferences=2, n_bootstraps=2, config=FAST, seed=4),
            alignment=small_patterns, n_workers=2,
        )
        assert parallel.best.newick == serial.best.newick
        assert parallel.best.log_likelihood == serial.best.log_likelihood
        assert [r.newick for r in parallel.inferences] == \
            [r.newick for r in serial.inferences]
        assert [r.newick for r in parallel.bootstraps] == \
            [r.newick for r in serial.bootstraps]
        assert parallel.supports == serial.supports

    def test_accepts_uncompressed_alignment(self, small_alignment):
        result = run_job(
            JobSpec(n_inferences=1, n_bootstraps=0, config=FAST, seed=6),
            alignment=small_alignment, n_workers=1,
        )
        assert result.best is result.inferences[0]

    def test_requires_an_inference(self, small_patterns, tmp_path,
                                   monkeypatch):
        """Refused up front: no journal written, no worker forked."""

        def no_fork(self):
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(WorkerPool, "spawn", no_fork)
        journal = str(tmp_path / "run.jsonl")
        with pytest.raises(ValueError, match="at least one inference"):
            run_job(JobSpec(n_inferences=0, n_bootstraps=3, config=FAST),
                    alignment=small_patterns, n_workers=2,
                    journal_path=journal)
        assert not os.path.exists(journal)

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            run_job(JobSpec(n_inferences=1, n_bootstraps=0),
                    alignment="not an alignment", n_workers=1)

    def test_pool_failure_surfaces_task_spec(self, fast_config,
                                             cluster_workers):
        with pytest.raises(TaskExecutionError) as err:
            run_job(
                JobSpec(n_inferences=1, n_bootstraps=1, config=fast_config,
                        seed=6),
                alignment=_BrokenPatterns(), n_workers=cluster_workers,
            )
        assert "seed=6" in str(err.value)


class _BrokenPatterns(PatternAlignment):
    """Passes the type check but explodes inside the task body."""

    def __init__(self):  # noqa: D401 — deliberately skips parent init
        pass

    def __reduce__(self):  # picklable across worker processes
        return (_BrokenPatterns, ())

    def base_frequencies(self):
        raise RuntimeError("boom: broken alignment")

    def bootstrap_replicate(self, rng):
        raise RuntimeError("boom: broken alignment")
