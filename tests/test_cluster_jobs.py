"""Tests for job specs and their expansion into the task DAG."""

import pytest

from repro.cluster import resume_job, run_job
from repro.cluster.checkpoint import decode_record, encode_record
from repro.cluster.jobs import ClusterTask, JobSpec, JobSpecError, expand_job
from repro.phylo.search import SearchConfig


class TestExpansion:
    def test_fine_grain_expansion(self):
        tasks = expand_job(JobSpec(n_inferences=2, n_bootstraps=3, seed=7))
        assert [t.task_id for t in tasks] == [
            "inference/0", "inference/1",
            "bootstrap/0", "bootstrap/1", "bootstrap/2",
        ]
        assert all(t.grain == 1 for t in tasks)
        assert all(t.seed == 7 for t in tasks)

    def test_coarse_bootstrap_batches(self):
        tasks = expand_job(JobSpec(n_inferences=1, n_bootstraps=5,
                                   batch_size=2))
        boot = [t for t in tasks if t.kind == "bootstrap"]
        assert [t.task_id for t in boot] == [
            "bootstrap/0-1", "bootstrap/2-3", "bootstrap/4",
        ]
        assert [t.replicates for t in boot] == [(0, 1), (2, 3), (4,)]

    def test_expansion_is_deterministic(self):
        spec = JobSpec(n_inferences=2, n_bootstraps=6, seed=1, batch_size=3)
        assert expand_job(spec) == expand_job(spec)

    def test_expansion_idempotent(self):
        spec = JobSpec(n_inferences=2, n_bootstraps=4, batch_size=2)
        tasks = expand_job(spec)
        assert tasks == expand_job(spec)
        ids = [t.task_id for t in tasks]
        assert len(set(ids)) == len(ids)

    def test_done_replicates_are_excluded(self):
        spec = JobSpec(n_inferences=2, n_bootstraps=4, batch_size=2)
        tasks = expand_job(spec, done_inferences={0}, done_bootstraps={1, 2})
        assert [t.task_id for t in tasks] == [
            "inference/1", "bootstrap/0", "bootstrap/3",
        ]

    def test_non_consecutive_survivors_never_share_a_batch(self):
        # After a resume excluded replicate 1, replicates 0 and 2 must not
        # collapse into a "bootstrap/0-2" batch that would lie about its
        # range.
        spec = JobSpec(n_inferences=1, n_bootstraps=3, batch_size=2)
        tasks = expand_job(spec, done_inferences={0}, done_bootstraps={1})
        assert [t.replicates for t in tasks] == [(0,), (2,)]

    def test_split_produces_fine_children(self):
        task = ClusterTask("bootstrap/2-4", "bootstrap", (2, 3, 4), seed=5)
        children = task.split()
        assert [c.task_id for c in children] == [
            "bootstrap/2", "bootstrap/3", "bootstrap/4",
        ]
        assert all(c.seed == 5 and c.grain == 1 for c in children)
        assert [k for c in children for k in c.keys()] == task.keys()

    def test_singleton_split_is_identity(self):
        task = ClusterTask("inference/0", "inference", (0,), seed=5)
        assert task.split() == [task]


class TestJobSpecJson:
    def test_round_trip_without_config(self):
        spec = JobSpec(n_inferences=2, n_bootstraps=4, seed=3, batch_size=2,
                       alignment_path="d.phy", model_name="GTR", alpha=0.5)
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_round_trip_with_search_config(self):
        config = SearchConfig(initial_radius=1, max_radius=2, max_rounds=3)
        spec = JobSpec(n_inferences=1, n_bootstraps=1, config=config)
        restored = JobSpec.from_json(spec.to_json())
        assert restored.config == config
        assert restored == spec

    def test_json_payload_is_json_native(self):
        import json

        spec = JobSpec(n_inferences=1, n_bootstraps=1,
                       config=SearchConfig())
        assert JobSpec.from_json(
            json.loads(json.dumps(spec.to_json()))
        ) == spec


class TestJobSpecValidation:
    """Every reader of a spec (a constructor call, a run header, a
    JobStore record) refuses a bad field the same way."""

    @pytest.mark.parametrize("fields", [
        {"n_inferences": 0},
        {"n_bootstraps": -1},
        {"batch_size": 0},
        {"categories": 0},
        {"categories": 17},
        {"alpha": -1.0},
        {"alpha": float("nan")},
        {"deadline_s": 0.0},
        {"seed": 1.5},
        {"n_bootstraps": True},
        {"model_name": "FOO"},
        {"model_name": ""},
        {"aa": True, "model_name": "JC69"},
        {"config": SearchConfig(max_radius=0)},
        {"config": SearchConfig(max_rounds=-1)},
    ])
    def test_bad_field_is_refused(self, fields):
        values = {"n_inferences": 1, "n_bootstraps": 2, **fields}
        with pytest.raises(JobSpecError, match="job field"):
            JobSpec(**values)

    @pytest.mark.parametrize("fields", [
        {}, {"aa": True}, {"aa": True, "model_name": "default"},
        {"model_name": "HKY85", "alpha": 1, "categories": 16},
        {"deadline_s": 2.5, "batch_size": 3, "seed": -4},
    ])
    def test_good_fields_are_kept(self, fields):
        spec = JobSpec(n_inferences=1, n_bootstraps=0, **fields)
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_run_header_with_bad_categories_is_refused(self):
        header = JobSpec(n_inferences=1, n_bootstraps=2).to_json()
        header["categories"] = 0
        with pytest.raises(ValueError, match="categories=0"):
            JobSpec.from_json(header)

    def test_run_header_config_is_validated(self):
        header = JobSpec(n_inferences=1, n_bootstraps=2,
                         config=SearchConfig()).to_json()
        header["config"]["initial_radius"] = 0
        with pytest.raises(JobSpecError, match="initial_radius=0"):
            JobSpec.from_json(header)


class TestRetiredMoveSet:
    """``SearchConfig.move_set`` was removed with the NNI search; a run
    header written before that carries ``"move_set": "spr"``."""

    @staticmethod
    def _older_journal(tiny_patterns, fast_config, workers, tmp_path,
                       move_set):
        """A run cut after two replicates, its header's config holding
        *move_set* the way the older build journalled it."""
        full = str(tmp_path / "full.jsonl")
        spec = JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                       config=fast_config)
        run_job(spec, alignment=tiny_patterns, n_workers=workers,
                journal_path=full)
        records, replicates = [], 0
        with open(full) as fh:
            for line in fh:
                record = decode_record(line)
                if record["event"] == "replicate_done":
                    replicates += 1
                if replicates <= 2 and record["event"] != "run_finished":
                    records.append(record)
        assert records[0]["event"] == "run_started"
        records[0]["spec"]["config"]["move_set"] = move_set
        older = str(tmp_path / "older.jsonl")
        with open(older, "w") as fh:
            fh.write("".join(encode_record(r) + "\n" for r in records))
        return older

    def test_header_with_spr_resumes_bit_identically(
            self, tiny_patterns, fast_config, serial_reference,
            cluster_workers, tmp_path):
        older = self._older_journal(tiny_patterns, fast_config,
                                    cluster_workers, tmp_path, "spr")
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

    def test_header_with_nni_is_refused(
            self, tiny_patterns, fast_config, cluster_workers, tmp_path):
        older = self._older_journal(tiny_patterns, fast_config,
                                    cluster_workers, tmp_path, "nni")
        before = open(older).read()
        with pytest.raises(ValueError, match="'move_set'"):
            resume_job(older, alignment=tiny_patterns,
                       n_workers=cluster_workers)
        assert open(older).read() == before  # no run_resumed, no task
