"""Campaign and classification tests (repro.chaos.campaign / .report).

Tier-1 runs tiny campaigns (2 chaos seeds on a 6-taxon workload) across
both kernel backends; the CI-sized 25-seed sweeps are marked
``verify`` and also run from the ``chaos`` CI job via the CLI.
"""

import asyncio
import json
import tempfile

import pytest

from repro.chaos import (
    SILENT_CORRUPTION,
    SURVIVED_IDENTICAL,
    TYPED_FAILURE,
    UNTYPED_FAILURE,
    ChaosRunResult,
    ChaosSurvivalReport,
    InjectedCrash,
)
from repro.chaos.campaign import (
    classify_failure,
    journal_payload_digest,
    run_campaign,
)
from repro.chaos.plan import ENGINE_CLV_POISON, ENGINE_UNDERFLOW
from repro.cluster import RunJournal
from repro.cluster.checkpoint import JournalWriteError

#: Backend-neutral engine sites: both recover bit-identically on every
#: backend, so the classification must be the same everywhere.
NEUTRAL_SITES = (ENGINE_CLV_POISON, ENGINE_UNDERFLOW)

BACKENDS = ("einsum", "reference")


class TestEngineCampaign:
    def test_tiny_campaign_classifies_identically_on_every_backend(
            self, tiny_alignment):
        reports = {
            backend: run_campaign(
                "engine", 2, backend=backend, sites=NEUTRAL_SITES,
                alignment=tiny_alignment,
            )
            for backend in BACKENDS
        }
        classifications = {
            backend: [run.classification for run in report.runs]
            for backend, report in reports.items()
        }
        for backend, report in reports.items():
            assert report.ok, report.summary()
            assert report.label == f"engine:{backend}"
            assert classifications[backend] == \
                classifications[BACKENDS[0]]
            # Backend-neutral faults recover bit-identically: every
            # surviving run reproduces its own backend's baseline.
            for run in report.runs:
                assert run.classification == SURVIVED_IDENTICAL
                assert run.log_likelihood == run.baseline_log_likelihood

    def test_start_seed_shifts_the_adversaries(self, tiny_alignment):
        report = run_campaign(
            "engine", 2, sites=NEUTRAL_SITES, start_seed=7,
            alignment=tiny_alignment,
        )
        assert [run.seed for run in report.runs] == [7, 8]

    def test_campaign_removes_the_workdir_it_made(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = run_campaign("engine", 1)
        assert report.ok, report.summary()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.verify
    def test_full_25_seed_campaign_has_no_silent_corruption(self):
        report = run_campaign("engine", 25)
        assert report.ok, report.summary()
        assert report.faults_fired > 0  # the adversary was not vacuous


class TestClusterCampaign:
    def test_tiny_campaign_survives_identically(self, tiny_alignment,
                                                cluster_workers, tmp_path):
        report = run_campaign(
            "cluster", 2, n_workers=cluster_workers,
            workdir=str(tmp_path), alignment=tiny_alignment,
        )
        assert report.ok, report.summary()
        assert report.label == f"cluster:{cluster_workers}w"
        for run in report.runs:
            assert run.classification in (SURVIVED_IDENTICAL, TYPED_FAILURE)

    @pytest.mark.verify
    def test_full_25_seed_campaign_has_no_silent_corruption(
            self, cluster_workers, tmp_path):
        report = run_campaign(
            "cluster", 25, n_workers=cluster_workers, workdir=str(tmp_path),
        )
        assert report.ok, report.summary()
        assert report.faults_fired > 0

    def test_fired_counts_only_injector_fires(self, tiny_alignment,
                                              cluster_workers, tmp_path):
        """Two runs of the same seeds fire the same faults; what the
        journal shows afterwards (worker deaths, retries) follows process
        timing and is reported apart, as ``observed``."""
        reports = [
            run_campaign("cluster", 2, start_seed=1,
                         n_workers=cluster_workers,
                         workdir=str(tmp_path / f"run{i}"),
                         alignment=tiny_alignment)
            for i in range(2)
        ]
        fired = [[run.fired for run in report.runs] for report in reports]
        assert fired[0] == fired[1]
        assert reports[0].faults_fired > 0
        for report in reports:
            assert report.ok, report.summary()
            for run in report.runs:
                assert not any(k.startswith("observed") for k in run.fired)


class TestFailureClassifier:
    @pytest.mark.parametrize("exc, classification, error", [
        (InjectedCrash("torn"), TYPED_FAILURE, "InjectedCrash: torn"),
        (JournalWriteError("disk"), TYPED_FAILURE,
         "JournalWriteError: disk"),
        (KeyError("job_id"), UNTYPED_FAILURE, "KeyError: 'job_id'"),
        (asyncio.TimeoutError(), UNTYPED_FAILURE,
         "Hang: step watchdog expired"),
        (RuntimeError("job failed: EngineNumericalError: NaN lnL"),
         TYPED_FAILURE, "RuntimeError: job failed: EngineNumericalError: "
         "NaN lnL"),
        (RuntimeError("job failed: KeyError: 'x'"), UNTYPED_FAILURE,
         "RuntimeError: job failed: KeyError: 'x'"),
    ])
    def test_one_classifier_for_every_arm(self, exc, classification, error):
        assert classify_failure(exc) == (classification, error)


class TestPayloadDigest:
    @staticmethod
    def _payload(replicate, kind="bootstrap"):
        return {"kind": kind, "replicate": replicate,
                "newick": f"(a,b,c{replicate});", "log_likelihood": -1.5,
                "is_bootstrap": kind == "bootstrap"}

    def test_digest_ignores_arrival_order_and_duplicates(self, tmp_path):
        ordered = str(tmp_path / "a.jsonl")
        with RunJournal(ordered) as journal:
            journal.append("run_started", spec={})
            for r in (0, 1):
                journal.append("replicate_done",
                               payload=self._payload(r))
        shuffled = str(tmp_path / "b.jsonl")
        with RunJournal(shuffled) as journal:
            for r in (1, 0, 1):  # reversed, plus a retry duplicate
                journal.append("replicate_done",
                               payload=self._payload(r))
        assert journal_payload_digest(ordered) == \
            journal_payload_digest(shuffled)

    def test_digest_sees_payload_changes(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for path, lnl in ((a, -1.5), (b, -1.5000000001)):
            payload = dict(self._payload(0), log_likelihood=lnl)
            with RunJournal(path) as journal:
                journal.append("replicate_done", payload=payload)
        assert journal_payload_digest(a) != journal_payload_digest(b)


class TestReportSemantics:
    def test_unknown_classification_is_rejected(self):
        with pytest.raises(ValueError, match="unknown classification"):
            ChaosRunResult(seed=0, classification="meltdown")

    def test_silent_corruption_fails_the_gate(self):
        report = ChaosSurvivalReport(label="unit")
        report.add(ChaosRunResult(seed=0,
                                  classification=SURVIVED_IDENTICAL))
        assert report.ok
        offender = ChaosRunResult(
            seed=1, classification=SILENT_CORRUPTION,
            log_likelihood=-1.0, baseline_log_likelihood=-2.0,
        )
        report.add(offender)
        assert not report.ok
        assert report.offenders() == [offender]
        assert "FAILED" in report.summary()
        assert "seed 1" in report.summary()

    def test_typed_failures_are_loud_but_acceptable(self):
        report = ChaosSurvivalReport(label="unit")
        report.add(ChaosRunResult(seed=0, classification=TYPED_FAILURE,
                                  error="EngineNumericalError: boom",
                                  fired={"engine.clv_poison": 2}))
        assert report.ok
        assert report.counts[TYPED_FAILURE] == 1
        assert report.faults_fired == 2

    def test_report_json_round_trips(self):
        report = ChaosSurvivalReport(label="unit")
        report.add(ChaosRunResult(seed=3,
                                  classification=SURVIVED_IDENTICAL,
                                  log_likelihood=-10.25,
                                  baseline_log_likelihood=-10.25,
                                  fired={"engine.underflow": 1},
                                  observed={"worker_crash": 2}))
        payload = json.loads(report.to_json_text())
        assert payload["label"] == "unit"
        assert payload["ok"] is True
        assert payload["counts"][SURVIVED_IDENTICAL] == 1
        assert payload["runs"][0]["fired"] == {"engine.underflow": 1}
        # Observations are reported, but never counted as fires.
        assert payload["runs"][0]["observed"] == {"worker_crash": 2}
        assert payload["faults_fired"] == 1
        assert payload["observed"] == {"worker_crash": 2}
        assert "1 faults fired, observed {'worker_crash': 2}" in \
            report.summary()
