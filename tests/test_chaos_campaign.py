"""Campaign and classification tests (repro.chaos.campaign / .report).

Tier-1 runs tiny campaigns (2 chaos seeds on a 6-taxon workload) across
both kernel backends; the CI-sized 25-seed sweeps are marked
``verify`` and also run from the ``chaos`` CI job via the CLI.
"""

import json

import pytest

from repro.chaos import (
    SILENT_CORRUPTION,
    SURVIVED_IDENTICAL,
    TYPED_FAILURE,
    ChaosRunResult,
    ChaosSurvivalReport,
)
from repro.chaos.campaign import (
    journal_payload_digest,
    run_cluster_campaign,
    run_engine_campaign,
)
from repro.chaos.plan import ENGINE_CLV_POISON, ENGINE_UNDERFLOW
from repro.cluster import RunJournal

#: Backend-neutral engine sites: both recover bit-identically on every
#: backend, so the classification must be the same everywhere.
NEUTRAL_SITES = (ENGINE_CLV_POISON, ENGINE_UNDERFLOW)

BACKENDS = ("einsum", "reference")


class TestEngineCampaign:
    def test_tiny_campaign_classifies_identically_on_every_backend(
            self, tiny_patterns):
        reports = {
            backend: run_engine_campaign(
                n_seeds=2, backend=backend, sites=NEUTRAL_SITES,
                patterns=tiny_patterns,
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

    def test_start_seed_shifts_the_adversaries(self, tiny_patterns):
        report = run_engine_campaign(
            n_seeds=2, sites=NEUTRAL_SITES, start_seed=7,
            patterns=tiny_patterns,
        )
        assert [run.seed for run in report.runs] == [7, 8]

    @pytest.mark.verify
    def test_full_25_seed_campaign_has_no_silent_corruption(self):
        report = run_engine_campaign(n_seeds=25)
        assert report.ok, report.summary()
        assert report.faults_fired > 0  # the adversary was not vacuous


class TestClusterCampaign:
    def test_tiny_campaign_survives_identically(self, tiny_patterns,
                                                cluster_workers, tmp_path):
        report = run_cluster_campaign(
            n_seeds=2, n_workers=cluster_workers,
            workdir=str(tmp_path), patterns=tiny_patterns,
        )
        assert report.ok, report.summary()
        assert report.label == f"cluster:{cluster_workers}w"
        for run in report.runs:
            assert run.classification in (SURVIVED_IDENTICAL, TYPED_FAILURE)

    @pytest.mark.verify
    def test_full_25_seed_campaign_has_no_silent_corruption(
            self, cluster_workers, tmp_path):
        report = run_cluster_campaign(
            n_seeds=25, n_workers=cluster_workers, workdir=str(tmp_path),
        )
        assert report.ok, report.summary()
        assert report.faults_fired > 0


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
                                  fired={"engine.underflow": 1}))
        payload = json.loads(report.to_json_text())
        assert payload["label"] == "unit"
        assert payload["ok"] is True
        assert payload["counts"][SURVIVED_IDENTICAL] == 1
        assert payload["runs"][0]["fired"] == {"engine.underflow": 1}
