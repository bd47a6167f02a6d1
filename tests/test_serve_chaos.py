"""server_kill chaos: the service dies mid-job, restarts, and resumes.

A forced-kill run (``trigger_at``) through the campaign driver's
per-seed entry proves the mechanism deterministically; a small seeded
campaign exercises the public entry point the CI chaos job uses.
"""

import logging

import pytest

from repro.chaos import SURVIVED_IDENTICAL, FaultPlan, FaultSpec, inject
from repro.chaos.campaign import Campaign, SeedRun, run_campaign
from repro.chaos.plan import (
    CLUSTER_JOURNAL_TORN,
    SERVE_SERVER_KILL,
    SERVE_SITES,
    default_plan,
)
from repro.cluster import JobSpec


@pytest.fixture(scope="module")
def tiny_spec(fast_config):
    return JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
                   config=fast_config)


@pytest.fixture(scope="module")
def campaign(tiny_alignment, tiny_spec, cluster_workers, tmp_path_factory):
    """The serve arm with its fault-free baseline; each test below runs
    its own plan seed, so each gets its own ``seed%03d`` store root."""
    return Campaign(
        "serve", n_workers=cluster_workers, alignment=tiny_alignment,
        spec=tiny_spec, workdir=str(tmp_path_factory.mktemp("serve-chaos")),
    )


class TestForcedServerKill:
    def test_kill_between_journal_appends_resumes_bit_identical(
            self, campaign):
        # Fire unconditionally on the 6th journal append: mid-job, after
        # the header and the first few scheduling records.
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(SERVE_SERVER_KILL, trigger_at=(5,)),
        ))
        run = campaign.run_seed(plan)
        assert run.classification == SURVIVED_IDENTICAL, run.error
        assert run.resumes >= 1
        assert run.fired.get(SERVE_SERVER_KILL) == 1
        assert run.log_likelihood == campaign.baseline.log_likelihood

    def test_double_kill_also_survives(self, campaign):
        # The second kill lands in the *resumed* run: restart-of-restart.
        plan = FaultPlan(seed=2, specs=(
            FaultSpec(SERVE_SERVER_KILL, trigger_at=(5, 9),
                      max_triggers=2),
        ))
        run = campaign.run_seed(plan)
        assert run.classification == SURVIVED_IDENTICAL, run.error
        assert run.resumes == 2
        assert run.fired.get(SERVE_SERVER_KILL) == 2

    def test_restart_budget_exhaustion_is_a_typed_failure(self, campaign):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(SERVE_SERVER_KILL, probability=1.0,
                      max_triggers=1000),
        ))
        run = campaign.run_seed(plan)
        assert run.classification == "typed_failure"
        assert "InjectedCrash" in run.error


class TestServeCampaign:
    def test_tiny_campaign_has_no_silent_corruption(self, tiny_alignment,
                                                    tiny_spec,
                                                    cluster_workers,
                                                    tmp_path):
        report = run_campaign(
            "serve", 2, n_workers=cluster_workers,
            workdir=str(tmp_path), alignment=tiny_alignment, spec=tiny_spec,
        )
        assert report.label == f"serve:{cluster_workers}w"
        assert len(report.runs) == 2
        assert report.ok, report.summary()

    def test_default_plan_round_trips_and_names_the_site(self):
        plan = default_plan(SERVE_SITES, 3)
        assert plan.sites == (SERVE_SERVER_KILL,)
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestRecordLogFaults:
    def test_every_torn_append_of_a_job_resumes_bit_identical(
            self, campaign, tmp_path, caplog):
        """Tear the k-th record-log append of one served job, for every
        k: the ``jobs.log`` saves and the run journal's appends are one
        sequence of ``cluster.journal_torn`` visits.  Each tear is a
        server death; the restarted service must end the job with the
        baseline's result.  Visit 0 is the submission's save: a death
        before the client has its ack, so there is no job to resume and
        the enumeration starts at 1."""
        # Count the visits of one fault-free job (the site never fires).
        counting = FaultPlan(seed=0, specs=(
            FaultSpec(CLUSTER_JOURNAL_TORN, probability=0.0),
        ))
        with inject(counting) as injector:
            _, service = campaign.arm.drive(
                campaign.job, SeedRun(str(tmp_path / "count")))
            service.close()
        visits = injector.visits[CLUSTER_JOURNAL_TORN]
        assert visits > 3
        torn_store = []
        for k in range(1, visits):
            caplog.clear()
            with caplog.at_level(logging.WARNING, "repro.serve.jobstore"):
                run = campaign.run_seed(FaultPlan(seed=100 + k, specs=(
                    FaultSpec(CLUSTER_JOURNAL_TORN, trigger_at=(k,)),
                )))
            assert run.classification == SURVIVED_IDENTICAL, (k, run.error)
            assert run.fired == {CLUSTER_JOURNAL_TORN: 1}, k
            assert run.resumes == 1, k
            if any("jobs.log line" in r.getMessage()
                   for r in caplog.records):
                torn_store.append(k)
        # Some tear hit jobs.log (its restart skipped the torn line).
        assert torn_store, visits
