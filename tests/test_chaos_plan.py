"""Unit tests of the chaos plan/injector layer (repro.chaos).

The determinism contract under test: the same :class:`FaultPlan` driven
over the same visit sequence produces the same injection schedule —
fire decisions hash (seed, site, key-or-visit-index) through CRC32 and
never touch global RNG state.
"""

import pytest

from repro.chaos import (
    FaultPlan,
    FaultSpec,
    active_injector,
    fire,
    inject,
)
from repro.chaos.injector import FaultInjector, _uniform
from repro.chaos.plan import (
    ALL_SITES,
    ENGINE_CLV_POISON,
    ENGINE_UNDERFLOW,
    RETIRED_SITES,
    RetiredSiteError,
    default_cluster_plan,
    default_engine_plan,
)


class TestSpecAndPlanValidation:
    def test_probability_must_be_a_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(ENGINE_CLV_POISON, probability=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(ENGINE_CLV_POISON, probability=-0.1)

    def test_max_triggers_must_be_positive(self):
        with pytest.raises(ValueError, match="max_triggers"):
            FaultSpec(ENGINE_CLV_POISON, max_triggers=0)

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError, match="duplicate sites"):
            FaultPlan(seed=0, specs=(
                FaultSpec(ENGINE_CLV_POISON, probability=0.1),
                FaultSpec(ENGINE_CLV_POISON, probability=0.2),
            ))

    def test_default_plans_cover_their_site_lists(self):
        assert set(default_engine_plan(0).sites) <= set(ALL_SITES)
        assert set(default_cluster_plan(0).sites) <= set(ALL_SITES)
        restricted = default_engine_plan(0, sites=(ENGINE_UNDERFLOW,))
        assert restricted.sites == (ENGINE_UNDERFLOW,)

    def test_retired_site_is_refused_by_name(self):
        """A plan written for the deleted striped backends or sharded
        journal names a site no code visits; loading it fails loudly
        instead of running an adversary that can never fire."""
        assert not set(RETIRED_SITES) & set(ALL_SITES)
        for site in ("backend.stripe_raise", "cluster.shard_torn",
                     "cluster.steal_race"):
            assert site in RETIRED_SITES
            payload = {"seed": 0, "specs": [
                {"site": ENGINE_CLV_POISON, "probability": 0.1},
                {"site": site, "probability": 0.01},
            ]}
            with pytest.raises(RetiredSiteError, match=site):
                FaultPlan.from_json(payload)
            with pytest.raises(RetiredSiteError, match=site):
                FaultSpec(site, probability=0.5)


class TestJsonRoundTrip:
    def test_plan_round_trips_exactly(self):
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(ENGINE_CLV_POISON, probability=0.25, max_triggers=3,
                      value="inf"),
            FaultSpec(ENGINE_UNDERFLOW, trigger_at=(0, 4, 9)),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_round_trip_survives_json_serialization(self):
        import json

        plan = default_engine_plan(11)
        payload = json.loads(json.dumps(plan.to_json()))
        assert FaultPlan.from_json(payload) == plan


class TestDeterminism:
    def test_same_plan_same_visits_same_schedule(self):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(ENGINE_CLV_POISON, probability=0.3, max_triggers=5),
        ))
        logs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            for _ in range(40):
                injector.fire(ENGINE_CLV_POISON)
            logs.append(list(injector.fire_log))
        assert logs[0] == logs[1]
        assert logs[0]  # probability 0.3 over 40 visits must fire

    def test_different_seeds_give_different_schedules(self):
        def schedule(seed):
            injector = FaultInjector(FaultPlan(seed=seed, specs=(
                FaultSpec(ENGINE_CLV_POISON, probability=0.3,
                          max_triggers=100),
            )))
            return [injector.fire(ENGINE_CLV_POISON) for _ in range(64)]

        assert schedule(0) != schedule(1)

    def test_keyed_draws_depend_on_key_not_visit_order(self):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(ENGINE_CLV_POISON, probability=0.5, max_triggers=100),
        ))
        keys = [f"task/{i}:1" for i in range(20)]
        forward = FaultInjector(plan)
        decisions_fwd = {k: forward.fire(ENGINE_CLV_POISON, key=k)
                         for k in keys}
        backward = FaultInjector(plan)
        decisions_bwd = {k: backward.fire(ENGINE_CLV_POISON, key=k)
                         for k in reversed(keys)}
        assert decisions_fwd == decisions_bwd

    def test_uniform_draw_is_in_unit_interval(self):
        draws = [_uniform(s, "site", str(i))
                 for s in range(4) for i in range(16)]
        assert all(0.0 <= d < 1.0 for d in draws)


class TestFirePolicy:
    def test_trigger_at_wins_over_probability(self):
        injector = FaultInjector(FaultPlan(seed=0, specs=(
            FaultSpec(ENGINE_CLV_POISON, probability=1.0, trigger_at=(2,),
                      max_triggers=10),
        )))
        fired = [injector.fire(ENGINE_CLV_POISON) for _ in range(5)]
        assert fired == [False, False, True, False, False]

    def test_max_triggers_bounds_fires(self):
        injector = FaultInjector(FaultPlan(seed=0, specs=(
            FaultSpec(ENGINE_CLV_POISON, probability=1.0, max_triggers=2),
        )))
        fired = [injector.fire(ENGINE_CLV_POISON) for _ in range(6)]
        assert fired == [True, True, False, False, False, False]
        assert injector.fired[ENGINE_CLV_POISON] == 2
        assert injector.visits[ENGINE_CLV_POISON] == 6

    def test_unplanned_site_never_fires_and_is_not_counted(self):
        injector = FaultInjector(FaultPlan(seed=0, specs=(
            FaultSpec(ENGINE_CLV_POISON, probability=1.0),
        )))
        assert not injector.fire(ENGINE_UNDERFLOW)
        assert injector.visits[ENGINE_UNDERFLOW] == 0

    def test_zero_probability_never_fires(self):
        injector = FaultInjector(FaultPlan(seed=0, specs=(
            FaultSpec(ENGINE_CLV_POISON, probability=0.0),
        )))
        assert not any(injector.fire(ENGINE_CLV_POISON) for _ in range(50))

    def test_summary_reports_visits_fired_and_log(self):
        injector = FaultInjector(FaultPlan(seed=0, specs=(
            FaultSpec(ENGINE_CLV_POISON, trigger_at=(1,)),
        )))
        for _ in range(3):
            injector.fire(ENGINE_CLV_POISON, key="k")
        summary = injector.summary()
        assert summary["visits"] == {ENGINE_CLV_POISON: 3}
        assert summary["fired"] == {ENGINE_CLV_POISON: 1}
        assert summary["fire_log"] == [[ENGINE_CLV_POISON, 1, "k"]]


class TestActivation:
    def test_module_fire_is_inert_without_active_plan(self):
        assert active_injector() is None
        assert fire(ENGINE_CLV_POISON) is False

    def test_inject_activates_and_deactivates(self):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(ENGINE_CLV_POISON, probability=1.0),
        ))
        with inject(plan) as injector:
            assert active_injector() is injector
            assert fire(ENGINE_CLV_POISON) is True
        assert active_injector() is None

    def test_nesting_is_rejected(self):
        plan = FaultPlan(seed=0)
        with inject(plan):
            with pytest.raises(RuntimeError, match="cannot nest"):
                with inject(plan):
                    pass  # pragma: no cover
        assert active_injector() is None

    def test_deactivates_even_when_body_raises(self):
        with pytest.raises(KeyError):
            with inject(FaultPlan(seed=0)):
                raise KeyError("boom")
        assert active_injector() is None
