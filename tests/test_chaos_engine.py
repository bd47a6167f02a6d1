"""Engine-layer chaos tests: every injection site, the degradation
ladder, and the typed-failure contract.

The bar mirrors the campaign classes (repro.chaos.report): a transient
fault must recover *bit-identically* to an unfaulted engine; exhausting
the recompute budget must degrade loudly to the reference backend; a
persistent fault must surface as the typed ``EngineNumericalError`` and
never as silent corruption.
"""

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec, inject
from repro.chaos.plan import (
    ENGINE_CLV_POISON,
    ENGINE_PMAT_CORRUPT,
    ENGINE_SITES,
    ENGINE_UNDERFLOW,
)
from repro.phylo import JC69, GammaRates, LikelihoodEngine, Tree
from repro.phylo.engine.protocol import EngineNumericalError
from repro.verify import fault_recovery_invariance
from tests.strategies import random_patterns


def _instance(seed=17, n_taxa=7, n_sites=60):
    rng = np.random.default_rng(seed)
    patterns = random_patterns(rng, n_taxa, n_sites)
    tree = Tree.from_tip_names(patterns.taxa, rng)
    return patterns, tree


def _clean_loglik(patterns, tree, backend=None, rates=None):
    engine = LikelihoodEngine(patterns, JC69(), rates, tree, backend=backend)
    try:
        return engine.evaluate(tree.branches[0])
    finally:
        engine.detach()


def _single_site_plan(site, *, trigger_at=(0,), max_triggers=None, value=None):
    return FaultPlan(seed=0, specs=(
        FaultSpec(site, trigger_at=tuple(trigger_at),
                  max_triggers=max_triggers or len(trigger_at),
                  value=value),
    ))


class TestTransientRecovery:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_clv_poison_recovers_bit_identical(self, value):
        patterns, tree = _instance()
        clean = _clean_loglik(patterns, tree)
        engine = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            plan = _single_site_plan(ENGINE_CLV_POISON, value=value)
            with inject(plan) as injector:
                recovered = engine.evaluate(tree.branches[0])
            assert injector.fired[ENGINE_CLV_POISON] == 1
            assert engine.numerical_faults >= 1
            assert engine.fault_recoveries >= 1
            assert not engine.is_degraded
            assert recovered == clean  # bit-identical, not approx
        finally:
            engine.detach()

    def test_pmat_corruption_recovers_bit_identical(self):
        patterns, tree = _instance(seed=21)
        clean = _clean_loglik(patterns, tree)
        engine = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            plan = _single_site_plan(ENGINE_PMAT_CORRUPT)
            with inject(plan) as injector:
                recovered = engine.evaluate(tree.branches[0])
            assert injector.fired[ENGINE_PMAT_CORRUPT] == 1
            # The corruption persists in the cache until invalidate_all
            # drops it; detection + recompute is exactly one recovery.
            assert engine.numerical_faults >= 1
            assert engine.fault_recoveries >= 1
            assert not engine.is_degraded
            assert recovered == clean
        finally:
            engine.detach()

    def test_recovery_holds_through_makenewz(self):
        patterns, tree = _instance(seed=33)
        branch = tree.branches[1]
        engine = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            clean = engine.makenewz(branch)
        finally:
            engine.detach()
        engine = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            with inject(_single_site_plan(ENGINE_CLV_POISON)) as injector:
                recovered = engine.makenewz(branch)
            assert injector.fired[ENGINE_CLV_POISON] == 1
            assert engine.fault_recoveries >= 1
            assert recovered == clean
        finally:
            engine.detach()


class TestForcedUnderflow:
    def test_forced_underflow_is_bit_transparent(self):
        """The injected power-of-two push-down must be undone exactly by
        scale_clv's mandatory rescale — no guard trip, no lnL change."""
        patterns, tree = _instance(seed=41)
        clean = _clean_loglik(patterns, tree, rates=GammaRates(0.5, 4))
        engine = LikelihoodEngine(
            patterns, JC69(), GammaRates(0.5, 4), tree
        )
        try:
            plan = _single_site_plan(
                ENGINE_UNDERFLOW, trigger_at=tuple(range(32)),
            )
            with inject(plan) as injector:
                value = engine.evaluate(tree.branches[0])
            assert injector.fired[ENGINE_UNDERFLOW] >= 1
            assert engine.numerical_faults == 0  # never even detected
            assert value == clean
        finally:
            engine.detach()


class TestDegradationLadder:
    def test_repeated_pmat_corruption_degrades_to_reference(self):
        """Faults outlasting the recompute budget must step down the
        backend ladder — loudly (is_degraded + perf counter +
        degradation_path), with an answer that still agrees with the
        clean one.  A P-cache fault dies at the one rung below einsum:
        reference projects its own matrices and never reads the cache,
        so the fault site is never visited again."""
        patterns, tree = _instance(seed=47)
        clean = _clean_loglik(patterns, tree)
        engine = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            plan = _single_site_plan(
                ENGINE_PMAT_CORRUPT, trigger_at=tuple(range(4096)),
            )
            with inject(plan):
                value = engine.evaluate(tree.branches[0])
            assert engine.is_degraded
            assert engine.degradation_path == ["reference"]
            assert engine.backend.name == "reference"
            assert engine.degraded_evaluations >= 1
            assert engine.perf_counters()["degraded"] >= 1
            assert engine.numerical_faults > engine._degrade_after
            # The fallback backend sums in its own order, so agreement
            # is approximate — but loud, not silent.
            assert value == pytest.approx(clean, rel=1e-9)
        finally:
            engine.detach()

    def test_persistent_poison_raises_typed_error(self):
        """A fault that re-fires on every recompute — including after the
        reference fallback — must exhaust the ladder and surface as the
        typed EngineNumericalError, never a silent wrong answer."""
        patterns, tree = _instance(seed=53)
        engine = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            plan = _single_site_plan(
                ENGINE_CLV_POISON, trigger_at=tuple(range(4096)),
                value="nan",
            )
            with inject(plan):
                with pytest.raises(EngineNumericalError,
                                   match="persisted through"):
                    engine.evaluate(tree.branches[0])
            assert engine.is_degraded  # the ladder did try the fallback
            assert engine.numerical_faults > engine._degrade_after
        finally:
            engine.detach()


class TestDisabledAndInertPaths:
    def test_zero_probability_plan_changes_nothing(self):
        patterns, tree = _instance(seed=59)
        clean = _clean_loglik(patterns, tree)
        engine = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            plan = FaultPlan(seed=1, specs=tuple(
                FaultSpec(site, probability=0.0) for site in ENGINE_SITES
            ))
            with inject(plan) as injector:
                value = engine.evaluate(tree.branches[0])
            assert sum(injector.fired.values()) == 0
            assert injector.visits[ENGINE_CLV_POISON] > 0  # sites visited
            assert engine.numerical_faults == 0
            assert value == clean
        finally:
            engine.detach()

    def test_no_active_plan_visits_no_sites(self):
        patterns, tree = _instance(seed=61)
        engine = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            value = engine.evaluate(tree.branches[0])
            assert np.isfinite(value)
            assert engine.numerical_faults == 0
        finally:
            engine.detach()


class TestVerifyInvariant:
    @pytest.mark.parametrize("backend", [None, "reference"])
    def test_fault_recovery_invariance_is_exact(self, backend):
        rng = np.random.default_rng(7)
        sequences = {
            "a": "ACGTACGTACGTACGTACGT",
            "b": "ACGAACGTTCGTACGTATGT",
            "c": "ACGTACCTACGTAAGTACGT",
            "d": "TCGTACGTACGTACGTACGA",
        }
        diff = fault_recovery_invariance(
            sequences, JC69(), None, rng, backend=backend
        )
        assert diff == 0.0
