"""Tests for the likelihood engine: newview / evaluate / makenewz."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phylo import (
    Alignment,
    CatRates,
    GammaRates,
    JC69,
    LikelihoodEngine,
    Tree,
    UniformRate,
    default_gtr,
    estimate_site_rates,
    synthetic_dataset,
)
from repro.chaos import FaultPlan, FaultSpec, inject
from repro.chaos.plan import ENGINE_CLV_POISON
from repro.phylo.dna import TIP_PARTIAL_ROWS
from repro.phylo.engine.core import _PARKED_CLVS
from repro.phylo.tree import Tree as _Tree


# ---------------------------------------------------------------------------
# brute-force oracle: enumerate all internal state assignments
# ---------------------------------------------------------------------------


def brute_force_site_logliks(tree, patterns, model, rate_model):
    """Exact per-pattern log likelihoods by summing over all
    internal-node state vectors, in the caller's pattern order.

    Only feasible for tiny trees (k internal nodes -> 4^k terms per
    pattern per category), but completely independent of the engine's
    pruning, caching and scaling machinery — and of its CAT pattern
    layout: under CAT pattern ``s`` has the one rate
    ``rates[site_categories[s]]`` with weight 1.
    """
    inner = tree.inner_nodes
    root = inner[0]
    # Orient every branch away from the root: (parent, child) pairs.
    oriented = [
        (entry.other(node), node, entry)
        for node, entry in tree.postorder(root)
        if entry is not None
    ]
    tip_rows = {
        t.index: TIP_PARTIAL_ROWS[
            patterns.patterns[patterns.taxon_index(t.name)]
        ]
        for t in tree.tips
    }
    pi = model.pi
    logs = np.empty(patterns.n_patterns)
    for s in range(patterns.n_patterns):
        site_lik = 0.0
        categories = zip(rate_model.rates, rate_model.weights)
        if rate_model.is_per_site:
            categories = [(rate_model.rates[rate_model.site_categories[s]],
                           1.0)]
        for rate, cat_w in categories:
            pmats = {
                b.index: model.transition_matrices(b.length, [rate])[0]
                for b in tree.branches
            }
            cat_lik = 0.0
            for assignment in itertools.product(range(4), repeat=len(inner)):
                states = {n.index: a for n, a in zip(inner, assignment)}
                term = pi[states[root.index]]
                for parent, child, branch in oriented:
                    p = pmats[branch.index]
                    row = p[states[parent.index]]
                    if child.is_tip:
                        term *= float(row @ tip_rows[child.index][s])
                    else:
                        term *= row[states[child.index]]
                cat_lik += term
            site_lik += cat_w * cat_lik
        logs[s] = math.log(site_lik)
    return logs


def brute_force_loglik(tree, patterns, model, rate_model):
    """The weighted sum of :func:`brute_force_site_logliks`."""
    return float(patterns.weights @ brute_force_site_logliks(
        tree, patterns, model, rate_model))


def tiny_dataset(n_taxa=4, n_sites=40, seed=5):
    aln = synthetic_dataset(n_taxa=n_taxa, n_sites=n_sites, seed=seed,
                            invariant_fraction=0.2, gamma_alpha=1.0,
                            mean_branch_length=0.15)
    return aln.compress()


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n_taxa", [4, 5])
    def test_matches_enumeration_gtr_gamma(self, n_taxa):
        patterns = tiny_dataset(n_taxa=n_taxa)
        model = default_gtr()
        rates = GammaRates(0.8, 2)
        tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(1))
        engine = LikelihoodEngine(patterns, model, rates, tree)
        expected = brute_force_loglik(tree, patterns, model, rates)
        assert abs(engine.evaluate() - expected) < 1e-8
        engine.detach()

    @pytest.mark.parametrize("n_taxa", [4, 5])
    def test_matches_enumeration_cat(self, n_taxa):
        """Three categories over unevenly many, unsorted patterns: the
        engine's sorted, padded layout is invisible in the lnL and in
        the per-pattern values, returned in the caller's order."""
        patterns = tiny_dataset(n_taxa=n_taxa)
        model = default_gtr()
        rng = np.random.default_rng(n_taxa)
        cat = CatRates(rng.uniform(0.2, 3.0, patterns.n_patterns), 3)
        assert patterns.n_patterns % 3  # blocks differ: padding is used
        tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(1))
        engine = LikelihoodEngine(patterns, model, cat, tree)
        expected = brute_force_site_logliks(tree, patterns, model, cat)
        assert abs(engine.evaluate() - patterns.weights @ expected) < 1e-8
        np.testing.assert_allclose(engine.site_log_likelihoods(), expected,
                                   rtol=0.0, atol=1e-8)
        engine.detach()

    def test_matches_enumeration_jc_uniform(self):
        patterns = tiny_dataset(n_taxa=4, seed=9)
        model = JC69()
        rates = UniformRate()
        tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(2))
        engine = LikelihoodEngine(patterns, model, rates, tree)
        expected = brute_force_loglik(tree, patterns, model, rates)
        assert abs(engine.evaluate() - expected) < 1e-8
        engine.detach()


class TestTwoTaxonAnalytic:
    def _two_taxon(self, seq_a, seq_b, t):
        tree = _Tree()
        a = tree._new_node("a")
        b = tree._new_node("b")
        tree._new_branch(a, b, t)
        patterns = Alignment.from_sequences({"a": seq_a, "b": seq_b}).compress()
        return tree, patterns

    def test_jc69_distance_formula(self):
        # lnL per site: match  -> log(1/4 (1/4 + 3/4 e^{-4t/3}))
        #               differ -> log(1/4 (1/4 - 1/4 e^{-4t/3}))
        t = 0.4
        tree, patterns = self._two_taxon("AACG", "AACT", t)
        engine = LikelihoodEngine(patterns, JC69(), UniformRate(), tree)
        e = math.exp(-4.0 * t / 3.0)
        match = math.log(0.25 * (0.25 + 0.75 * e))
        mismatch = math.log(0.25 * (0.25 - 0.25 * e))
        expected = 3 * match + 1 * mismatch
        assert abs(engine.evaluate() - expected) < 1e-10
        engine.detach()


class TestReversibilityInvariance:
    def test_loglik_same_at_every_branch(self, engine):
        values = [engine.evaluate(b) for b in engine.tree.branches]
        assert max(values) - min(values) < 1e-8

    def test_invariance_with_cat_model(self):
        patterns = tiny_dataset(n_taxa=6, n_sites=80, seed=3)
        model = default_gtr()
        tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(3))
        site_rates = np.linspace(0.2, 3.0, patterns.n_patterns)
        cat = CatRates(site_rates, n_categories=4)
        engine = LikelihoodEngine(patterns, model, cat, tree)
        values = [engine.evaluate(b) for b in tree.branches]
        assert max(values) - min(values) < 1e-8
        engine.detach()


def _internal_branch(tree):
    return next(b for b in tree.branches
                if not any(n.is_tip for n in b.nodes))


def _prune_cycle(engine):
    """``(tree, prune branch, keep side, regraft_back)`` around an
    internal branch; ``regraft_back()`` re-inserts the pruned subtree
    where it was, with the original lengths, and returns the recreated
    prune branch."""
    tree = engine.tree
    prune = _internal_branch(tree)
    keep = prune.nodes[0]
    moved = prune.other(keep)
    (x, lx), (y, ly) = [(b.other(keep), b.length)
                        for b in keep.branches if b is not prune]
    lsub = prune.length

    def regraft_back():
        merged = next(b for b in x.branches if b.other(x) is y)
        connect = tree.regraft_subtree(moved, merged, lsub)
        junction = connect.nodes[0]
        for branch in junction.branches:
            far = branch.other(junction)
            if far is not moved:
                tree.set_length(branch, lx if far is x else ly)
        return connect

    return tree, prune, keep, regraft_back


class TestCaching:
    def test_cache_matches_fresh_engine_after_edits(self, small_patterns):
        model = default_gtr()
        rates = GammaRates(0.7, 4)
        tree = Tree.from_tip_names(
            small_patterns.taxa, np.random.default_rng(10)
        )
        engine = LikelihoodEngine(small_patterns, model, rates, tree)
        engine.evaluate()  # populate caches
        rng = np.random.default_rng(11)
        for _ in range(10):
            branch = tree.branches[rng.integers(len(tree.branches))]
            tree.set_length(branch, float(rng.random()) + 0.01)
            cached = engine.evaluate()
            fresh = LikelihoodEngine(
                small_patterns, model, rates, tree
            )
            assert abs(cached - fresh.evaluate()) < 1e-9
            fresh.detach()
        engine.detach()

    def test_cache_correct_after_nni(self, small_patterns):
        model = default_gtr()
        rates = GammaRates(0.7, 4)
        tree = Tree.from_tip_names(
            small_patterns.taxa, np.random.default_rng(12)
        )
        engine = LikelihoodEngine(small_patterns, model, rates, tree)
        engine.evaluate()
        internal = next(
            b for b in tree.branches
            if not b.nodes[0].is_tip and not b.nodes[1].is_tip
        )
        tree.nni(internal)
        fresh = LikelihoodEngine(small_patterns, model, rates, tree)
        assert abs(engine.evaluate() - fresh.evaluate()) < 1e-9
        engine.detach()
        fresh.detach()

    def test_second_evaluate_does_no_newview(self, engine):
        engine.evaluate()
        calls = engine.newview_calls
        engine.evaluate()
        assert engine.newview_calls == calls

    def test_length_change_invalidates_partially(self, engine):
        """A length change drops exactly the CLVs whose value it
        changes: those whose subtree contains the branch — not the two
        facing it."""
        tree = engine.tree
        for branch in tree.branches:  # fill every direction
            engine.evaluate(branch)
        calls_full = engine.newview_calls
        changed = _internal_branch(tree)
        tree.set_length(changed, changed.length * 1.5)
        engine.evaluate(changed)
        assert engine.newview_calls == calls_full
        containing = sum(
            changed.index in tree.subtree_branches(node, branch)
            for branch in tree.branches for node in branch.nodes
            if not node.is_tip
        )
        for branch in tree.branches:
            engine.evaluate(branch)
        assert engine.newview_calls - calls_full == containing
        assert 0 < containing < calls_full

    def test_retired_clvs_are_parked_and_found_again(self, engine):
        """Prune and regraft back: every CLV the retirements dropped is
        found again by content — same slots, no kernel call."""
        tree, prune, keep, regraft_back = _prune_cycle(engine)
        moved = prune.other(keep)
        before = engine.evaluate(prune)
        slots = {id(entry.slot) for entry in engine._clv_cache.values()}
        subtree_slot = engine.clv(moved, prune).slot
        calls = engine.newview_calls
        tree.prune_subtree(prune, keep_side=keep)
        assert (moved.index, prune.index) not in engine._clv_cache
        assert engine._parked
        # parked, not released
        assert engine._arena.in_use == len(slots) == \
            len(engine._clv_cache) + len(engine._parked)
        new_prune = regraft_back()
        assert engine.evaluate(new_prune) == before
        assert engine.newview_calls == calls
        assert engine.clv(moved, new_prune).slot is subtree_slot
        assert {id(e.slot) for e in engine._clv_cache.values()} == slots
        assert not engine._parked

    def test_parked_clvs_are_bounded_and_release_their_slots(
            self, medium_patterns):
        tree = Tree.from_tip_names(medium_patterns.taxa,
                                   np.random.default_rng(3))
        engine = LikelihoodEngine(medium_patterns, default_gtr(),
                                  GammaRates(0.7, 4), tree)
        try:
            for branch in tree.branches:
                engine.evaluate(branch)
            filled = engine._arena.in_use
            for _ in range(3):
                tree.nni(_internal_branch(tree))
            assert len(engine._parked) == _PARKED_CLVS
            assert engine._arena.in_use == \
                len(engine._clv_cache) + _PARKED_CLVS < filled
        finally:
            engine.detach()

    @pytest.mark.parametrize("emptied_by", ["fault", "set_model",
                                            "set_rate_model"])
    def test_parked_clvs_do_not_survive_invalidation(self, engine,
                                                     emptied_by):
        tree, prune, keep, regraft_back = _prune_cycle(engine)
        engine.evaluate(prune)
        tree.prune_subtree(prune, keep_side=keep)
        new_prune = regraft_back()
        assert engine._parked
        if emptied_by == "set_model":
            engine.set_model(JC69())
        elif emptied_by == "set_rate_model":
            engine.set_rate_model(GammaRates(0.4, 4))
        else:
            plan = FaultPlan(seed=0, specs=(
                FaultSpec(ENGINE_CLV_POISON, trigger_at=(0,), value="nan"),))
            # A new length on the far side: the junction CLV must be
            # recomputed, which is where the poison lands.
            tree.set_length(new_prune, new_prune.length * 2.0)
            far = next(b for b in prune.other(keep).branches
                       if b is not new_prune)
            with inject(plan) as injector:
                engine.evaluate(far)
            assert injector.fired[ENGINE_CLV_POISON] == 1
            assert engine.fault_recoveries == 1
        assert not engine._parked
        assert engine._arena.in_use == len(engine._clv_cache)
        fresh = LikelihoodEngine(engine.patterns, engine.model,
                                 engine.rate_model, tree)
        assert engine.evaluate(new_prune) == fresh.evaluate(new_prune)
        fresh.detach()

    def test_model_change_invalidates_everything(self, engine):
        before = engine.evaluate()
        engine.set_model(JC69())
        after = engine.evaluate()
        assert before != after

    def test_detach_stops_observation(self, small_patterns, small_tree):
        model = default_gtr()
        engine = LikelihoodEngine(
            small_patterns, model, GammaRates(0.7, 4), small_tree
        )
        engine.evaluate()
        engine.detach()
        # Editing the tree after detach must not crash the engine.
        small_tree.set_length(small_tree.branches[0], 0.42)


class TestScalingDeepTrees:
    def test_deep_tree_triggers_scaling_and_stays_finite(self):
        # Each tip multiplies a factor < 1 into the CLV product, so a
        # large tree with long branches (P rows near stationary, ~0.25)
        # pushes pattern likelihoods below RAxML's 2^-256 threshold.
        n = 160
        aln = synthetic_dataset(n_taxa=n, n_sites=20, seed=8,
                                mean_branch_length=1.5,
                                invariant_fraction=0.0, gamma_alpha=None)
        patterns = aln.compress()
        tree = Tree.from_tip_names(
            patterns.taxa, np.random.default_rng(4), mean_branch_length=1.5
        )
        engine = LikelihoodEngine(
            patterns, default_gtr(), UniformRate(), tree
        )
        value = engine.evaluate()
        assert np.isfinite(value)
        total_scaled = sum(
            entry.scale_counts.sum()
            for entry in engine._clv_cache.values()
        )
        assert total_scaled > 0  # rescaling actually happened
        engine.detach()


class TestMakenewz:
    def test_improves_or_holds_likelihood(self, engine):
        before = engine.evaluate()
        branch = engine.tree.branches[0]
        _, after = engine.makenewz(branch)
        assert after >= before - 1e-9

    def test_finds_zero_derivative(self, engine):
        branch = engine.tree.branches[2]
        t, _ = engine.makenewz(branch, max_iterations=50, tolerance=1e-10)
        # Perturbing in either direction should not improve.
        base = engine.evaluate(branch)
        for factor in (0.98, 1.02):
            engine.tree.set_length(branch, t * factor)
            assert engine.evaluate(branch) <= base + 1e-6
        engine.tree.set_length(branch, t)

    def test_updates_tree_length(self, engine):
        branch = engine.tree.branches[1]
        engine.tree.set_length(branch, 3.0)  # start far from optimum
        t, _ = engine.makenewz(branch)
        assert branch.length == t
        assert t < 3.0

    def test_optimize_all_branches_monotone(self, engine):
        first = engine.optimize_all_branches(passes=1)
        second = engine.optimize_all_branches(passes=2)
        assert second >= first - 1e-9

    def test_matches_grid_search(self, engine):
        branch = engine.tree.branches[4]
        t_opt, lnl_opt = engine.makenewz(branch, max_iterations=50)
        grid = np.geomspace(1e-4, 5.0, 200)
        best_grid = -np.inf
        for t in grid:
            engine.tree.set_length(branch, float(t))
            best_grid = max(best_grid, engine.evaluate(branch))
        engine.tree.set_length(branch, t_opt)
        assert lnl_opt >= best_grid - 1e-3


class TestCATMode:
    def test_cat_engine_runs(self):
        patterns = tiny_dataset(n_taxa=6, n_sites=100, seed=13)
        tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(14))
        model = default_gtr()
        site_rates = estimate_site_rates(patterns, model, tree,
                                         rate_grid=np.geomspace(0.25, 4, 7))
        cat = CatRates(site_rates, n_categories=4)
        engine = LikelihoodEngine(patterns, model, cat, tree)
        value = engine.evaluate()
        assert np.isfinite(value)
        engine.detach()

    def test_cat_faster_than_gamma_in_patterncats(self):
        # CAT collapses the category axis: one category per pattern.
        patterns = tiny_dataset(n_taxa=5, n_sites=60, seed=15)
        tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(16))
        model = default_gtr()
        cat = CatRates(np.ones(patterns.n_patterns) +
                       np.arange(patterns.n_patterns) * 0.01, 4)
        engine = LikelihoodEngine(patterns, model, cat, tree)
        clv_entry = engine.clv(
            tree.inner_nodes[0], tree.inner_nodes[0].branches[0]
        )
        assert clv_entry.clv.shape[0] == 1  # singleton category axis
        engine.detach()

    def test_cat_requires_full_assignment(self):
        patterns = tiny_dataset(n_taxa=4, seed=17)
        tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(18))
        bad = CatRates(np.ones(3) + np.arange(3), 2)  # wrong length
        with pytest.raises(ValueError, match="every pattern"):
            LikelihoodEngine(patterns, default_gtr(), bad, tree)

    def test_mode_switch_rejected(self):
        patterns = tiny_dataset(n_taxa=4, seed=19)
        tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(20))
        engine = LikelihoodEngine(patterns, default_gtr(),
                                  GammaRates(0.7, 4), tree)
        cat = CatRates(np.linspace(0.5, 2, patterns.n_patterns), 4)
        with pytest.raises(ValueError, match="switch"):
            engine.set_rate_model(cat)
        engine.detach()


class TestSiteLogLikelihoods:
    def test_sum_matches_evaluate(self, engine):
        per_pattern = engine.site_log_likelihoods()
        total = float(engine.patterns.weights @ per_pattern)
        assert abs(total - engine.evaluate()) < 1e-9

    def test_estimate_site_rates_range(self, small_patterns, small_tree):
        grid = np.geomspace(0.25, 4.0, 5)
        rates = estimate_site_rates(
            small_patterns, default_gtr(), small_tree, rate_grid=grid
        )
        assert rates.shape == (small_patterns.n_patterns,)
        assert set(np.unique(rates)).issubset(set(grid))


class TestErrors:
    def test_engine_requires_tree(self, small_patterns):
        with pytest.raises(ValueError, match="tree"):
            LikelihoodEngine(small_patterns, default_gtr(), GammaRates(0.7, 4))

    def test_clv_of_tip_rejected(self, engine):
        tip = engine.tree.tips[0]
        with pytest.raises(ValueError, match="tip"):
            engine.clv(tip, tip.branches[0])
