"""Tests for GTR+I+G (GammaInvRates), protein simulation and devsim
quiescence — the second extension batch."""

import numpy as np
import pytest

from repro.cell import Get, SimulationError, Simulator, Timeout
from repro.phylo import (
    AA,
    GammaInvRates,
    GammaRates,
    LikelihoodEngine,
    PoissonAA,
    Tree,
    default_gtr,
    evolve_alignment,
    random_tree,
)


class TestGammaInvRates:
    def test_structure(self):
        model = GammaInvRates(alpha=0.7, p_invariant=0.3, n_categories=4)
        assert model.n_categories == 5
        assert model.rates[0] == 0.0
        assert model.weights[0] == pytest.approx(0.3)

    def test_mean_rate_is_one(self):
        model = GammaInvRates(alpha=0.5, p_invariant=0.25)
        assert (model.rates * model.weights).sum() == pytest.approx(1.0)

    def test_zero_pinv_is_plain_gamma(self):
        a = GammaInvRates(0.8, 0.0, 4)
        b = GammaRates(0.8, 4)
        assert np.allclose(a.rates, b.rates)
        assert np.allclose(a.weights, b.weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaInvRates(0.8, 1.0)
        with pytest.raises(ValueError):
            GammaInvRates(0.8, -0.1)

    def test_engine_runs_and_is_branch_invariant(self, small_patterns):
        from repro.phylo import stepwise_addition_tree

        tree = stepwise_addition_tree(
            small_patterns, np.random.default_rng(0)
        )
        model = default_gtr().with_frequencies(
            small_patterns.base_frequencies()
        )
        engine = LikelihoodEngine(
            small_patterns, model, GammaInvRates(0.7, 0.3, 4), tree
        )
        values = [engine.evaluate(b) for b in tree.branches]
        assert max(values) - min(values) < 1e-8
        engine.detach()

    def test_invariant_data_prefers_high_pinv(self):
        # Half the sites forced invariant: GTR+I+G with p=0.4 should
        # beat plain Gamma on the same tree.
        from repro.phylo import synthetic_dataset, stepwise_addition_tree

        aln = synthetic_dataset(n_taxa=8, n_sites=400, seed=21,
                                invariant_fraction=0.6)
        patterns = aln.compress()
        tree = stepwise_addition_tree(patterns, np.random.default_rng(1))
        model = default_gtr().with_frequencies(patterns.base_frequencies())
        plain = LikelihoodEngine(patterns, model, GammaRates(1.0, 4), tree)
        lnl_plain = plain.optimize_all_branches(passes=2)
        plain.detach()
        inv = LikelihoodEngine(
            patterns, model, GammaInvRates(1.0, 0.4, 4), tree
        )
        lnl_inv = inv.optimize_all_branches(passes=2)
        inv.detach()
        assert lnl_inv > lnl_plain

    def test_makenewz_with_zero_rate_category(self, small_patterns):
        from repro.phylo import stepwise_addition_tree

        tree = stepwise_addition_tree(
            small_patterns, np.random.default_rng(2)
        )
        model = default_gtr().with_frequencies(
            small_patterns.base_frequencies()
        )
        engine = LikelihoodEngine(
            small_patterns, model, GammaInvRates(0.7, 0.2, 4), tree
        )
        before = engine.evaluate()
        _, after = engine.makenewz(tree.branches[0])
        assert after >= before - 1e-9
        engine.detach()


class TestProteinSimulation:
    def test_evolves_protein_alignment(self):
        names = [f"p{i}" for i in range(6)]
        tree = random_tree(names, np.random.default_rng(3),
                           mean_branch_length=0.2)
        aln = evolve_alignment(tree, PoissonAA(), 150,
                               np.random.default_rng(4),
                               gamma_alpha=None, invariant_fraction=0.0)
        assert aln.alphabet is AA
        assert aln.n_taxa == 6
        assert aln.n_sites == 150

    def test_simulated_protein_data_is_learnable(self):
        # Inference on simulated AA data recovers the generating tree.
        from repro.phylo import infer_tree, robinson_foulds, SearchConfig

        truth = Tree.from_newick(
            "((a:0.1,b:0.1):0.08,(c:0.1,d:0.1):0.08,e:0.15);"
        )
        aln = evolve_alignment(truth, PoissonAA(), 1500,
                               np.random.default_rng(5),
                               gamma_alpha=None, invariant_fraction=0.0)
        result = infer_tree(
            aln.compress(),
            config=SearchConfig(initial_radius=2, max_radius=3,
                                max_rounds=3),
            seed=0,
        )
        inferred = Tree.from_newick(result.newick)
        assert robinson_foulds(truth, inferred) == 0.0

    def test_unknown_state_count_rejected(self):
        from repro.phylo.models import SubstitutionModel

        weird = SubstitutionModel((1.0, 1.0, 1.0), (1 / 3,) * 3)
        names = [f"x{i}" for i in range(4)]
        tree = random_tree(names, np.random.default_rng(6))
        with pytest.raises(ValueError, match="no alphabet"):
            evolve_alignment(tree, weird, 10)


class TestQuiescence:
    def test_quiescent_after_clean_run(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        sim.spawn(proc())
        sim.run()
        sim.assert_quiescent()
        assert sim.unfinished_processes() == []

    def test_blocked_process_detected(self):
        sim = Simulator()
        store = sim.store(name="never-filled")

        def starved():
            yield Get(store)

        sim.spawn(starved(), name="starved-consumer")
        sim.run()
        blocked = sim.unfinished_processes()
        assert len(blocked) == 1
        with pytest.raises(SimulationError, match="starved-consumer"):
            sim.assert_quiescent()
