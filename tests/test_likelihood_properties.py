"""Property-based tests of the likelihood engine over random instances."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.phylo import (
    Alignment,
    GTR,
    GammaRates,
    LikelihoodEngine,
    Tree,
    UniformRate,
)
from tests.strategies import (
    base_frequencies,
    gtr_rates,
    random_instance,
    seeds,
)


class TestEngineProperties:
    @given(
        seeds,
        st.integers(min_value=4, max_value=8),
        gtr_rates,
        base_frequencies,
    )
    @settings(max_examples=20, deadline=None)
    # Four branches at the 1e-8 clamp: the lnL spread across roots was
    # 7.9e-7, over the old fixed 1e-8 + 1e-9 relative bar.
    @example(seed=7, n_taxa=7, rates=(1.0, 2.25, 2.0, 0.1015625, 3.0, 3.0),
             freqs=(1.0, 1.0, 1.0, 0.75))
    def test_branch_invariance_property(self, seed, n_taxa, rates, freqs):
        """lnL is identical at every branch for any reversible model, to
        round-off.  An off-diagonal ``P_ij(t)`` is ``O(t)`` assembled from
        ``O(1)`` eigen-terms, so it carries a few ``eps`` of *absolute*
        error — ``eps / t`` relative — and each site's likelihood can
        inherit that from the shortest branch; the bar grows with it."""
        patterns, tree, model = random_instance(seed, n_taxa, 30, rates, freqs)
        engine = LikelihoodEngine(patterns, model, UniformRate(), tree)
        try:
            values = [engine.evaluate(b) for b in tree.branches]
            spread = max(values) - min(values)
            shortest = min(b.length for b in tree.branches)
            cancellation = (8 * np.finfo(float).eps / shortest
                            * patterns.weights.sum())
            assert spread < 1e-9 * max(1.0, abs(values[0])) + cancellation
        finally:
            engine.detach()

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_likelihood_bounded_above_by_zero(self, seed):
        """Site likelihoods are probabilities, so lnL <= 0."""
        patterns, tree, model = random_instance(
            seed, 5, 40, (1.0, 2.0, 1.0, 1.0, 2.0, 1.0),
            (0.25, 0.25, 0.25, 0.25),
        )
        engine = LikelihoodEngine(patterns, model, GammaRates(0.8, 2), tree)
        try:
            assert engine.evaluate() < 0.0
        finally:
            engine.detach()

    @given(seeds, st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=15, deadline=None)
    def test_makenewz_never_decreases(self, seed, start_length):
        patterns, tree, model = random_instance(
            seed, 5, 40, (1.0, 3.0, 1.0, 1.0, 3.0, 1.0),
            (0.3, 0.2, 0.3, 0.2),
        )
        engine = LikelihoodEngine(patterns, model, UniformRate(), tree)
        try:
            branch = tree.branches[seed % len(tree.branches)]
            tree.set_length(branch, start_length)
            before = engine.evaluate(branch)
            _, after = engine.makenewz(branch)
            assert after >= before - 1e-9
        finally:
            engine.detach()

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_bootstrap_weights_change_lnl_not_validity(self, seed):
        patterns, tree, model = random_instance(
            seed, 5, 60, (1.0,) * 6, (0.25,) * 4
        )
        rng = np.random.default_rng(seed + 1)
        replicate = patterns.bootstrap_replicate(rng)
        engine = LikelihoodEngine(replicate, model, UniformRate(), tree)
        try:
            value = engine.evaluate()
            assert np.isfinite(value)
            assert value < 0.0
        finally:
            engine.detach()

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_duplicate_columns_scale_lnl_linearly(self, seed):
        """Doubling every column exactly doubles the log likelihood."""
        rng = np.random.default_rng(seed)
        seqs = {
            f"t{i}": "".join(rng.choice(list("ACGT"), 25)) for i in range(5)
        }
        doubled = {name: s + s for name, s in seqs.items()}
        single = Alignment.from_sequences(seqs).compress()
        double = Alignment.from_sequences(doubled).compress()
        tree1 = Tree.from_tip_names(single.taxa, np.random.default_rng(seed))
        tree2 = Tree.from_newick(tree1.to_newick(digits=17))
        model = GTR((1.0, 2.0, 1.0, 1.0, 2.0, 1.0), (0.25,) * 4)
        e1 = LikelihoodEngine(single, model, UniformRate(), tree1)
        e2 = LikelihoodEngine(double, model, UniformRate(), tree2)
        try:
            assert 2 * e1.evaluate() == pytest.approx(e2.evaluate(), rel=1e-9)
        finally:
            e1.detach()
            e2.detach()
