"""Tests for model-parameter optimization (repro.phylo.optimize)."""

import numpy as np
import pytest

from repro.phylo import (
    CatRates,
    GammaRates,
    LikelihoodEngine,
    Tree,
    default_gtr,
    evolve_alignment,
    optimize_alpha,
    optimize_exchangeabilities,
    optimize_model,
    random_tree,
    stepwise_addition_tree,
    synthetic_dataset,
)


def make_engine(patterns, alpha=1.0, seed=0):
    tree = stepwise_addition_tree(patterns, np.random.default_rng(seed))
    model = default_gtr().with_frequencies(patterns.base_frequencies())
    return LikelihoodEngine(patterns, model, GammaRates(alpha, 4), tree)


class TestOptimizeAlpha:
    def test_improves_likelihood(self, small_patterns):
        engine = make_engine(small_patterns, alpha=10.0)
        before = engine.evaluate()
        alpha, after = optimize_alpha(engine, 10.0)
        assert after >= before - 1e-9
        assert 0.02 <= alpha <= 100.0
        engine.detach()

    def test_recovers_simulated_shape(self):
        # Data generated with strong rate variation must prefer a small
        # alpha over a large one.
        names = [f"t{i}" for i in range(10)]
        rng = np.random.default_rng(3)
        tree = random_tree(names, rng, mean_branch_length=0.15)
        aln = evolve_alignment(tree, default_gtr(), 3000, rng,
                               gamma_alpha=0.3, invariant_fraction=0.0)
        patterns = aln.compress()
        engine = make_engine(patterns, alpha=1.0, seed=4)
        engine.optimize_all_branches(passes=2)
        alpha, _ = optimize_alpha(engine, 1.0)
        assert alpha < 1.0
        engine.detach()

    def test_uniform_like_data_prefers_large_alpha(self):
        names = [f"t{i}" for i in range(8)]
        rng = np.random.default_rng(5)
        tree = random_tree(names, rng, mean_branch_length=0.15)
        aln = evolve_alignment(tree, default_gtr(), 3000, rng,
                               gamma_alpha=None, invariant_fraction=0.0)
        patterns = aln.compress()
        engine = make_engine(patterns, alpha=0.3, seed=6)
        engine.optimize_all_branches(passes=2)
        alpha, _ = optimize_alpha(engine, 0.3)
        assert alpha > 1.5
        engine.detach()

    def test_rejects_cat_mode(self, small_patterns):
        tree = stepwise_addition_tree(
            small_patterns, np.random.default_rng(7)
        )
        cat = CatRates(np.linspace(0.5, 2.0, small_patterns.n_patterns), 4)
        engine = LikelihoodEngine(small_patterns, default_gtr(), cat, tree)
        with pytest.raises(ValueError, match="Gamma"):
            optimize_alpha(engine, 1.0)
        engine.detach()


class TestOptimizeExchangeabilities:
    def test_improves_likelihood(self, small_patterns):
        engine = make_engine(small_patterns)
        # Start from a deliberately wrong model (all rates equal).
        engine.set_model(engine.model.with_exchangeabilities((1.0,) * 6))
        before = engine.evaluate()
        model, after = optimize_exchangeabilities(engine, max_sweeps=1)
        assert after >= before
        assert model.exchangeabilities[5] == 1.0  # GT stays pinned
        engine.detach()

    def test_recovers_transition_bias(self):
        # Data simulated with strong AG/CT bias: the fitted AG and CT
        # rates must exceed the transversion rates.
        names = [f"t{i}" for i in range(8)]
        rng = np.random.default_rng(9)
        tree = random_tree(names, rng, mean_branch_length=0.2)
        truth = default_gtr()  # AG=3.8, CT=4.2 vs ~1 transversions
        aln = evolve_alignment(tree, truth, 4000, rng,
                               gamma_alpha=None, invariant_fraction=0.0)
        patterns = aln.compress()
        engine = make_engine(patterns, seed=10)
        engine.set_model(
            default_gtr()
            .with_frequencies(patterns.base_frequencies())
            .with_exchangeabilities((1.0,) * 6)
        )
        engine.optimize_all_branches(passes=2)
        model, _ = optimize_exchangeabilities(engine, max_sweeps=2)
        ac, ag, at, cg, ct, gt = model.exchangeabilities
        assert ag > 1.5 * max(ac, at, cg)
        assert ct > 1.5 * max(ac, at, cg)
        engine.detach()


class TestOptimizeGammaInv:
    def test_improves_likelihood(self, small_patterns):
        from repro.phylo import optimize_gamma_inv

        engine = make_engine(small_patterns, alpha=1.0)
        engine.optimize_all_branches(passes=1)
        before = engine.evaluate()
        alpha, pinv, after = optimize_gamma_inv(engine, 1.0, 0.1)
        assert after >= before - 1e-6
        assert 0.0 <= pinv <= 0.9
        assert 0.02 <= alpha <= 100.0
        engine.detach()

    def test_at_least_as_good_as_plain_gamma(self):
        # GTR+I+G nests plain Gamma, so the joint fit can never lose.
        from repro.phylo import (
            optimize_alpha,
            optimize_gamma_inv,
            synthetic_dataset,
        )

        aln = synthetic_dataset(n_taxa=8, n_sites=500, seed=31,
                                invariant_fraction=0.6, gamma_alpha=None)
        patterns = aln.compress()
        plain = make_engine(patterns, seed=31)
        plain.optimize_all_branches(passes=2)
        _, lnl_gamma = optimize_alpha(plain, 1.0)
        plain.detach()
        joint = make_engine(patterns, seed=31)
        joint.optimize_all_branches(passes=2)
        _, _, lnl_joint = optimize_gamma_inv(joint, 1.0, 0.05)
        joint.detach()
        assert lnl_joint >= lnl_gamma - 0.01

    def test_detects_invariance_when_alpha_fixed(self):
        # With alpha pinned high (little Gamma rate variation allowed),
        # the invariant fraction of the data must flow into p_inv.
        # (When alpha is free, I and Gamma trade off on a flat ridge —
        # the classic +I+G identifiability issue — so the joint fit is
        # only checked for likelihood, above.)
        from repro.phylo import GammaInvRates, synthetic_dataset

        aln = synthetic_dataset(n_taxa=8, n_sites=500, seed=31,
                                invariant_fraction=0.6, gamma_alpha=None)
        patterns = aln.compress()
        engine = make_engine(patterns, seed=31)
        engine.optimize_all_branches(passes=2)
        scores = {}
        for pinv in (0.0, 0.2, 0.4, 0.6):
            engine.set_rate_model(GammaInvRates(5.0, pinv, 4))
            scores[pinv] = engine.evaluate()
        engine.detach()
        assert max(scores, key=scores.get) >= 0.4

    def test_rejects_cat_mode(self, small_patterns):
        from repro.phylo import CatRates, optimize_gamma_inv

        tree = stepwise_addition_tree(
            small_patterns, np.random.default_rng(32)
        )
        cat = CatRates(
            np.linspace(0.5, 2.0, small_patterns.n_patterns), 4
        )
        engine = LikelihoodEngine(small_patterns, default_gtr(), cat, tree)
        with pytest.raises(ValueError, match="integrated"):
            optimize_gamma_inv(engine)
        engine.detach()


class TestOptimizeModel:
    def test_full_loop_monotone(self, small_patterns):
        engine = make_engine(small_patterns, alpha=5.0)
        start = engine.evaluate()
        result = optimize_model(engine, max_rounds=2)
        assert result.log_likelihood >= start
        assert result.rounds >= 1
        assert result.alpha is not None
        engine.detach()

    def test_branches_only(self, small_patterns):
        engine = make_engine(small_patterns)
        result = optimize_model(
            engine, optimize_rates=False, optimize_shape=False, max_rounds=1
        )
        assert result.alpha is None
        assert np.isfinite(result.log_likelihood)
        engine.detach()


def test_default_import_path_leaves_scipy_optimize_out():
    """``scipy.optimize`` (and the ``sparse``/``linalg``/``spatial`` it
    drags in, ~25 MB and ~0.15 s) is imported by the model optimizers on
    first use, not by ``import repro.phylo``: the CLI, the serve layer
    and every forked worker start without it — and ``optimize_model``
    still finds it when it is called."""
    import os
    import subprocess
    import sys

    script = (
        "import sys\n"
        "import repro.phylo.cli, repro.serve\n"
        "assert 'scipy.optimize' not in sys.modules, 'imported at top'\n"
        "import numpy as np\n"
        "from repro.phylo import (GammaRates, LikelihoodEngine, default_gtr,"
        " optimize_model, stepwise_addition_tree, synthetic_dataset)\n"
        "p = synthetic_dataset(n_taxa=5, n_sites=120, seed=3).compress()\n"
        "e = LikelihoodEngine(p, default_gtr(), GammaRates(1.0, 4),"
        " stepwise_addition_tree(p, np.random.default_rng(0)))\n"
        "before = e.evaluate()\n"
        "r = optimize_model(e, optimize_rates=False, max_rounds=1)\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "assert r.alpha is not None and r.log_likelihood >= before\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
