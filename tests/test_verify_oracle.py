"""Unit tests of the loop-based reference engine (repro.verify.oracle)."""

import numpy as np
import pytest

from repro.phylo import JC69, GammaRates, LikelihoodEngine, Tree
from repro.phylo.models import GTR
from repro.verify import ReferenceEngine, jc69_two_taxon_closed_form, two_taxon_tree
from tests.strategies import random_patterns


@pytest.fixture()
def instance():
    rng = np.random.default_rng(17)
    patterns = random_patterns(rng, 6, 40)
    tree = Tree.from_tip_names(patterns.taxa, rng)
    model = GTR((1.2, 2.9, 0.7, 1.1, 3.4, 1.0), (0.32, 0.18, 0.24, 0.26))
    return patterns, tree, model


def test_oracle_requires_a_tree(instance):
    patterns, _tree, model = instance
    with pytest.raises(ValueError, match="tree is required"):
        ReferenceEngine(patterns, model, None, None)


def test_oracle_matches_fast_engine_loglik(instance):
    patterns, tree, model = instance
    rates = GammaRates(0.6, 4)
    oracle = ReferenceEngine(patterns, model, rates, tree)
    fast = LikelihoodEngine(patterns, model, rates, tree)
    try:
        for branch in tree.branches[:4]:
            a, b = fast.evaluate(branch), oracle.evaluate(branch)
            assert a == pytest.approx(b, rel=1e-9)
    finally:
        fast.detach()


def test_oracle_newview_shapes_and_scale_counts(instance):
    patterns, tree, model = instance
    oracle = ReferenceEngine(patterns, model, None, tree)
    fast = LikelihoodEngine(patterns, model, None, tree)
    try:
        inner = next(n for n in tree.inner_nodes)
        entry = inner.branches[0]
        clv, scale = oracle.newview(inner, entry)
        assert clv.shape == (1, patterns.n_patterns, 4)
        assert scale.shape == (patterns.n_patterns,)
        cached = fast.clv(inner, entry)
        assert np.array_equal(scale, cached.scale_counts)
        # Error normalized by the largest element (the harness's metric):
        # tiny entries many orders below the pattern max carry round-off
        # relative to the magnitudes they were computed from.
        np.testing.assert_allclose(
            clv, cached.clv, rtol=1e-9, atol=1e-9 * float(np.abs(clv).max())
        )
    finally:
        fast.detach()


def test_oracle_newview_rejects_tips(instance):
    patterns, tree, model = instance
    oracle = ReferenceEngine(patterns, model, None, tree)
    tip = tree.tips[0]
    with pytest.raises(ValueError, match="tips have no CLV"):
        oracle.newview(tip, tip.branches[0])


def test_oracle_branch_derivatives_match_trial_length(instance):
    """At a trial length != stored length the derivative sign must point
    toward the optimum, and lnL(t) must be consistent with evaluate."""
    patterns, tree, model = instance
    oracle = ReferenceEngine(patterns, model, None, tree)
    branch = tree.branches[1]
    lnl, d1, d2 = oracle.branch_derivatives(branch)
    assert np.isfinite([lnl, d1, d2]).all()
    assert lnl == pytest.approx(oracle.evaluate(branch), rel=1e-12)
    with pytest.raises(ValueError, match="non-negative"):
        oracle.branch_derivatives(branch, length=-0.1)


def test_oracle_poisoned_by_construction_raises(instance):
    """The oracle carries the same NaN guard as the fast kernel.

    Poisoned eigenvalues are *persistent* corruption — cache drops and
    the backend fallback cannot clear them — so the degradation ladder
    must exhaust and surface the typed ``EngineNumericalError`` (still
    carrying the kernel guard's message).
    """
    from repro.phylo.engine.protocol import EngineNumericalError

    patterns, tree, model = instance
    oracle = ReferenceEngine(patterns, model, None, tree)
    oracle._eigenvalues[0] = float("nan")
    inner = next(n for n in tree.inner_nodes)
    with pytest.raises(EngineNumericalError, match="non-finite CLV"):
        oracle.newview(inner, inner.branches[0])


def test_jc69_two_taxon_closed_form_both_engines():
    """The one analytically solvable case: both engines must hit the
    textbook JC69 formula."""
    from repro.phylo import Alignment

    seq_a = "ACGTACGTACGTACGTACGT"
    seq_b = "ACGTACGTTCGAACGTATGT"
    n_same = sum(x == y for x, y in zip(seq_a, seq_b))
    n_diff = len(seq_a) - n_same
    patterns = Alignment.from_sequences({"a": seq_a, "b": seq_b}).compress()
    for length in (0.05, 0.37, 1.4):
        analytic = jc69_two_taxon_closed_form(length, n_same, n_diff)
        tree = two_taxon_tree("a", "b", length)
        oracle_value = ReferenceEngine(patterns, JC69(), None, tree).evaluate()
        fast = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            fast_value = fast.evaluate()
        finally:
            fast.detach()
        assert oracle_value == pytest.approx(analytic, rel=1e-9)
        assert fast_value == pytest.approx(analytic, rel=1e-9)
