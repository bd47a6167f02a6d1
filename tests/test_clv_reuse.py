"""CLV identity under edits: whatever the engine kept, re-keyed or
recomputed, every direction holds the bits a fresh engine computes.

The engine drops a CLV only when its value changes (a length change
stales the directions whose subtree contains the branch) and re-uses a
retired direction's CLV when the same children at the same lengths come
back (SPR revert, the pruned tree shared by one neighbourhood's
targets).  Both are exact, so after any script of edits the cache must
be indistinguishable — ``np.array_equal`` on CLVs and scale counts —
from a cold engine on a copy of the tree.
"""

import numpy as np
import pytest
from hypothesis import given

from repro.phylo import (
    AA,
    Alignment,
    GTR,
    HKY85,
    CatRates,
    GammaRates,
    LikelihoodEngine,
    PoissonAA,
    Tree,
)
from repro.phylo.search import _apply_spr, _revert_spr, spr_neighborhood
from tests.strategies import edit_scripts, random_patterns, seeds
from tests.test_protein import related_sequences


def _dna(seed):
    return random_patterns(np.random.default_rng(seed), n_taxa=6, n_sites=40)


def _gtr_gamma4(seed):
    model = GTR((1.2, 2.9, 0.7, 1.1, 3.4, 1.0), (0.32, 0.18, 0.24, 0.26))
    return _dna(seed), model, GammaRates(0.5, 4)


def _hky_cat(seed):
    patterns = _dna(seed)
    site_rates = np.random.default_rng(seed + 1).uniform(
        0.25, 4.0, patterns.n_patterns)
    return (patterns, HKY85(3.0, (0.3, 0.2, 0.2, 0.3)),
            CatRates(site_rates, n_categories=3))


def _poisson_f(seed):
    # Small: the reference backend's 20-state loops are plain Python.
    patterns = Alignment.from_sequences(
        related_sequences(n_taxa=5, n_sites=8, seed=seed), AA).compress()
    return (patterns, PoissonAA(tuple(np.linspace(1.0, 3.0, 20))),
            GammaRates(0.8, 2))


CASES = {"gtr_gamma4": _gtr_gamma4, "hky_cat": _hky_cat,
         "poisson_f_aa": _poisson_f}


def _directions(tree):
    """Every inner direction, keyed by the tip set of its subtree (ids
    differ between a tree and its copy; tip sets do not)."""
    return {
        frozenset(tree.subtree_tips(node, branch)): (node, branch)
        for branch in tree.branches for node in branch.nodes
        if not node.is_tip
    }


def _assert_matches_a_fresh_engine(engine):
    twin = engine.tree.copy()
    fresh = LikelihoodEngine(engine.patterns, engine.model,
                             engine.rate_model, twin,
                             backend=engine.backend.name)
    try:
        cold = _directions(twin)
        for tips, direction in _directions(engine.tree).items():
            clv, scale = engine.newview(*direction)
            want_clv, want_scale = fresh.newview(*cold[tips])
            assert np.array_equal(clv, want_clv)
            assert np.array_equal(scale, want_scale)
    finally:
        fresh.detach()


def _run(engine, step):
    operation, first, second, length = step
    tree = engine.tree
    branches = tree.branches
    branch = branches[first % len(branches)]
    if operation == "set_length":
        tree.set_length(branch, length)
    elif operation == "makenewz":
        engine.makenewz(branch)
    elif operation == "nni":
        internal = [b for b in branches
                    if not any(n.is_tip for n in b.nodes)]
        tree.nni(internal[first % len(internal)], second % 2)
    else:
        prunable = [(b, n) for b in branches for n in b.nodes
                    if not n.is_tip and spr_neighborhood(tree, b, n, 3)]
        prune, keep = prunable[first % len(prunable)]
        targets = spr_neighborhood(tree, prune, keep, 3)
        # One lazy-SPR candidate, scored the way the search scores it.
        move = _apply_spr(tree, prune, keep, targets[second % len(targets)])
        for local in list(move.junction.branches):
            engine.makenewz(local, max_iterations=4)
        engine.evaluate(move.connect_branch)
        if operation == "spr_revert":
            _revert_spr(tree, move)


@pytest.mark.parametrize("backend", ["einsum", "reference"])
@pytest.mark.parametrize("case", sorted(CASES))
@given(seed=seeds, script=edit_scripts)
def test_every_direction_is_a_fresh_engines_after_every_edit(
        case, backend, seed, script):
    patterns, model, rate_model = CASES[case](seed)
    tree = Tree.from_tip_names(patterns.taxa, np.random.default_rng(seed))
    engine = LikelihoodEngine(patterns, model, rate_model, tree,
                              backend=backend)
    try:
        _assert_matches_a_fresh_engine(engine)  # and fills every direction
        for step in script:
            _run(engine, step)
            _assert_matches_a_fresh_engine(engine)
        assert engine.numerical_faults == 0
    finally:
        engine.detach()
