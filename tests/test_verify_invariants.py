"""Metamorphic invariant tests (repro.verify.invariants).

Tier-1 runs each invariant on a few fixed seeds; the hypothesis-driven
sweeps over random models carry ``@pytest.mark.verify`` and run under
the seeded ``ci`` profile in the CI verify job.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.phylo import (GammaRates, JC69, LikelihoodEngine, PoissonAA, Tree,
                         UniformRate)
from repro.phylo.alignment import PatternAlignment
from repro.phylo.models import GTR
from repro.verify import (
    InvariantViolation,
    ReferenceEngine,
    pattern_compression_invariance,
    rerooting_invariance,
    site_permutation_invariance,
    spr_roundtrip_invariance,
    taxon_permutation_invariance,
)
from repro.verify.differential import random_case
from repro.verify.golden import GOLDEN_CASES, build_case_instance
from tests.test_sumtable import length_bar
from tests.strategies import (
    base_frequencies,
    gtr_rates,
    random_sequences,
    seeds,
    substitution_models,
)


def _fixture(seed, n_taxa=7, n_sites=50):
    rng = np.random.default_rng(seed)
    sequences = random_sequences(rng, n_taxa, n_sites)
    return sequences, rng


MODEL = GTR((1.2, 2.9, 0.7, 1.1, 3.4, 1.0), (0.32, 0.18, 0.24, 0.26))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rerooting_invariance_fast_and_oracle(seed):
    sequences, rng = _fixture(seed)
    from repro.phylo import Alignment

    patterns = Alignment.from_sequences(sequences).compress()
    tree = Tree.from_tip_names(patterns.taxa, rng)
    rates = GammaRates(0.7, 4)
    fast = LikelihoodEngine(patterns, MODEL, rates, tree)
    try:
        assert rerooting_invariance(fast) < 1e-12
    finally:
        fast.detach()
    assert rerooting_invariance(
        ReferenceEngine(patterns, MODEL, rates, tree)
    ) < 1e-12


@pytest.mark.parametrize("seed", [4, 5])
def test_site_permutation_bit_identical(seed):
    sequences, rng = _fixture(seed)
    assert site_permutation_invariance(
        sequences, MODEL, UniformRate(), rng
    ) == 0.0


@pytest.mark.parametrize("seed", [6, 7])
def test_taxon_permutation_within_roundoff(seed):
    sequences, rng = _fixture(seed)
    assert taxon_permutation_invariance(
        sequences, MODEL, GammaRates(0.5, 2), rng
    ) < 1e-12


@pytest.mark.parametrize("seed", [8, 9])
def test_pattern_compression_matches_per_site(seed):
    # The model's state count picks the alphabet: the DNA characters,
    # then the same characters read as amino acids.
    for model in (MODEL, PoissonAA()):
        sequences, rng = _fixture(seed)
        assert pattern_compression_invariance(
            sequences, model, UniformRate(), rng
        ) < 1e-12


#: Backend sweep for the metamorphic checks (see test_engine_backends.py
#: for the registry-level tests; here the point is that the *invariants*
#: hold on every backend, not only on the default).
BACKEND_SPECS = ["einsum", "reference"]


@pytest.mark.parametrize("backend", BACKEND_SPECS)
def test_invariants_hold_on_every_backend(backend):
    """Site-permutation (bit-identical), taxon-permutation and
    pattern-compression (round-off) invariances on each backend."""
    sequences, rng = _fixture(20)
    assert site_permutation_invariance(
        sequences, MODEL, UniformRate(), rng, backend=backend
    ) == 0.0
    assert taxon_permutation_invariance(
        sequences, MODEL, GammaRates(0.5, 2), rng, backend=backend
    ) < 1e-12
    assert pattern_compression_invariance(
        sequences, MODEL, UniformRate(), rng, backend=backend
    ) < 1e-12


@pytest.mark.parametrize("backend", BACKEND_SPECS)
def test_rerooting_invariance_every_backend(backend):
    from repro.phylo import Alignment, create_engine

    sequences, rng = _fixture(21)
    patterns = Alignment.from_sequences(sequences).compress()
    tree = Tree.from_tip_names(patterns.taxa, rng)
    engine = create_engine(
        patterns, MODEL, GammaRates(0.7, 4), tree, backend=backend
    )
    try:
        assert rerooting_invariance(engine) < 1e-12
    finally:
        engine.detach()


@pytest.mark.parametrize("backend", BACKEND_SPECS)
def test_spr_roundtrip_bit_identical_every_backend(backend):
    """The bit-for-bit SPR round-trip contract (cluster resume relies on
    it) holds on every backend: the recomputed CLVs take the identical
    kernel path."""
    from repro.phylo import Alignment, create_engine

    sequences, rng = _fixture(22)
    patterns = Alignment.from_sequences(sequences).compress()
    tree = Tree.from_tip_names(patterns.taxa, rng)
    engine = create_engine(patterns, MODEL, None, tree, backend=backend)
    try:
        lnl_before, lnl_moved = spr_roundtrip_invariance(engine, rng)
        assert np.isfinite(lnl_moved)
    finally:
        engine.detach()


def test_cat_assignment_carried_through_rederived_patterns():
    """Permuting taxa re-derives the pattern set and dropping compression
    gives every site its own pattern: a CAT model's categories follow
    the sites, on every backend."""
    from repro.phylo import Alignment, CatRates

    sequences, rng = _fixture(10)
    patterns = Alignment.from_sequences(sequences).compress()
    cat = CatRates(np.linspace(0.5, 2.0, patterns.n_patterns), 2)
    for backend in BACKEND_SPECS:
        assert taxon_permutation_invariance(
            sequences, MODEL, cat, rng, backend=backend) < 1e-12
        assert pattern_compression_invariance(
            sequences, MODEL, cat, rng, backend=backend) < 1e-12


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_spr_roundtrip_restores_everything(seed):
    sequences, rng = _fixture(seed)
    from repro.phylo import Alignment

    patterns = Alignment.from_sequences(sequences).compress()
    tree = Tree.from_tip_names(patterns.taxa, rng)
    engine = LikelihoodEngine(patterns, MODEL, GammaRates(0.8, 2), tree)
    try:
        lnl_before, lnl_moved = spr_roundtrip_invariance(engine, rng)
        # The move itself must have actually changed something.
        assert np.isfinite(lnl_moved)
    finally:
        engine.detach()


def test_invariant_violation_is_reported():
    """A deliberately broken engine must trip the pulley check."""

    class _Broken:
        def __init__(self, engine):
            self._engine = engine
            self.tree = engine.tree
            self._calls = 0

        def evaluate(self, branch=None):
            self._calls += 1
            value = self._engine.evaluate(branch)
            return value + (1e-3 if self._calls > 1 else 0.0)

    sequences, rng = _fixture(14)
    from repro.phylo import Alignment

    patterns = Alignment.from_sequences(sequences).compress()
    tree = Tree.from_tip_names(patterns.taxa, rng)
    engine = LikelihoodEngine(patterns, JC69(), None, tree)
    try:
        with pytest.raises(InvariantViolation, match="pulley"):
            rerooting_invariance(_Broken(engine))
    finally:
        engine.detach()


# -- hypothesis sweeps (CI verify job) --------------------------------------


@pytest.mark.verify
@given(seeds, gtr_rates, base_frequencies)
@settings(max_examples=25, deadline=None)
def test_rerooting_invariance_property(seed, rates, freqs):
    from repro.phylo import Alignment

    rng = np.random.default_rng(seed)
    sequences = random_sequences(rng, 6, 40)
    patterns = Alignment.from_sequences(sequences).compress()
    tree = Tree.from_tip_names(patterns.taxa, rng)
    engine = LikelihoodEngine(patterns, GTR(rates, freqs), None, tree)
    try:
        rerooting_invariance(engine)
    finally:
        engine.detach()


@pytest.mark.verify
@given(seeds, substitution_models())
@settings(max_examples=25, deadline=None)
def test_permutation_and_compression_properties(seed, model):
    rng = np.random.default_rng(seed)
    sequences = random_sequences(rng, 6, 40)
    site_permutation_invariance(sequences, model, None, rng)
    taxon_permutation_invariance(sequences, model, None, rng)
    pattern_compression_invariance(sequences, model, None, rng)


@pytest.mark.verify
@given(seeds, substitution_models())
@settings(max_examples=25, deadline=None)
def test_spr_roundtrip_property(seed, model):
    from repro.phylo import Alignment

    rng = np.random.default_rng(seed)
    sequences = random_sequences(rng, 7, 40)
    patterns = Alignment.from_sequences(sequences).compress()
    tree = Tree.from_tip_names(patterns.taxa, rng)
    engine = LikelihoodEngine(patterns, model, None, tree)
    try:
        spr_roundtrip_invariance(engine, rng)
    finally:
        engine.detach()


# -- makenewz symmetries -----------------------------------------------------
#
# The Newton tie rules promise a returned length that does not depend on
# summation round-off.  Two relabelings that change nothing but that
# round-off: which endpoint of the branch is ``nodes[0]`` (it picks the
# sumtable side that carries ``pi``) and the order of the site patterns.
# The bar is ``length_bar``: 1e-9 relative wherever the data determine
# the length that well.


def _makenewz_symmetry_gap(patterns, model, rate_model, tree, rng):
    """Largest gap, over every branch and in units of the bar above,
    between the length ``makenewz`` returns on the instance as given,
    with every branch's endpoints swapped, and with the site patterns
    permuted."""
    newick = tree.to_newick(digits=17)
    flipped = Tree.from_newick(newick)
    for branch in flipped.branches:
        u, v = branch.nodes
        flipped._retire_branch(branch)
        flipped._new_branch(v, u, branch.length)
    order = rng.permutation(patterns.n_patterns)
    shuffled = PatternAlignment(
        patterns.taxa, patterns.patterns[:, order], patterns.weights[order],
        np.argsort(order)[patterns.site_to_pattern], patterns.n_sites)
    shuffled_rates = rate_model
    if rate_model is not None and rate_model.is_per_site:
        shuffled_rates = replace(
            rate_model, site_categories=rate_model.site_categories[order])
    engines = [
        LikelihoodEngine(patterns, model, rate_model,
                         Tree.from_newick(newick)),
        LikelihoodEngine(patterns, model, rate_model, flipped),
        LikelihoodEngine(shuffled, model, shuffled_rates,
                         Tree.from_newick(newick)),
    ]
    worst = 0.0
    try:
        for branches in zip(*(e.tree.branches for e in engines)):
            base, *others = [engine.makenewz(branch)[0]
                             for engine, branch in zip(engines, branches)]
            for engine, branch in zip(engines, branches):  # lockstep
                engine.tree.set_length(branch, base)
            curvature = engines[0].branch_derivatives(branches[0])[2]
            bar = length_bar(curvature, base)
            worst = max([worst] + [abs(t - base) / base / bar
                                   for t in others])
    finally:
        for engine in engines:
            engine.detach()
    return worst


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda case: case.name)
def test_makenewz_symmetries_on_the_golden_branches(case):
    patterns, model, rate_model, tree, rng = build_case_instance(case)
    assert _makenewz_symmetry_gap(
        patterns, model, rate_model, tree, rng) <= 1.0


def test_makenewz_symmetries_on_fuzz_cases():
    worst = 0.0
    for seed in range(50):
        case = random_case(seed)
        worst = max(worst, _makenewz_symmetry_gap(
            case.patterns, case.model, case.rate_model, case.tree,
            np.random.default_rng(seed)))
    assert worst <= 1.0
