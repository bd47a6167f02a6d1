"""Shared hypothesis strategies and instance builders for the suite.

Factored out of test_likelihood_properties.py / test_tree_stateful.py so
property tests, the stateful tree machine, and the repro.verify
differential tests all draw from one vocabulary of random phylogenetic
instances.  Profiles (``ci`` / ``dev`` / ``thorough``) are registered in
conftest.py; select one with ``REPRO_HYPOTHESIS_PROFILE``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.phylo import (
    GTR,
    HKY85,
    JC69,
    K80,
    Alignment,
    CatRates,
    GammaRates,
    Tree,
    UniformRate,
)

__all__ = [
    "base_frequencies",
    "branch_lengths",
    "edit_scripts",
    "frequency",
    "gtr_rates",
    "kappas",
    "positive_rate",
    "random_patterns",
    "random_instance",
    "random_phylo_instance",
    "seeds",
    "substitution_models",
    "rate_models",
]

#: A positive exchangeability-rate parameter of a GTR matrix.
positive_rate = st.floats(min_value=0.1, max_value=8.0)
#: One (unnormalized) equilibrium base frequency.
frequency = st.floats(min_value=0.05, max_value=1.0)
#: The six GTR exchangeabilities.
gtr_rates = st.tuples(*([positive_rate] * 6))
#: The four equilibrium frequencies (models normalize them).
base_frequencies = st.tuples(*([frequency] * 4))
#: Transition/transversion ratios for K80/HKY85.
kappas = st.floats(min_value=0.5, max_value=6.0)
#: Branch lengths spanning near-zero to long (the tree clamps further).
branch_lengths = st.floats(min_value=1e-6, max_value=5.0)
#: Seeds for numpy Generators embedded in drawn instances.
seeds = st.integers(min_value=0, max_value=10_000)

#: A tree-editing script for the CLV-identity property: steps of
#: ``(operation, pick, pick, length)`` whose integer picks the
#: interpreter reduces modulo what the tree offers at that point.
edit_scripts = st.lists(
    st.tuples(
        st.sampled_from(["set_length", "makenewz", "nni", "spr",
                         "spr_revert"]),
        st.integers(0, 10_000), st.integers(0, 10_000), branch_lengths,
    ),
    min_size=1, max_size=8,
)


@st.composite
def substitution_models(draw):
    """Any of the four named DNA models with drawn parameters."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return JC69()
    if kind == 1:
        return K80(kappa=draw(kappas))
    if kind == 2:
        return HKY85(kappa=draw(kappas), frequencies=draw(base_frequencies))
    return GTR(draw(gtr_rates), draw(base_frequencies))


@st.composite
def rate_models(draw, n_patterns=None):
    """Uniform or Gamma rates; CAT too when *n_patterns* is known."""
    upper = 2 if n_patterns is None else 3
    kind = draw(st.integers(0, upper - 1))
    if kind == 0:
        return UniformRate()
    if kind == 1:
        return GammaRates(
            alpha=draw(st.floats(min_value=0.2, max_value=2.0)),
            n_categories=draw(st.sampled_from([2, 4])),
        )
    site_seed = draw(seeds)
    site_rates = np.random.default_rng(site_seed).uniform(
        0.25, 4.0, n_patterns
    )
    return CatRates(site_rates, n_categories=draw(st.sampled_from([2, 3])))


def random_sequences(rng: np.random.Generator, n_taxa: int,
                     n_sites: int) -> Dict[str, str]:
    """``{name: sequence}`` of uniform random DNA."""
    return {
        f"t{i}": "".join(rng.choice(list("ACGT"), n_sites))
        for i in range(n_taxa)
    }


def random_patterns(rng: np.random.Generator, n_taxa: int = 8,
                    n_sites: int = 60):
    """A compressed random alignment (the stateful machine's builder)."""
    return Alignment.from_sequences(
        random_sequences(rng, n_taxa, n_sites)
    ).compress()


def random_instance(seed: int, n_taxa: int, n_sites: int,
                    rates: Tuple[float, ...], freqs: Tuple[float, ...]):
    """A (patterns, tree, GTR model) triple derived from one seed."""
    rng = np.random.default_rng(seed)
    patterns = random_patterns(rng, n_taxa, n_sites)
    tree = Tree.from_tip_names(patterns.taxa, rng)
    model = GTR(rates, freqs)
    return patterns, tree, model


def random_phylo_instance(seed: int, model, n_taxa: int = 7,
                          n_sites: int = 50, gamma: bool = False):
    """A full (patterns, tree, model, rate_model) quadruple for a seed.

    Pairs a drawn substitution model with a seed-derived alignment and
    random tree; ``gamma=True`` adds 4-category Gamma rates so both the
    integrated and the multi-category kernel shapes get exercised.
    """
    rng = np.random.default_rng(seed)
    patterns = random_patterns(rng, n_taxa, n_sites)
    tree = Tree.from_tip_names(patterns.taxa, rng)
    rate_model = GammaRates(0.6, 4) if gamma else None
    return patterns, tree, model, rate_model
