"""Sequence evolution simulation.

The paper benchmarks on ``42_SC`` — 42 organisms, DNA sequences of 1167
nucleotides, with ~250 distinct site patterns.  That alignment is not
redistributable, so the reproduction generates a synthetic stand-in by
simulating evolution under GTR+Gamma along a random tree.  Every quantity
the paper's evaluation depends on is a function of the alignment's
*dimensions* (taxa -> tree size -> kernel call counts; patterns -> loop
trip counts), which the simulator reproduces exactly; see DESIGN.md.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .alignment import Alignment, alphabet_for
from .models import SubstitutionModel, GTR
from .tree import Tree

__all__ = ["evolve_alignment", "synthetic_dataset", "random_tree", "default_gtr"]


def default_gtr() -> SubstitutionModel:
    """A mildly asymmetric GTR model used for synthetic data generation."""
    return GTR(
        exchangeabilities=(1.3, 3.8, 0.9, 1.1, 4.2, 1.0),
        frequencies=(0.29, 0.21, 0.24, 0.26),
    )


def random_tree(
    names: Sequence[str],
    rng: Optional[np.random.Generator] = None,
    mean_branch_length: float = 0.08,
) -> Tree:
    """A random unrooted topology with exponential branch lengths."""
    return Tree.from_tip_names(names, rng or np.random.default_rng(),
                               mean_branch_length=mean_branch_length)


def evolve_alignment(
    tree: Tree,
    model: SubstitutionModel,
    n_sites: int,
    rng: Optional[np.random.Generator] = None,
    gamma_alpha: Optional[float] = 0.8,
    invariant_fraction: float = 0.35,
) -> Alignment:
    """Simulate DNA sequences along *tree* under *model*.

    Per-site rates are drawn from a continuous Gamma(alpha, alpha)
    distribution; a fraction of sites is forced invariant (rate 0), which
    is what keeps the distinct-pattern count of real alignments (and of
    ``42_SC``) far below the site count.

    Returns an :class:`~repro.phylo.alignment.Alignment` with one row per
    tip of *tree*, in tip-name order of insertion.
    """
    rng = rng or np.random.default_rng()
    if n_sites < 1:
        raise ValueError("need at least one site")
    n_states = model.n_states
    alphabet = alphabet_for(n_states)

    rates = (
        rng.gamma(shape=gamma_alpha, scale=1.0 / gamma_alpha, size=n_sites)
        if gamma_alpha is not None
        else np.ones(n_sites)
    )
    if invariant_fraction > 0:
        invariant = rng.random(n_sites) < invariant_fraction
        rates[invariant] = 0.0

    pi = model.pi
    # Root the traversal at an arbitrary inner node.
    root = next(n for n in tree.nodes if not n.is_tip)
    root_states = rng.choice(n_states, size=n_sites, p=pi)

    states: dict = {root.index: root_states}
    sequences: dict = {}
    # Pre-order: parents before children.
    order = list(reversed(tree.postorder(root)))
    for node, entry in order:
        if entry is None:
            continue  # the root itself
        parent = entry.other(node)
        parent_states = states[parent.index]
        # Row ``parent_state`` of each site's P(rate_s * t) = R e^{Lrt} L:
        # only the sampled row is formed, (n_sites, 4), never the full
        # (n_sites, 4, 4) stack.
        exponent = np.exp(
            model._eigenvalues[None, :] * (rates[:, None] * entry.length)
        )
        rows = (model._right[parent_states] * exponent) @ model._left
        # Guard against round-off: clip and renormalize before sampling.
        rows = np.clip(rows, 0.0, None)
        rows = rows / rows.sum(axis=1, keepdims=True)
        draws = rng.random(n_sites)
        child_states = (rows.cumsum(axis=1) < draws[:, None]).sum(axis=1)
        child_states = np.minimum(child_states, n_states - 1)
        if node.is_tip:
            sequences[node.name] = child_states
        else:
            states[node.index] = child_states

    # State ``i`` is the code of the alphabet's ``i``-th letter.
    state_codes = alphabet.encode_table[
        np.frombuffer(alphabet.states.encode(), dtype=np.uint8)]
    return Alignment(list(sequences),
                     np.vstack([state_codes[s] for s in sequences.values()]),
                     alphabet)


def synthetic_dataset(
    n_taxa: int = 42,
    n_sites: int = 1167,
    seed: int = 42,
    model: Optional[SubstitutionModel] = None,
    mean_branch_length: float = 0.03,
    gamma_alpha: Optional[float] = 0.3,
    invariant_fraction: float = 0.5,
) -> Alignment:
    """A seeded synthetic dataset; defaults mimic the paper's ``42_SC``.

    With the default parameters (short branches, strong rate variation,
    half the sites invariant — typical of a conserved single-gene DNA
    alignment) the 42-taxon, 1167-site alignment compresses to ~239
    distinct patterns — matching the paper's "the number of distinct
    data patterns in a DNA alignment is on the order of 250".
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_taxa, n_sites]))
    names = [f"T{i:03d}" for i in range(n_taxa)]
    tree = random_tree(names, rng, mean_branch_length=mean_branch_length)
    return evolve_alignment(
        tree,
        model or default_gtr(),
        n_sites,
        rng,
        gamma_alpha=gamma_alpha,
        invariant_fraction=invariant_fraction,
    )
