#!/usr/bin/env python
"""Amino-acid inference: the paper's "DNA or AA sequences" other half.

Simulates a small protein family under Poisson+F (equal
exchangeabilities, empirical frequencies — the 20-state Jukes-Cantor),
then runs the identical machinery used for DNA: pattern compression,
Fitch parsimony over 20-bit state sets, GTR-class eigendecomposition of
the 20x20 rate matrix, and lazy-SPR hill climbing.

Run:  python examples/protein_analysis.py
"""

import numpy as np

from repro.phylo import (
    AA,
    AA_STATES,
    Alignment,
    GammaRates,
    PoissonAA,
    SearchConfig,
    Tree,
    ascii_tree,
    fitch_score,
    infer_tree,
    robinson_foulds,
    stepwise_addition_tree,
)


def simulate_family(n_taxa: int = 9, n_sites: int = 200, seed: int = 4):
    """A crude protein family: successive divergence from one ancestor."""
    rng = np.random.default_rng(seed)
    ancestor = "".join(rng.choice(list(AA_STATES), n_sites))
    sequences = {"P000": ancestor}
    names = list(sequences)
    for i in range(1, n_taxa):
        parent = sequences[names[rng.integers(len(names))]]
        mutant = list(parent)
        for k in rng.choice(n_sites, size=n_sites // 8, replace=False):
            mutant[k] = rng.choice(list(AA_STATES))
        name = f"P{i:03d}"
        sequences[name] = "".join(mutant)
        names.append(name)
    return Alignment.from_sequences(sequences, AA)


def main() -> None:
    alignment = simulate_family()
    patterns = alignment.compress()
    print(f"protein alignment: {alignment.n_taxa} taxa x "
          f"{alignment.n_sites} sites ({patterns.n_patterns} patterns, "
          f"20-state alphabet)")

    starting = stepwise_addition_tree(patterns, np.random.default_rng(1))
    print(f"parsimony starting tree: {fitch_score(starting, patterns):.0f} "
          "changes (Fitch over 20-bit state sets)")

    result = infer_tree(
        patterns,
        model=PoissonAA(tuple(patterns.base_frequencies())),
        rate_model=GammaRates(0.9, 4),
        config=SearchConfig(initial_radius=2, max_radius=3, max_rounds=3),
        seed=0,
    )
    print(f"ML tree under Poisson+F+Gamma: lnL = {result.log_likelihood:.3f}")
    print(f"SPR moves accepted: {result.search.accepted_moves}")

    inferred = Tree.from_newick(result.newick)
    moved = robinson_foulds(starting, inferred)
    print(f"RF distance from the parsimony start: {moved:.0f}")
    print()
    print(ascii_tree(inferred))


if __name__ == "__main__":
    main()
