"""Pairwise evolutionary distances and Neighbor-Joining trees.

RAxML-world analyses lean on distance methods in two places: quick
starting trees (when parsimony is overkill) and sanity checks of ML
results.  This module provides:

* :func:`jc69_distance` — the analytic Jukes-Cantor distance,
* :func:`ml_distance` — the ML distance under any reversible model and
  rate mixture, found by Newton-Raphson on the two-sequence likelihood
  (``makenewz`` on a single tip-tip branch: same sumtable kernels, same
  Newton loop),
* :func:`distance_matrix` — all pairs, pattern-weighted,
* :func:`neighbor_joining` — Saitou & Nei's NJ, returning a
  :class:`~repro.phylo.tree.Tree`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from . import kernels
from .alignment import PatternAlignment, check_tip_codes
from .engine.core import masked_newton
from .models import SubstitutionModel, JC69
from .rates import RateModel, UniformRate
from .tree import MAX_BRANCH_LENGTH, MIN_BRANCH_LENGTH, Tree

__all__ = [
    "jc69_distance",
    "ml_distance",
    "distance_matrix",
    "neighbor_joining",
]

#: Distance assigned to saturated pairs (p-distance >= (n-1)/n, 3/4
#: for DNA).
SATURATION_DISTANCE = 5.0


def _pair_stats(patterns: PatternAlignment, i: int, j: int
                ) -> Tuple[float, float]:
    """(weighted mismatches, weighted comparable sites) for a pair.

    Sites where either sequence is ambiguous in a way that overlaps the
    other's state set are counted as matches (conservative, standard).
    Overlap is tested on the alphabet's state-set bitmasks (for DNA the
    codes themselves; amino-acid codes are table indices).
    """
    bitmasks = patterns.alphabet.bitmasks
    a = bitmasks[patterns.patterns[i]]
    b = bitmasks[patterns.patterns[j]]
    mismatch = (a & b) == 0
    weights = patterns.weights
    return float(weights[mismatch].sum()), float(weights.sum())


def jc69_distance(patterns: PatternAlignment, i: int, j: int) -> float:
    """Jukes-Cantor distance over the alignment's ``n`` states:
    ``-(n-1)/n ln(1 - n p/(n-1))`` on the p-distance (``-3/4 ln(1 -
    4p/3)`` for DNA)."""
    mismatches, total = _pair_stats(patterns, i, j)
    if total == 0:
        raise ValueError("no comparable sites")
    n = patterns.alphabet.n_states
    p = mismatches / total
    if p >= (n - 1) / n:
        return SATURATION_DISTANCE
    if p == 0.0:
        return 0.0
    return -(n - 1) / n * math.log(1.0 - n * p / (n - 1))


def ml_distance(
    patterns: PatternAlignment,
    i: int,
    j: int,
    model: Optional[SubstitutionModel] = None,
    rate_model: Optional[RateModel] = None,
) -> float:
    """ML distance between two sequences by Newton-Raphson.

    Maximizes the two-sequence log likelihood over the single branch
    length — exactly ``makenewz`` on a two-tip tree.  Starts from the
    JC69 estimate.
    """
    model = model or JC69()
    rate_model = rate_model or UniformRate()
    if rate_model.is_per_site:
        raise ValueError("ml_distance expects an integrated rate model")
    # Both sides are tips: the sumtable takes their state codes.
    code_table = patterns.alphabet.code_table
    check_tip_codes(patterns.patterns[[i, j]], code_table)
    table = kernels.branch_sumtable(
        model._right, model._left, model.pi, rate_model.n_categories,
        patterns.patterns[i], patterns.patterns[j], code_table,
    )
    start = min(max(jc69_distance(patterns, i, j), MIN_BRANCH_LENGTH),
                MAX_BRANCH_LENGTH)
    probe = kernels.SumtableProbe(
        model._eigenvalues, rate_model.rates, patterns.weights,
        rate_model.weights)
    (best_t,), _, _ = masked_newton(
        *probe.rows(table[None], [0.0], probe.stack_work(1)), [start])
    return best_t


def distance_matrix(
    patterns: PatternAlignment,
    method: str = "ml",
    model: Optional[SubstitutionModel] = None,
    rate_model: Optional[RateModel] = None,
) -> np.ndarray:
    """Symmetric pairwise distance matrix over the alignment's taxa."""
    n = patterns.n_taxa
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if method == "ml":
                d = ml_distance(patterns, i, j, model, rate_model)
            elif method == "jc":
                d = jc69_distance(patterns, i, j)
            else:
                raise ValueError(f"unknown distance method {method!r}")
            out[i, j] = out[j, i] = d
    return out


def neighbor_joining(matrix: np.ndarray, names: List[str]) -> Tree:
    """Saitou & Nei neighbor joining; returns an unrooted tree.

    Negative branch-length estimates (possible with NJ on noisy
    distances) are clamped to the minimum branch length.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = len(names)
    if matrix.shape != (n, n):
        raise ValueError("matrix shape does not match the name list")
    if n < 3:
        raise ValueError("neighbor joining needs at least 3 taxa")
    if not np.allclose(matrix, matrix.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if (np.diag(matrix) != 0).any():
        raise ValueError("distance matrix diagonal must be zero")

    # Work on growing newick fragments; lengths formatted at the end.
    labels = [f"{name}" for name in names]
    dist = matrix.copy()
    active = list(range(n))
    fragments = {k: labels[k] for k in active}

    def fmt(length: float) -> str:
        return f":{max(length, MIN_BRANCH_LENGTH):.10g}"

    while len(active) > 3:
        m = len(active)
        sub = dist[np.ix_(active, active)]
        totals = sub.sum(axis=1)
        q = (m - 2) * sub - totals[:, None] - totals[None, :]
        np.fill_diagonal(q, np.inf)
        a_idx, b_idx = np.unravel_index(np.argmin(q), q.shape)
        a, b = active[a_idx], active[b_idx]
        d_ab = dist[a, b]
        limb_a = 0.5 * d_ab + (totals[a_idx] - totals[b_idx]) / (2 * (m - 2))
        limb_b = d_ab - limb_a
        # New internal node u replaces a; distances via the NJ update.
        new_fragment = (
            f"({fragments[a]}{fmt(limb_a)},{fragments[b]}{fmt(limb_b)})"
        )
        for k in active:
            if k in (a, b):
                continue
            d_uk = 0.5 * (dist[a, k] + dist[b, k] - d_ab)
            dist[a, k] = dist[k, a] = max(d_uk, 0.0)
        fragments[a] = new_fragment
        active.remove(b)

    # Final three-way join (the unrooted trifurcation).
    x, y, z = active
    lx = 0.5 * (dist[x, y] + dist[x, z] - dist[y, z])
    ly = 0.5 * (dist[x, y] + dist[y, z] - dist[x, z])
    lz = 0.5 * (dist[x, z] + dist[y, z] - dist[x, y])
    newick = (
        f"({fragments[x]}{fmt(lx)},{fragments[y]}{fmt(ly)},"
        f"{fragments[z]}{fmt(lz)});"
    )
    return Tree.from_newick(newick)
