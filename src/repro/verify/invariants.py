"""Metamorphic invariants of the phylogenetic likelihood.

Each check exercises an algebraic property that must hold no matter how
the likelihood is implemented, so they catch bugs a differential diff
cannot (both engines wrong the same way):

* **Re-rooting (pulley principle)** — for a reversible model the tree
  likelihood is the same no matter which branch ``evaluate()`` is
  computed at.
* **Site permutation** — shuffling alignment columns permutes nothing
  after pattern compression (``unique_columns`` canonicalizes column order),
  so the log likelihood must be *bit-for-bit* identical.
* **Taxon permutation** — reordering alignment rows only reorders the
  canonical patterns, changing summation order; likelihoods must agree
  to round-off.
* **Pattern compression** — scoring the compressed patterns must equal
  scoring every site as its own weight-1 pattern.
* **SPR round trip** — applying an SPR move and reverting it must
  restore the topology, every branch length, and the log likelihood
  bit-for-bit (the contract bit-identical cluster resume relies on).
* **JC69 two-taxon closed form** — the one case with a textbook
  analytic answer: ``P(same) = 1/4 + 3/4 e^{-4t/3}``.

Checks raise :class:`InvariantViolation` (an ``AssertionError``) with a
diagnostic message and otherwise return the largest divergence they
observed, so tests can additionally assert tightness.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple, Type

import numpy as np

from ..phylo.alignment import Alignment, PatternAlignment, alphabet_for
from ..phylo.engine import LikelihoodEngine
from ..phylo.models import SubstitutionModel
from ..phylo.rates import RateModel
from ..phylo.search import _apply_spr, _revert_spr, spr_neighborhood
from ..phylo.tree import Tree

__all__ = [
    "InvariantViolation",
    "fault_recovery_invariance",
    "jc69_two_taxon_closed_form",
    "pattern_compression_invariance",
    "rerooting_invariance",
    "site_permutation_invariance",
    "spr_roundtrip_invariance",
    "taxon_permutation_invariance",
    "two_taxon_tree",
]


class InvariantViolation(AssertionError):
    """A metamorphic property of the likelihood failed to hold."""


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _carried(rate_model: Optional[RateModel], source: PatternAlignment,
             target: PatternAlignment) -> Optional[RateModel]:
    """*rate_model* for *target*, a re-derived pattern set of *source*'s
    sites: a CAT assignment is carried site by site (``site_to_pattern``
    of both); other rate models apply as they are."""
    if rate_model is None or not rate_model.is_per_site:
        return rate_model
    categories = np.empty(target.n_patterns, dtype=np.intp)
    categories[target.site_to_pattern] = \
        rate_model.site_categories[source.site_to_pattern]
    return dataclasses.replace(rate_model, site_categories=categories)


# -- re-rooting (pulley principle) ------------------------------------------


def rerooting_invariance(engine, rel_tol: float = 1e-9) -> float:
    """``evaluate(branch)`` must agree at **every** branch of the tree.

    *engine* is anything exposing ``tree`` and ``evaluate(branch)`` —
    the fast engine or the oracle.  Returns the maximum relative spread.
    """
    branches = engine.tree.branches
    values = [(b.index, engine.evaluate(b)) for b in branches]
    reference_id, reference = values[0]
    worst = 0.0
    for branch_id, value in values[1:]:
        diff = _rel_diff(value, reference)
        worst = max(worst, diff)
        if diff > rel_tol:
            raise InvariantViolation(
                f"pulley principle violated: lnL at branch {branch_id} is "
                f"{value!r} but branch {reference_id} gave {reference!r} "
                f"(rel diff {diff:.3e} > {rel_tol:g})"
            )
    return worst


# -- fault-recovery invariance (chaos transparency) --------------------------


def fault_recovery_invariance(
    sequences: Dict[str, str],
    model: SubstitutionModel,
    rate_model: Optional[RateModel],
    rng: np.random.Generator,
    backend=None,
) -> float:
    """A recovered transient fault must leave the lnL bit-identical.

    Evaluates the same (alignment, tree, model) twice on the fast
    engine: once cleanly, once under a :mod:`repro.chaos` plan that
    poisons the first freshly computed CLV with NaN.  The degradation
    ladder must detect the poison, drop every cache, recompute, and
    return the *exact* clean bits — the metamorphic face of the chaos
    campaign's ``survived_identical`` contract.  Returns the absolute
    difference (asserted to be 0.0).
    """
    from ..chaos import FaultPlan, FaultSpec, inject
    from ..chaos.plan import ENGINE_CLV_POISON

    patterns = Alignment.from_sequences(sequences).compress()
    tree = Tree.from_tip_names(patterns.taxa, rng)
    clean = _engine_loglik(
        patterns, model, rate_model, tree, LikelihoodEngine, backend
    )
    plan = FaultPlan(
        seed=0,
        specs=(FaultSpec(ENGINE_CLV_POISON, trigger_at=(0,), value="nan"),),
    )
    kwargs = {} if backend is None else {"backend": backend}
    engine = LikelihoodEngine(patterns, model, rate_model, tree, **kwargs)
    try:
        with inject(plan) as injector:
            recovered = engine.evaluate(tree.branches[0])
        if not injector.fired.get(ENGINE_CLV_POISON):
            raise InvariantViolation(
                "fault_recovery_invariance is vacuous: the CLV-poison "
                "fault never fired (no newview was computed?)"
            )
        if engine.fault_recoveries < 1:
            raise InvariantViolation(
                "the poisoned CLV was never detected: the guard did not "
                "record a recovery"
            )
    finally:
        engine.detach()
    if recovered != clean:
        raise InvariantViolation(
            f"fault recovery changed the lnL bit pattern: clean "
            f"{clean!r} vs recovered {recovered!r}"
        )
    return abs(recovered - clean)


# -- permutation and compression invariances --------------------------------


def _engine_loglik(
    patterns: PatternAlignment,
    model: SubstitutionModel,
    rate_model: Optional[RateModel],
    tree: Tree,
    engine_cls: Type = LikelihoodEngine,
    backend=None,
) -> float:
    # backend=None keeps engine classes without a backend parameter
    # (e.g. the oracle, which hard-wires "reference") constructible.
    kwargs = {} if backend is None else {"backend": backend}
    engine = engine_cls(patterns, model, rate_model, tree, **kwargs)
    try:
        return engine.evaluate(tree.branches[0])
    finally:
        if hasattr(engine, "detach"):
            engine.detach()


def site_permutation_invariance(
    sequences: Dict[str, str],
    model: SubstitutionModel,
    rate_model: Optional[RateModel],
    rng: np.random.Generator,
    engine_cls: Type = LikelihoodEngine,
    backend=None,
) -> float:
    """Shuffling columns must leave the compressed lnL bit-identical.

    ``Alignment.compress`` canonicalizes pattern order via ``unique_columns``,
    so a column shuffle produces the *same* compressed instance and the
    engine must return the exact same float.  Returns the absolute
    difference (asserted to be 0.0).
    """
    alignment = Alignment.from_sequences(sequences)
    permutation = rng.permutation(alignment.n_sites)
    shuffled = Alignment(alignment.taxa, alignment.data[:, permutation])

    base = alignment.compress()
    other = shuffled.compress()
    if not np.array_equal(base.patterns, other.patterns) or not np.array_equal(
        base.weights, other.weights
    ):
        raise InvariantViolation(
            "pattern compression is not canonical: a column shuffle "
            "changed the (patterns, weights) pair"
        )

    tree = Tree.from_tip_names(base.taxa, rng)
    lnl_base = _engine_loglik(base, model, rate_model, tree, engine_cls, backend)
    lnl_other = _engine_loglik(other, model, rate_model, tree, engine_cls, backend)
    if lnl_base != lnl_other:
        raise InvariantViolation(
            f"site permutation changed the lnL bit pattern: "
            f"{lnl_base!r} vs {lnl_other!r}"
        )
    return abs(lnl_base - lnl_other)


def taxon_permutation_invariance(
    sequences: Dict[str, str],
    model: SubstitutionModel,
    rate_model: Optional[RateModel],
    rng: np.random.Generator,
    rel_tol: float = 1e-9,
    engine_cls: Type = LikelihoodEngine,
    backend=None,
) -> float:
    """Reordering alignment rows must not change the likelihood.

    Row order changes the canonical pattern *order* (``unique_columns`` sorts
    lexicographically by row), so sums accumulate in a different order —
    agreement is to round-off, not bit-for-bit.  A CAT *rate_model*
    assigns the patterns of the alignment as given; the reordered one's
    patterns get the same sites' categories.  Returns the relative
    difference.
    """
    names = list(sequences)
    shuffled_names = list(names)
    rng.shuffle(shuffled_names)
    reordered = {name: sequences[name] for name in shuffled_names}

    base = Alignment.from_sequences(sequences).compress()
    other = Alignment.from_sequences(reordered).compress()
    tree = Tree.from_tip_names(sorted(names), rng)

    lnl_base = _engine_loglik(base, model, rate_model, tree, engine_cls, backend)
    lnl_other = _engine_loglik(other, model, _carried(rate_model, base, other),
                               tree, engine_cls, backend)
    diff = _rel_diff(lnl_base, lnl_other)
    if diff > rel_tol:
        raise InvariantViolation(
            f"taxon permutation changed the lnL: {lnl_base!r} vs "
            f"{lnl_other!r} (rel diff {diff:.3e} > {rel_tol:g})"
        )
    return diff


def pattern_compression_invariance(
    sequences: Dict[str, str],
    model: SubstitutionModel,
    rate_model: Optional[RateModel],
    rng: np.random.Generator,
    rel_tol: float = 1e-9,
    engine_cls: Type = LikelihoodEngine,
    backend=None,
) -> float:
    """Compressed patterns must score like one weight-1 pattern per site.

    Builds an *uncompressed* :class:`PatternAlignment` (every column its
    own pattern, weight 1, duplicates retained, in the source's
    alphabet: the *model*'s state count picks DNA or amino acids) and
    compares; a CAT *rate_model* assigns the compressed patterns, and
    each site takes its pattern's category.  Returns the relative
    difference.
    """
    alignment = Alignment.from_sequences(sequences,
                                         alphabet_for(model.n_states))
    compressed = alignment.compress()
    uncompressed = PatternAlignment(
        taxa=list(alignment.taxa),
        patterns=np.ascontiguousarray(alignment.data),
        weights=np.ones(alignment.n_sites),
        site_to_pattern=np.arange(alignment.n_sites, dtype=np.intp),
        n_sites=alignment.n_sites,
        alphabet=alignment.alphabet,
    )
    tree = Tree.from_tip_names(compressed.taxa, rng)
    lnl_compressed = _engine_loglik(
        compressed, model, rate_model, tree, engine_cls, backend
    )
    lnl_full = _engine_loglik(
        uncompressed, model, _carried(rate_model, compressed, uncompressed),
        tree, engine_cls, backend
    )
    diff = _rel_diff(lnl_compressed, lnl_full)
    if diff > rel_tol:
        raise InvariantViolation(
            f"pattern compression changed the lnL: compressed "
            f"{lnl_compressed!r} vs per-site {lnl_full!r} "
            f"(rel diff {diff:.3e} > {rel_tol:g})"
        )
    return diff


# -- SPR round trip ---------------------------------------------------------


def spr_roundtrip_invariance(
    engine: LikelihoodEngine, rng: np.random.Generator, radius: int = 2
) -> Tuple[float, float]:
    """Apply one SPR move, revert it, and demand exact restoration.

    The reverted tree must have the original bipartitions, the original
    multiset of branch lengths, and — because the engine recomputes the
    dirtied CLVs through the very same kernels on the very same inputs —
    the *bit-for-bit* original log likelihood.  Evaluation happens at a
    branch untouched by the move so the before/after computation is
    anchored identically.

    Returns ``(lnl_before, lnl_moved)``; raises if no valid move exists.
    """
    tree = engine.tree
    moves = []
    for prune_branch in tree.branches:
        for keep_side in prune_branch.nodes:
            if keep_side.is_tip:
                continue
            targets = spr_neighborhood(tree, prune_branch, keep_side, radius)
            for target in targets:
                moves.append((prune_branch, keep_side, target))
    if not moves:
        raise InvariantViolation("tree admits no SPR move to round-trip")
    prune_branch, keep_side, target = moves[int(rng.integers(len(moves)))]

    # Anchor the evaluation at a branch both the apply and the revert
    # leave alone: the move retires the pruned branch, the junction's two
    # other branches, and the target.
    touched = {prune_branch.index, target.index}
    touched.update(b.index for b in keep_side.branches)
    anchor = next(
        (b for b in tree.branches if b.index not in touched), None
    )
    if anchor is None:
        raise InvariantViolation("no move-independent anchor branch found")

    bipartitions_before = tree.bipartitions()
    lengths_before = sorted(b.length for b in tree.branches)
    lnl_before = engine.evaluate(anchor)

    move = _apply_spr(tree, prune_branch, keep_side, target)
    lnl_moved = engine.evaluate(anchor)
    _revert_spr(tree, move)
    tree.validate()

    if tree.bipartitions() != bipartitions_before:
        raise InvariantViolation("SPR revert did not restore the topology")
    lengths_after = sorted(b.length for b in tree.branches)
    if lengths_after != lengths_before:
        raise InvariantViolation(
            "SPR revert did not restore the branch-length multiset"
        )
    lnl_after = engine.evaluate(anchor)
    if lnl_after != lnl_before:
        raise InvariantViolation(
            f"SPR round trip drifted the lnL bit pattern: "
            f"{lnl_before!r} -> {lnl_after!r}"
        )
    return lnl_before, lnl_moved


# -- JC69 two-taxon closed form ---------------------------------------------


def two_taxon_tree(name_a: str, name_b: str, length: float) -> Tree:
    """The degenerate two-tip tree: one branch of the given length.

    ``Tree.from_tip_names`` refuses n < 3, so this builds the graph by
    hand — the only shape with a textbook closed-form JC69 likelihood.
    """
    tree = Tree()
    a = tree._new_node(name_a)
    b = tree._new_node(name_b)
    tree._new_branch(a, b, length)
    tree.validate()
    return tree


def jc69_two_taxon_closed_form(length: float, n_same: int, n_diff: int) -> float:
    """Analytic JC69 lnL for two sequences at branch length *length*.

    With the rate-normalized JC69 generator (1 expected substitution per
    unit time), ``P(same, t) = 1/4 + 3/4 e^{-4t/3}`` and
    ``P(diff, t) = 1/4 - 1/4 e^{-4t/3}``; each matching site contributes
    ``log(pi * P(same))`` and each mismatching site ``log(pi * P(diff))``
    with ``pi = 1/4``.
    """
    decay = math.exp(-4.0 * length / 3.0)
    p_same = 0.25 + 0.75 * decay
    p_diff = 0.25 - 0.25 * decay
    return n_same * math.log(0.25 * p_same) + n_diff * math.log(0.25 * p_diff)
