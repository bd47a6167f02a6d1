"""autoMRE-style bootstopping: stop bootstrap replicates on convergence.

RAxML's ``autoMRE`` criterion (the ab12phylo workflow runs
``--bs-trees autoMRE{1000}``) turns a fixed-size bootstrap campaign into
a converge-and-stop job: after every batch of replicates the support
values are tested for stability, and the campaign halts early once they
have converged.  This module implements that criterion for
:mod:`repro.cluster` as a *deterministic* aggregation policy:

* Convergence is evaluated only over the **contiguous prefix**
  ``[0, k)`` of bootstrap replicates, at checkpoints ``k`` that are
  multiples of ``check_every``.  Replicates land in arbitrary order
  (workers race), but the prefix is a pure function of the job spec, so
  the stop decision is independent of worker count, dispatch order, and
  retries.
* The test itself (:func:`evaluate_convergence`) is a pure function of
  ``(split sets of replicates 0..k-1, seed, k)``: the replicate indices
  are permuted ``n_permutations`` times with a seeded generator, each
  permutation is split into two halves, per-bipartition support
  frequencies are computed on both halves, and the permutation *passes*
  when the mean absolute support difference is at most ``threshold``.
  The prefix has converged when at least ``quorum`` of the permutations
  pass — the permuted-split majority-rule agreement test behind
  RAxML's autoMRE bootstopping.
* The decision is journalled (``bootstop_converged``) so an interrupted
  run resumes to a **bit-identical** result: replay truncates the
  bootstrap DAG to ``[0, stop_at)`` and discards any replicate that
  raced past the stop point before the decision was reached.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from ..phylo.tree import Tree

__all__ = [
    "BootstopConfig",
    "BootstopCheck",
    "BootstopController",
    "evaluate_convergence",
]

#: Salt mixed into the permutation seed so bootstop draws never collide
#: with the replicate-seed derivation (7919) of
#: :func:`repro.phylo.inference.bootstrap_inputs`.
_PERMUTATION_SALT = 104729

Splits = FrozenSet[FrozenSet[str]]


@dataclass(frozen=True)
class BootstopConfig:
    """Knobs of the autoMRE criterion (all influence the digest/journal).

    ``check_every`` is both the checkpoint spacing and the minimum
    replicate count before the first test; ``threshold`` is the mean
    absolute support difference a permuted half-split may show and still
    count as converged; ``quorum`` is the fraction of permutations that
    must pass.
    """

    check_every: int = 50
    n_permutations: int = 100
    threshold: float = 0.03
    quorum: float = 0.99

    def __post_init__(self):
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1: {self}")
        if self.n_permutations < 1:
            raise ValueError(f"n_permutations must be >= 1: {self}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1): {self}")
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError(f"quorum must be in (0, 1]: {self}")

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "BootstopConfig":
        return cls(**payload)


@dataclass(frozen=True)
class BootstopCheck:
    """Outcome of one convergence evaluation at prefix size ``at``."""

    at: int
    converged: bool
    #: Mean (over permutations) of the mean absolute support difference
    #: between the two permuted halves; 1.0 for degenerate prefixes.
    metric: float
    #: Fraction of permutations whose half-split difference was within
    #: the threshold.
    pass_fraction: float

    def to_json(self) -> Dict[str, object]:
        return asdict(self)


def evaluate_convergence(
    split_sets: Sequence[Splits],
    seed: int,
    config: BootstopConfig,
) -> BootstopCheck:
    """Permuted half-split support agreement over a replicate prefix.

    Pure function: the same ``split_sets`` (in replicate order), ``seed``
    and ``config`` always produce the same verdict, which is what makes
    the live stop decision reproducible on resume.  Degenerate prefixes
    (fewer than two replicates, or no non-trivial bipartitions at all)
    never converge — a single replicate carries no agreement signal.
    """
    n = len(split_sets)
    if n < 2:
        return BootstopCheck(at=n, converged=False, metric=1.0,
                             pass_fraction=0.0)
    # Canonically ordered union of bipartitions: sort each split's taxa,
    # then sort the splits, so the membership matrix layout (and hence
    # the metric arithmetic) is independent of set-iteration order.
    union: List[FrozenSet[str]] = sorted(
        {split for splits in split_sets for split in splits},
        key=lambda s: tuple(sorted(s)),
    )
    if not union:
        return BootstopCheck(at=n, converged=False, metric=1.0,
                             pass_fraction=0.0)
    membership = np.zeros((n, len(union)), dtype=np.float64)
    index = {split: j for j, split in enumerate(union)}
    for i, splits in enumerate(split_sets):
        for split in splits:
            membership[i, index[split]] = 1.0

    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _PERMUTATION_SALT, n])
    )
    half = n // 2
    distances = np.empty(config.n_permutations, dtype=np.float64)
    for p in range(config.n_permutations):
        order = rng.permutation(n)
        first = membership[order[:half]].mean(axis=0)
        second = membership[order[half:2 * half]].mean(axis=0)
        distances[p] = np.abs(first - second).mean()
    passed = distances <= config.threshold
    pass_fraction = float(passed.mean())
    return BootstopCheck(
        at=n,
        converged=pass_fraction >= config.quorum,
        metric=float(distances.mean()),
        pass_fraction=pass_fraction,
    )


def newick_splits(newick: str) -> Splits:
    """The canonical non-trivial bipartition set of one replicate tree."""
    return frozenset(Tree.from_newick(newick).bipartitions())


class BootstopController:
    """Master-side bookkeeping: prefix tracking and checkpoint firing.

    The controller never looks at the clock or the arrival order: it
    records each bootstrap replicate's bipartitions by replicate index
    and, on :meth:`poll`, walks the checkpoint ladder (``check_every``,
    ``2*check_every``, ...) in order, evaluating each checkpoint exactly
    once as soon as its prefix is complete.  ``poll`` returns the
    :class:`BootstopCheck` that converged (at most once); afterwards
    :attr:`stopped_at` holds the stop point.
    """

    def __init__(self, config: BootstopConfig, n_requested: int, seed: int):
        self.config = config
        self.n_requested = n_requested
        self.seed = seed
        self.stopped_at: Optional[int] = None
        self.last_check: Optional[BootstopCheck] = None
        self._splits: Dict[int, Splits] = {}
        self._next_checkpoint = config.check_every
        # Contiguity watermark: replicates [0, _contiguous) are all
        # recorded.  Advanced incrementally on every note(), so the
        # per-replicate prefix test is O(1) amortized instead of the
        # O(k) rescan that made thousand-replicate campaigns pay O(R^2)
        # in support bookkeeping.
        self._contiguous = 0

    def note(self, replicate: int, newick: str) -> None:
        """Record one finished bootstrap replicate's bipartitions."""
        if replicate not in self._splits:
            self._splits[replicate] = newick_splits(newick)
            while self._contiguous in self._splits:
                self._contiguous += 1

    def restore(self, stop_at: int) -> None:
        """Adopt a journalled stop decision (resume past the boundary)."""
        self.stopped_at = stop_at

    def _prefix_complete(self, k: int) -> bool:
        return k <= self._contiguous

    def poll(self) -> Optional[BootstopCheck]:
        """Evaluate any newly completed checkpoints; return a stop verdict.

        Checkpoints strictly below ``n_requested`` are eligible (at
        ``k == n_requested`` there is nothing left to cancel).  Returns
        the converged :class:`BootstopCheck` once, on the poll that
        decides to stop; ``None`` otherwise.
        """
        if self.stopped_at is not None:
            return None
        while (self._next_checkpoint < self.n_requested
               and self._prefix_complete(self._next_checkpoint)):
            k = self._next_checkpoint
            self._next_checkpoint += self.config.check_every
            ordered = [self._splits[r] for r in range(k)]
            check = evaluate_convergence(ordered, self.seed, self.config)
            self.last_check = check
            if check.converged:
                self.stopped_at = k
                return check
        return None
