"""Streaming result aggregation: best tree, supports, consensus.

Results land in arbitrary order (workers race), but the aggregate is
order-independent: the running best tree uses a deterministic tie-break
(higher likelihood, then lower replicate - the serial ``max`` picks the
first maximal element, i.e. the lowest replicate), and bipartition
counts are commutative.  Partial results are therefore servable at any
time: ``supports()`` and ``consensus()`` are valid over whatever subset
of replicates has landed so far, and converge to the exact serial
values (:func:`repro.phylo.inference.support_values`) once every
replicate is in.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..phylo.inference import AnalysisResult, InferenceResult, assemble_analysis
from ..phylo.tree import Tree
from .jobs import validate_payload

__all__ = [
    "StreamingAggregator",
    "consensus_newick",
    "merge_perf_counters",
]


def merge_perf_counters(counter_dicts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-task engine counters (PR 1's cache/arena statistics)."""
    totals: Dict[str, int] = {}
    for counters in counter_dicts:
        for name, value in (counters or {}).items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals


def consensus_newick(taxa: Iterable[str],
                     splits: Iterable[FrozenSet[str]]) -> str:
    """Render compatible splits as a Newick consensus tree.

    *splits* use the canonical form of :meth:`Tree.bipartitions` (the
    side not containing the lexicographically smallest taxon).
    Majority-rule splits are pairwise compatible by construction, so
    they nest: any two are disjoint or one contains the other.
    """
    leaves = sorted(set(taxa))
    clusters = [frozenset(s) for s in splits]

    def render(members: FrozenSet[str], inner: List[FrozenSet[str]]) -> str:
        maximal = [c for c in inner if not any(c < d for d in inner)]
        parts: List[Tuple[str, str]] = []  # (sort key, rendered)
        covered: set = set()
        for cluster in maximal:
            nested = [d for d in inner if d < cluster]
            parts.append((min(cluster), render(cluster, nested)))
            covered |= cluster
        for leaf in members - covered:
            parts.append((leaf, leaf))
        rendered = ",".join(text for _, text in sorted(parts))
        return f"({rendered})"

    return render(frozenset(leaves), clusters) + ";"


class StreamingAggregator:
    """Incremental best-tree tracking and bootstrap consensus.

    ``ingest`` is idempotent per ``(kind, replicate)`` - retried tasks
    and resumed journals may deliver a replicate more than once, always
    with an identical payload.
    """

    def __init__(self):
        self._inferences: Dict[int, dict] = {}
        self._bootstraps: Dict[int, dict] = {}
        self._split_counts: Counter = Counter()
        self.best: Optional[dict] = None

    # -- ingestion ----------------------------------------------------------

    def ingest(self, payload: dict) -> bool:
        """Fold one replicate result in; returns False for duplicates.

        Payloads are shape-checked first (they crossed a process
        boundary and possibly a disk round trip); a malformed payload —
        including a Newick string that fails to parse — raises
        ``ValueError`` with context instead of corrupting the running
        consensus counts.  Journal replay filters such records out
        before they reach here (:func:`repro.cluster.checkpoint.replay`
        counts them as ``corrupt_records``).
        """
        try:
            validate_payload(payload)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed result payload: {exc}") from exc
        replicate = payload["replicate"]
        if payload.get("is_bootstrap"):
            if replicate in self._bootstraps:
                return False
            try:
                tree = Tree.from_newick(payload["newick"])
            except Exception as exc:
                raise ValueError(
                    f"malformed result payload: unparseable newick for "
                    f"bootstrap replicate {replicate}: {exc}"
                ) from exc
            self._bootstraps[replicate] = payload
            self._split_counts.update(tree.bipartitions())
        else:
            if replicate in self._inferences:
                return False
            self._inferences[replicate] = payload
            if self.best is None or (
                payload["log_likelihood"], -replicate
            ) > (self.best["log_likelihood"], -self.best["replicate"]):
                self.best = payload
        return True

    def truncate_bootstraps(self, stop_at: int) -> int:
        """Drop bootstrap replicates ``>= stop_at`` (autoMRE bootstop).

        When the bootstopping policy halts a run at prefix ``[0, k)``,
        replicates past ``k`` that raced ahead of the decision must be
        excluded so the final aggregate is a pure function of the stop
        point, not of worker timing.  Split counts are decremented
        exactly; returns the number of replicates removed.
        """
        extra = [r for r in self._bootstraps if r >= stop_at]
        for replicate in extra:
            tree = Tree.from_newick(self._bootstraps.pop(replicate)["newick"])
            self._split_counts.subtract(tree.bipartitions())
        # Counter.subtract keeps zero entries; purge them so iteration
        # over _split_counts never sees phantom splits.
        for split in [s for s, c in self._split_counts.items() if c <= 0]:
            del self._split_counts[split]
        return len(extra)

    # -- live views ---------------------------------------------------------

    @property
    def n_inferences(self) -> int:
        return len(self._inferences)

    @property
    def n_bootstraps(self) -> int:
        return len(self._bootstraps)

    def supports(self) -> Dict[FrozenSet[str], float]:
        """Bootstrap support for the *current* best tree's splits.

        Exactly :func:`repro.phylo.inference.support_values` over the
        replicates seen so far: the same integer hit counts divided by
        the same replicate count gives identical floats.
        """
        if self.best is None:
            return {}
        best_tree = Tree.from_newick(self.best["newick"])
        n = len(self._bootstraps)
        return {
            split: (self._split_counts.get(split, 0) / n) if n else 0.0
            for split in best_tree.bipartitions()
        }

    def consensus(self, threshold: float = 0.5
                  ) -> Tuple[Dict[FrozenSet[str], float], Optional[str]]:
        """Majority-rule consensus over the bootstrap replicates so far.

        Returns ``(split -> support, newick)``; the tree is ``None``
        until at least one bootstrap has landed.  The default strict
        majority (> 1/2) guarantees the splits are compatible.
        """
        n = len(self._bootstraps)
        if not n:
            return {}, None
        majority = {
            split: count / n
            for split, count in self._split_counts.items()
            if count / n > threshold
        }
        taxa = Tree.from_newick(
            next(iter(self._bootstraps.values()))["newick"]
        ).tip_names()
        return majority, consensus_newick(taxa, majority)

    # -- final assembly -----------------------------------------------------

    def payloads(self) -> Dict[Tuple[str, int], dict]:
        merged: Dict[Tuple[str, int], dict] = {}
        for r, p in self._inferences.items():
            merged[("inference", r)] = p
        for r, p in self._bootstraps.items():
            merged[("bootstrap", r)] = p
        return merged

    def analysis(self) -> AnalysisResult:
        """The exact serial :class:`AnalysisResult` from the payloads.

        Replicate-ordered assembly through
        :func:`~repro.phylo.inference.assemble_analysis` guarantees the
        same best-tie-break and the same support floats as
        ``run_full_analysis`` on one core.
        """
        inferences = [
            _to_result(self._inferences[r]) for r in sorted(self._inferences)
        ]
        bootstraps = [
            _to_result(self._bootstraps[r]) for r in sorted(self._bootstraps)
        ]
        return assemble_analysis(inferences, bootstraps)

    def perf_totals(self) -> Dict[str, int]:
        return merge_perf_counters(
            p.get("perf") or {} for p in self.payloads().values()
        )


def _to_result(payload: dict) -> InferenceResult:
    return InferenceResult(
        newick=payload["newick"],
        log_likelihood=payload["log_likelihood"],
        search=None,
        newview_calls=payload.get("newview_calls", 0),
        makenewz_calls=payload.get("makenewz_calls", 0),
        evaluate_calls=payload.get("evaluate_calls", 0),
        is_bootstrap=bool(payload.get("is_bootstrap")),
        replicate=payload["replicate"],
        perf=payload.get("perf") or {},
    )
