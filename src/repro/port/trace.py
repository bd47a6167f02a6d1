"""Workload tracing: recording the kernel-call mix of a real search.

The paper's porting effort started from a gprof profile: 98.77 % of
RAxML's time in ``newview()`` (76.8 %), ``makenewz()`` (19.16 %) and
``evaluate()`` (2.37 %); 230,500 ``newview()`` invocations at 71 µs
average for one ``42_SC`` run.  This module plays the role of that
profiler for the reproduction: a :class:`Tracer` attached to the
likelihood engine records every kernel invocation with the parameters a
Cell port's cost depends on (pattern count, category count, case,
Newton iterations, nesting).  A :class:`TraceSummary` aggregates a trace
into the per-task workload descriptor that
:mod:`repro.port.profilemodel` prices on each platform.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from ..phylo import kernels as _k
from ..phylo.engine import NewviewCase

__all__ = ["KernelEvent", "Tracer", "TraceSummary", "NESTED_TOP"]

#: Marker for events not nested inside a makenewz/evaluate offload unit.
NESTED_TOP = "top"


@dataclass(frozen=True)
class KernelEvent:
    """One recorded kernel invocation."""

    kernel: str  # "newview" | "makenewz" | "evaluate"
    n_patterns: int
    n_cats: int
    case: str = ""  # newview only: one of NewviewCase
    iterations: int = 0  # makenewz only: Newton iterations
    scaled: int = 0  # newview only: patterns rescaled
    context: str = NESTED_TOP  # enclosing offload unit


class Tracer:
    """Engine-attachable recorder implementing the tracer protocol.

    The likelihood engine calls :meth:`record_newview`,
    :meth:`record_evaluate` and :meth:`record_makenewz`; the tracer also
    tracks the *enclosing* top-level operation so the executor can tell
    which ``newview`` calls would be nested inside an offloaded
    ``makenewz``/``evaluate`` (and therefore free of PPE<->SPE
    communication once all three functions live on the SPE — paper
    section 5.2.7).
    """

    def __init__(self, keep_events: bool = False):
        self.keep_events = keep_events
        self.events: List[KernelEvent] = []
        self._context = NESTED_TOP
        # Aggregates, updated incrementally (traces can be millions of
        # events; storing them all is opt-in).
        self.newview_count = 0
        self.newview_nested_count = 0
        self.newview_case_counts: Counter = Counter()
        self.newview_patterncats = 0.0  # sum of n_patterns * n_cats
        self.newview_scaled_patterns = 0
        self.makenewz_count = 0
        self.makenewz_iterations = 0
        self.makenewz_patterncats = 0.0  # sum over iterations
        self.evaluate_count = 0
        self.evaluate_patterncats = 0.0
        #: callables returning engine perf-counter dicts (cache/arena
        #: efficiency); registered by the likelihood engine.
        self.counter_sources: List = []

    # -- context management (called by the engine wrapper) --------------------

    def push_context(self, name: str) -> str:
        previous = self._context
        self._context = name
        return previous

    def pop_context(self, previous: str) -> None:
        self._context = previous

    # -- recording protocol -------------------------------------------------------

    def record_newview(self, case: str, n_patterns: int, n_cats: int,
                       scaled: int) -> None:
        self.newview_count += 1
        self.newview_case_counts[case] += 1
        self.newview_patterncats += n_patterns * n_cats
        self.newview_scaled_patterns += scaled
        if self._context != NESTED_TOP:
            self.newview_nested_count += 1
        if self.keep_events:
            self.events.append(
                KernelEvent("newview", n_patterns, n_cats, case=case,
                            scaled=scaled, context=self._context)
            )

    def record_evaluate(self, n_patterns: int, n_cats: int) -> None:
        self.evaluate_count += 1
        self.evaluate_patterncats += n_patterns * n_cats
        if self.keep_events:
            self.events.append(
                KernelEvent("evaluate", n_patterns, n_cats,
                            context=self._context)
            )

    def record_makenewz(self, n_patterns: int, n_cats: int,
                        iterations: int) -> None:
        self.makenewz_count += 1
        self.makenewz_iterations += iterations
        self.makenewz_patterncats += n_patterns * n_cats * max(iterations, 1)
        if self.keep_events:
            self.events.append(
                KernelEvent("makenewz", n_patterns, n_cats,
                            iterations=iterations, context=self._context)
            )

    # -- engine perf counters -------------------------------------------------

    def add_counter_source(self, source) -> None:
        """Register a zero-arg callable returning a perf-counter dict."""
        self.counter_sources.append(source)

    def perf_counters(self) -> Dict[str, int]:
        """Merged engine counters (summed across registered sources)."""
        merged: Dict[str, int] = {}
        for source in self.counter_sources:
            for key, value in source().items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def summary(self) -> "TraceSummary":
        return TraceSummary.from_tracer(self)


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate workload of one task (one tree search).

    All quantities are *per task*; the executor multiplies by the number
    of bootstraps/inferences in an experiment.
    """

    newview_count: int
    newview_nested_count: int
    newview_patterncats: float
    newview_case_counts: Dict[str, int]
    newview_scaled_patterns: int
    makenewz_count: int
    makenewz_iterations: int
    makenewz_patterncats: float
    evaluate_count: int
    evaluate_patterncats: float

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceSummary":
        return cls(
            newview_count=tracer.newview_count,
            newview_nested_count=tracer.newview_nested_count,
            newview_patterncats=tracer.newview_patterncats,
            newview_case_counts=dict(tracer.newview_case_counts),
            newview_scaled_patterns=tracer.newview_scaled_patterns,
            makenewz_count=tracer.makenewz_count,
            makenewz_iterations=tracer.makenewz_iterations,
            makenewz_patterncats=tracer.makenewz_patterncats,
            evaluate_count=tracer.evaluate_count,
            evaluate_patterncats=tracer.evaluate_patterncats,
        )

    # -- derived quantities --------------------------------------------------

    @property
    def newview_toplevel_count(self) -> int:
        return self.newview_count - self.newview_nested_count

    @property
    def mean_newview_patterncats(self) -> float:
        if self.newview_count == 0:
            return 0.0
        return self.newview_patterncats / self.newview_count

    @property
    def mean_makenewz_iterations(self) -> float:
        if self.makenewz_count == 0:
            return 0.0
        return self.makenewz_iterations / self.makenewz_count

    def offload_count(self, offload_all: bool) -> int:
        """PPE->SPE dispatches per task under an offloading regime.

        With only ``newview`` offloaded, every invocation is a round
        trip.  With all three functions resident on the SPE, nested
        ``newview`` calls stay on-chip and only top-level operations
        cross the PPE/SPE boundary (paper section 5.2.7).
        """
        if not offload_all:
            return self.newview_count
        return (
            self.newview_toplevel_count
            + self.makenewz_count
            + self.evaluate_count
        )

    def tip_case_fraction(self) -> float:
        """Fraction of newview calls hitting a specialized tip case."""
        if self.newview_count == 0:
            return 0.0
        inner = self.newview_case_counts.get(NewviewCase.INNER_INNER, 0)
        return 1.0 - inner / self.newview_count

    def paper_equivalent_flops(self, vectorized: bool = False) -> float:
        """Total DP FLOPs under the paper's per-iteration counts.

        Uses 44 (scalar) / 22 (SIMD) FLOPs per large-loop iteration and
        36 / 24 per small-loop iteration (paper section 5.2.5); the
        large-loop trip count is ``n_patterns`` per category.
        """
        large = (
            _k.FLOPS_LARGE_LOOP_VECTOR if vectorized else _k.FLOPS_LARGE_LOOP_SCALAR
        )
        small = (
            _k.FLOPS_SMALL_LOOP_VECTOR if vectorized else _k.FLOPS_SMALL_LOOP_SCALAR
        )
        total_patterncats = (
            self.newview_patterncats
            + self.makenewz_patterncats
            + self.evaluate_patterncats
        )
        # Small loop runs once per kernel call per category; approximate
        # categories from the patterncats ratio.
        calls = self.newview_count + self.makenewz_count + self.evaluate_count
        return total_patterncats * large + calls * 4 * small

    def scale(self, factor: float) -> "TraceSummary":
        """A summary for a workload *factor* times this one (the paper's
        full-effort search vs. the reproduction's reduced-effort one)."""
        return TraceSummary(
            newview_count=int(round(self.newview_count * factor)),
            newview_nested_count=int(round(self.newview_nested_count * factor)),
            newview_patterncats=self.newview_patterncats * factor,
            newview_case_counts={
                k: int(round(v * factor))
                for k, v in self.newview_case_counts.items()
            },
            newview_scaled_patterns=int(round(self.newview_scaled_patterns * factor)),
            makenewz_count=int(round(self.makenewz_count * factor)),
            makenewz_iterations=int(round(self.makenewz_iterations * factor)),
            makenewz_patterncats=self.makenewz_patterncats * factor,
            evaluate_count=int(round(self.evaluate_count * factor)),
            evaluate_patterncats=self.evaluate_patterncats * factor,
        )
