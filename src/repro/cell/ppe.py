"""Power Processing Element: the dual-SMT front-end core.

The PPE is a two-way SMT PowerPC core (paper section 4) that runs Linux,
hosts the MPI processes, and drives function offloading.  Two effects of
the paper's evaluation live here:

* **SMT contention** — two busy hardware threads each run slower than a
  lone thread.  The slowdown factor is calibrated from Table 1a (see
  :class:`~repro.cell.timing.CellTiming.ppe_smt_slowdown`): with the
  whole application on the PPE, 2 workers x 4 bootstraps take 207.67 s
  against 4 x 36.9 s of single-worker time.
* **Context switches** — the EDTLP scheduler oversubscribes the PPE with
  up to eight MPI processes and switches on every offload (paper
  section 5.3); each switch costs
  :attr:`~repro.cell.timing.CellTiming.context_switch_s`.
"""

from __future__ import annotations

from typing import Generator, Optional

from .devsim import Release, Request, Resource, Simulator, Timeout
from .timing import CellTiming, DEFAULT_TIMING

__all__ = ["PPE"]


class PPE:
    """The dual-SMT PPE with contention-aware compute accounting."""

    def __init__(self, sim: Simulator, timing: CellTiming = DEFAULT_TIMING):
        self.sim = sim
        self.timing = timing
        self._threads: Resource = sim.resource(
            timing.ppe_smt_threads, name="ppe-threads"
        )
        self.busy_time = 0.0
        self.context_switches = 0
        #: (start, end, label) spans for timeline rendering (capped).
        self.spans = []
        self.max_spans = 40_000

    def compute(self, duration: float) -> Generator:
        """Process-generator: occupy one SMT thread for *duration* work.

        The wall-clock time charged is ``duration`` when this is the only
        busy hardware thread and ``duration * ppe_smt_slowdown`` when the
        sibling thread is busy too.  Occupancy is sampled when the work
        starts (a documented approximation: RAxML's PPE bursts are short
        relative to scheduling epochs).
        """
        if duration < 0:
            raise ValueError("negative compute duration")
        yield Request(self._threads)
        contended = self._threads.in_use >= 2
        factor = self.timing.ppe_smt_slowdown if contended else 1.0
        start = self.sim.now
        yield Timeout(duration * factor)
        self.busy_time += self.sim.now - start
        if len(self.spans) < self.max_spans:
            self.spans.append((start, self.sim.now, "compute"))
        yield Release(self._threads)

    def context_switch(self) -> Generator:
        """Process-generator: one process context switch on a thread."""
        self.context_switches += 1
        yield from self.compute(self.timing.context_switch_s)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        elapsed = self.sim.now if elapsed is None else elapsed
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.timing.ppe_smt_threads)
