"""MGPS: dynamic multigrain parallelism scheduling (paper section 5.3).

MGPS combines EDTLP and LLP at runtime: while at least eight tasks
remain, eight workers run under EDTLP (task-level parallelism fills the
SPEs); when the outstanding-task count drops below eight, idle workers
are suspended and the remaining tasks switch to loop-level parallelism
across the freed SPEs.  The decision is made on-the-fly from the amount
of work the application exposes — the policy that produces the paper's
Table 8.

Both a discrete-event composition (:func:`simulate_mgps`) and the
closed-form composition inside
:meth:`repro.port.profilemodel.CellCostModel.mgps_total_s` are
provided; the test suite checks they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..cell.timing import CellTiming, DEFAULT_TIMING
from .edtlp import EDTLPResult, simulate_edtlp
from .llp import LLPResult, simulate_llp
from .taskmodel import CellTask

__all__ = ["MGPSPhase", "MGPSResult", "simulate_mgps", "summarize_phases"]


@dataclass(frozen=True)
class MGPSPhase:
    """One scheduling decision: a mode and the tasks it consumed."""

    mode: str  # "edtlp" | "llp"
    n_tasks: int
    duration_s: float
    detail: object  # the underlying EDTLPResult / LLPResult


@dataclass(frozen=True)
class MGPSResult:
    """Outcome of one MGPS run."""

    makespan_s: float
    phases: List[MGPSPhase]

    @property
    def edtlp_tasks(self) -> int:
        return sum(p.n_tasks for p in self.phases if p.mode == "edtlp")

    @property
    def llp_tasks(self) -> int:
        return sum(p.n_tasks for p in self.phases if p.mode == "llp")


def summarize_phases(phases: Sequence[MGPSPhase]
                     ) -> Dict[str, Dict[str, float]]:
    """Per-mode phase accounting (phase/task counts and total time).

    Shared vocabulary between the discrete-event simulation above and
    the live cluster scheduler
    (:class:`repro.cluster.scheduler.MultigrainScheduler`), whose run
    journals record this summary.
    """
    summary: Dict[str, Dict[str, float]] = {}
    for phase in phases:
        entry = summary.setdefault(
            phase.mode, {"phases": 0, "tasks": 0, "time_s": 0.0}
        )
        entry["phases"] += 1
        entry["tasks"] += phase.n_tasks
        entry["time_s"] += phase.duration_s
    return summary


def simulate_mgps(
    tasks: Sequence[CellTask],
    ppe_service_s: float,
    parallel_fraction: float,
    overhead_eta: float,
    timing: CellTiming = DEFAULT_TIMING,
) -> MGPSResult:
    """Run the MGPS policy over *tasks*.

    The scheduler inspects the remaining-task count at each phase
    boundary: >= ``n_spes`` outstanding -> an EDTLP phase of one batch
    per SPE; fewer -> an LLP phase with up to four concurrent tasks and
    ``n_spes // active`` SPEs per loop.  Phase makespans accumulate (the
    modes own disjoint hardware epochs, matching the paper's
    suspend-and-switch policy).
    """
    remaining = list(tasks)
    phases: List[MGPSPhase] = []
    total = 0.0
    n = timing.n_spes
    while remaining:
        if len(remaining) >= n:
            # Consume all full batches in one EDTLP phase.
            batch_count = (len(remaining) // n) * n
            batch, remaining = remaining[:batch_count], remaining[batch_count:]
            result = simulate_edtlp(batch, ppe_service_s, n_workers=n,
                                    timing=timing)
            phases.append(
                MGPSPhase("edtlp", len(batch), result.makespan_s, result)
            )
            total += result.makespan_s
        else:
            active = min(len(remaining), 4)
            spes_each = max(1, n // active)
            batch, remaining = remaining[:active], remaining[active:]
            result = simulate_llp(batch, parallel_fraction, overhead_eta,
                                  spes_each, timing=timing)
            phases.append(
                MGPSPhase("llp", len(batch), result.makespan_s, result)
            )
            total += result.makespan_s
    return MGPSResult(makespan_s=total, phases=phases)
