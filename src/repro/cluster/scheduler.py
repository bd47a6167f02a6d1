"""MGPS-inspired multigrain dispatch policy for the live cluster.

The simulated scheduler (:mod:`repro.sched.mgps`) switches the modelled
SPEs between task-level (EDTLP) and loop-level (LLP) parallelism based
on how much task-level work remains.  The live cluster reuses that
policy and its phase-accounting vocabulary: while at least as many
tasks as workers are outstanding, workers consume *coarse* tasks
(bootstrap batches - the EDTLP grain); when the outstanding-task count
drops below the worker count, remaining batches are split into
single-replicate *fine* tasks so idle workers can help finish the tail
(the LLP grain).

Phases are recorded as :class:`repro.sched.mgps.MGPSPhase` records with
the same mode strings (``"edtlp"`` / ``"llp"``), and summarized with
:func:`repro.sched.mgps.summarize_phases` into the run journal.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..sched.mgps import MGPSPhase
from .jobs import PendingTask

__all__ = ["MultigrainScheduler"]

COARSE = "edtlp"
FINE = "llp"


class MultigrainScheduler:
    """Decides task granularity and accounts for scheduling phases."""

    def __init__(self, n_workers: int):
        self.n_workers = max(1, n_workers)
        self.splits = 0
        self._phases: List[MGPSPhase] = []
        self._mode: Optional[str] = None
        self._phase_started = 0.0
        self._phase_tasks = 0
        self._phase_splits = 0

    def plan(self, pending: List[PendingTask], now: Optional[float] = None
             ) -> List[PendingTask]:
        """Re-grain the pending queue for the current load.

        Mirrors ``simulate_mgps``'s phase-boundary test: outstanding
        tasks >= workers keeps the coarse grain; fewer switches to the
        fine grain by splitting never-attempted batches.  Retried
        batches stay coarse so their attempt accounting (and any
        injected failure plan keyed on the batch id) remains stable.
        """
        if now is None:
            now = time.monotonic()
        mode = COARSE if len(pending) >= self.n_workers else FINE
        if mode == FINE:
            regrained: List[PendingTask] = []
            for entry in pending:
                if entry.task.grain > 1 and entry.attempt == 1:
                    for child in entry.task.split():
                        regrained.append(
                            PendingTask(child, 1, entry.not_before)
                        )
                    self.splits += 1
                    self._phase_splits += 1
                else:
                    regrained.append(entry)
            pending = regrained
        self._enter(mode, now)
        return pending

    def dispatched(self, entry: PendingTask) -> None:
        """Count a task against the current phase."""
        self._phase_tasks += 1

    def finish(self, now: Optional[float] = None) -> List[MGPSPhase]:
        """Close the open phase and return the full phase log."""
        if now is None:
            now = time.monotonic()
        self._close(now)
        return list(self._phases)

    @property
    def phases(self) -> List[MGPSPhase]:
        return list(self._phases)

    # -- internals ----------------------------------------------------------

    def _enter(self, mode: str, now: float) -> None:
        if mode == self._mode:
            return
        self._close(now)
        self._mode = mode
        self._phase_started = now
        self._phase_tasks = 0
        self._phase_splits = 0

    def _close(self, now: float) -> None:
        if self._mode is None:
            return
        self._phases.append(
            MGPSPhase(
                mode=self._mode,
                n_tasks=self._phase_tasks,
                duration_s=now - self._phase_started,
                detail={"n_workers": self.n_workers,
                        "splits": self._phase_splits},
            )
        )
        self._mode = None
