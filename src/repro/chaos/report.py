"""Chaos run classification: survival reports with one unacceptable class.

Every chaos run is compared against a fault-free baseline of the same
workload seed and lands in exactly one class:

``survived_identical``
    completed with a log likelihood *bit-identical* to the baseline —
    recovery (CLV recompute, task retry, resume) was transparent.
``survived_degraded``
    completed, but the engine reported degradation through its
    ``degraded`` perf counter (per-evaluation fallback to the reference
    backend).  The answer must still agree with the baseline within a
    tolerance; the run is loud, not silent.
``typed_failure``
    failed with a typed error the stack is allowed to surface
    (``EngineNumericalError``, ``TaskExecutionError``,
    ``InjectedCrash``, ``JournalWriteError``).
``untyped_failure``
    failed with anything else — a gap in the typed-error contract.
``silent_corruption``
    completed, produced a *different* answer, and reported nothing.
    The only class a campaign gates on: one of these fails CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SURVIVED_IDENTICAL",
    "SURVIVED_DEGRADED",
    "TYPED_FAILURE",
    "UNTYPED_FAILURE",
    "SILENT_CORRUPTION",
    "CLASSIFICATIONS",
    "ChaosRunResult",
    "ChaosSurvivalReport",
]

SURVIVED_IDENTICAL = "survived_identical"
SURVIVED_DEGRADED = "survived_degraded"
TYPED_FAILURE = "typed_failure"
UNTYPED_FAILURE = "untyped_failure"
SILENT_CORRUPTION = "silent_corruption"

CLASSIFICATIONS: Tuple[str, ...] = (
    SURVIVED_IDENTICAL,
    SURVIVED_DEGRADED,
    TYPED_FAILURE,
    UNTYPED_FAILURE,
    SILENT_CORRUPTION,
)


@dataclass(frozen=True)
class ChaosRunResult:
    """One chaos run's verdict against its fault-free baseline."""

    seed: int
    classification: str
    log_likelihood: Optional[float] = None
    baseline_log_likelihood: Optional[float] = None
    #: injector fires per site: the same plan over the same program
    #: fires the same faults, so identical runs agree on this exactly.
    fired: Dict[str, int] = field(default_factory=dict)
    #: what the campaign read back after the run (worker deaths by
    #: reason, retries, a cache miss on the duplicate submission); these
    #: follow process timing and are not fault fires.
    observed: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    resumes: int = 0
    degraded: int = 0

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(
                f"unknown classification {self.classification!r}"
            )

    @property
    def faults_fired(self) -> int:
        return sum(self.fired.values())

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "classification": self.classification,
            "log_likelihood": self.log_likelihood,
            "baseline_log_likelihood": self.baseline_log_likelihood,
            "fired": dict(self.fired),
            "observed": dict(self.observed),
            "error": self.error,
            "resumes": self.resumes,
            "degraded": self.degraded,
        }


@dataclass
class ChaosSurvivalReport:
    """A campaign's aggregated verdict.

    ``ok`` is the CI gate: no silent corruption and no untyped failure.
    Typed failures are acceptable (a run is allowed to die loudly) but
    are still counted so a campaign that *only* dies can be spotted.
    """

    label: str
    runs: List[ChaosRunResult] = field(default_factory=list)

    def add(self, result: ChaosRunResult) -> None:
        self.runs.append(result)

    @property
    def counts(self) -> Dict[str, int]:
        tally = {name: 0 for name in CLASSIFICATIONS}
        for run in self.runs:
            tally[run.classification] += 1
        return tally

    @property
    def ok(self) -> bool:
        counts = self.counts
        return (
            counts[SILENT_CORRUPTION] == 0
            and counts[UNTYPED_FAILURE] == 0
        )

    @property
    def faults_fired(self) -> int:
        return sum(run.faults_fired for run in self.runs)

    @property
    def observed(self) -> Dict[str, int]:
        """Every run's ``observed`` counts, summed per key."""
        total: Dict[str, int] = {}
        for run in self.runs:
            for key, count in run.observed.items():
                total[key] = total.get(key, 0) + count
        return dict(sorted(total.items()))

    def offenders(self) -> List[ChaosRunResult]:
        return [
            run for run in self.runs
            if run.classification in (SILENT_CORRUPTION, UNTYPED_FAILURE)
        ]

    def summary(self) -> str:
        counts = self.counts
        parts = [
            f"{name}={counts[name]}"
            for name in CLASSIFICATIONS if counts[name]
        ]
        verdict = "OK" if self.ok else "FAILED"
        lines = [
            f"chaos[{self.label}]: {len(self.runs)} runs, "
            f"{self.faults_fired} faults fired, "
            f"observed {self.observed or 'nothing'} — "
            f"{', '.join(parts) or 'no runs'} — {verdict}"
        ]
        for run in self.offenders():
            lines.append(
                f"  seed {run.seed}: {run.classification} "
                f"(lnL {run.log_likelihood!r} vs baseline "
                f"{run.baseline_log_likelihood!r}, error={run.error!r})"
            )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "n_runs": len(self.runs),
            "counts": self.counts,
            "faults_fired": self.faults_fired,
            "observed": self.observed,
            "ok": self.ok,
            "runs": [run.to_json() for run in self.runs],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2)
