"""repro.chaos: deterministic fault injection across engine and cluster.

The cluster layer (PR 2) claims fault tolerance and the engine (PR 1/4)
claims numerical self-defense, but both claims were exercised only by a
handful of hand-written crash tests.  This package turns them into a
*systematic adversary*: a declarative :class:`~repro.chaos.plan.FaultPlan`
(seed + site list + probability / trigger count per site) drives a fully
deterministic :class:`~repro.chaos.injector.FaultInjector` threaded
through every layer of the stack —

* engine numerics: NaN/Inf poisoning of a CLV stripe, forced underflow
  before rescaling (bit-transparent by construction), corrupted
  P-matrix cache entries;
* cluster I/O and processes: worker crash-before-ack, worker hang past
  its heartbeat, torn journal records, checkpoint files torn mid-write,
  transient ``OSError`` on journal append.

Determinism contract: the same ``FaultPlan`` seed produces the same
injection schedule — probability draws hash ``(seed, site, key-or-visit
-index)`` through CRC32, never ``random.random()`` — so every chaos
failure reproduces from its seed alone.

:mod:`~repro.chaos.campaign` runs K-seed campaigns over the engine and
the cluster and classifies every run into a
:class:`~repro.chaos.report.ChaosSurvivalReport`: a run either completes
with a log likelihood bit-identical to the fault-free baseline, survives
*loudly degraded* (the engine fell back to the reference backend and
said so in its perf counters), or fails with a typed error.  Silent
corruption — completing with a different answer and no report — is the
only failure class, and the CI campaign gates on it being empty.

``campaign`` imports the phylo/cluster stacks, which themselves import
:mod:`repro.chaos.injector`; it is therefore loaded lazily to keep this
package importable from inside the engine without a cycle.
"""

from .injector import (
    FaultInjector,
    InjectedCrash,
    active_injector,
    fire,
    inject,
)
from .plan import (
    ALL_SITES,
    CLUSTER_SITES,
    ENGINE_SITES,
    SERVE_SITES,
    FaultPlan,
    FaultSpec,
    default_cluster_plan,
    default_engine_plan,
    default_serve_plan,
)
from .report import (
    CLASSIFICATIONS,
    ChaosRunResult,
    ChaosSurvivalReport,
    SILENT_CORRUPTION,
    SURVIVED_DEGRADED,
    SURVIVED_IDENTICAL,
    TYPED_FAILURE,
    UNTYPED_FAILURE,
)

__all__ = [
    "FaultInjector",
    "InjectedCrash",
    "active_injector",
    "fire",
    "inject",
    "ALL_SITES",
    "CLUSTER_SITES",
    "ENGINE_SITES",
    "SERVE_SITES",
    "FaultPlan",
    "FaultSpec",
    "default_cluster_plan",
    "default_engine_plan",
    "default_serve_plan",
    "CLASSIFICATIONS",
    "ChaosRunResult",
    "ChaosSurvivalReport",
    "SILENT_CORRUPTION",
    "SURVIVED_DEGRADED",
    "SURVIVED_IDENTICAL",
    "TYPED_FAILURE",
    "UNTYPED_FAILURE",
    # lazily loaded (heavy imports):
    "run_engine_campaign",
    "run_cluster_campaign",
    "run_serve_campaign",
    "run_resilience_campaign",
    "journal_payload_digest",
]

_LAZY = ("run_engine_campaign", "run_cluster_campaign",
         "run_serve_campaign", "run_resilience_campaign",
         "journal_payload_digest")


def __getattr__(name):
    if name in _LAZY:
        from . import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
