"""High-level run / resume / status entry points over the cluster queue.

``run_job`` is the one way into a run: it replays the job's journal and
executes only the missing replicates (bit-identical to an uninterrupted
run), starting afresh when the journal holds no header yet.
``resume_job`` continues a journal under the spec its header names, and
``job_status`` summarizes a journal for the ``cluster status`` CLI
without spawning any workers.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, Optional

from ..phylo.alignment import PatternAlignment, load_alignment_text
from ..phylo.inference import AnalysisResult, _as_patterns
from .aggregate import StreamingAggregator
from .bootstop import BootstopController
from .cancel import REASON_DEADLINE, CancelToken, TaskCancelled
from .checkpoint import JournalMismatchError, JournalState, RunJournal, replay
from .jobs import JobSpec, expand_job
from .pool import WorkerPool
from .queue import ClusterConfig, ClusterQueue, WorkerPlans

__all__ = ["run_job", "resume_job", "job_status"]


def _bootstop_controller(spec: JobSpec) -> Optional[BootstopController]:
    if spec.bootstop is None:
        return None
    return BootstopController(spec.bootstop, spec.n_bootstraps, spec.seed)


def _load_patterns(spec: JobSpec) -> PatternAlignment:
    if spec.alignment_path is None:
        raise ValueError(
            "job spec has no alignment_path; pass the alignment explicitly"
        )
    with open(spec.alignment_path) as fh:
        return load_alignment_text(fh.read(), aa=spec.aa).compress()


def _finalize(journal: RunJournal, aggregator: StreamingAggregator,
              degraded: bool = False) -> AnalysisResult:
    analysis = aggregator.analysis()
    extra = {"degraded": True} if degraded else {}
    journal.append(
        "run_finished",
        n_results=len(aggregator.payloads()),
        best_log_likelihood=analysis.best.log_likelihood,
        perf=aggregator.perf_totals(),
        **extra,
    )
    journal.close()
    analysis.degraded = degraded
    return analysis


def _resolve_cancel(spec: JobSpec,
                    cancel: Optional[CancelToken]) -> Optional[CancelToken]:
    """Fold ``spec.deadline_s`` into the caller's token (if any).

    The deadline budget starts *now* — a resumed run gets a fresh
    budget, since the salvageable work is exactly what is left.
    """
    if spec.deadline_s is None:
        return cancel
    token = cancel if cancel is not None else CancelToken()
    token.cap_deadline(spec.deadline_s)
    return token


def _settle(queue: ClusterQueue, journal) -> AnalysisResult:
    """Finalize a (possibly cancelled) queue run.

    * completed → normal ``run_finished``;
    * deadline → degraded ``run_finished`` salvaged from completed
      replicates (typed ``TaskCancelled`` when not even one inference
      finished — there is nothing to salvage);
    * drain/explicit cancel → no ``run_finished`` at all: the journal
      stays open-ended so a later resume completes it bit-identically,
      and the caller sees a typed ``TaskCancelled``.
    """
    reason = queue.cancelled_reason
    if reason is None:
        return _finalize(journal, queue.aggregator)
    if reason == REASON_DEADLINE:
        if queue.aggregator.n_inferences == 0:
            journal.close()
            raise TaskCancelled(
                REASON_DEADLINE,
                "deadline exceeded before any inference completed; "
                "nothing to salvage",
            )
        return _finalize(journal, queue.aggregator, degraded=True)
    journal.close()
    raise TaskCancelled(reason)


def run_job(
    spec: JobSpec,
    alignment=None,
    n_workers: Optional[int] = None,
    journal_path: Optional[str] = None,
    cluster: Optional[ClusterConfig] = None,
    plans: Optional[WorkerPlans] = None,
    clock=None,
    cancel: Optional[CancelToken] = None,
    pool: Optional[WorkerPool] = None,
) -> AnalysisResult:
    """Execute a job, continuing whatever its journal already holds.

    The journal at *journal_path* decides how the run starts:

    * none, an empty file, or a torn ``run_started`` header: a fresh
      run, the file rewritten from its header;
    * a header of an equal job: the run continues.  Finished
      replicates are taken verbatim from the journal (floats
      round-trip exactly through JSON) and only the remainder runs, so
      the result is bit-identical to an uninterrupted run; a journal
      that already holds its ``run_finished`` is only read;
    * a header of another job:
      :class:`~repro.cluster.checkpoint.JournalMismatchError` naming
      the journal, before anything is written.

    The alignment comes from *alignment* (any alignment object) or,
    when omitted, from ``spec.alignment_path``.  Results match
    :func:`repro.phylo.inference.run_full_analysis` bit for bit.
    ``clock`` stamps journal records (chaos campaigns pass a
    deterministic counter for byte-identical journals).
    ``cancel`` is an external cancellation token (the serve layer's
    drain); ``spec.deadline_s`` is folded into it, and a tripped token
    either salvages a degraded result (deadline) or raises a typed
    ``TaskCancelled`` leaving the journal resumable (drain).
    ``pool`` is where worker processes come from and are parked again
    afterwards (the serve layer's resident workers); without one the
    run forks its own and terminates them when it ends.
    A shard manifest at *journal_path* raises
    :class:`~repro.cluster.checkpoint.RetiredJournalFormatError`.
    """
    state = None
    if journal_path is not None and os.path.exists(journal_path):
        state = replay(journal_path)
        if state.spec is None:
            state = None  # nothing journalled yet: start afresh
        elif JobSpec.from_json(state.spec) != spec:
            raise JournalMismatchError(
                f"{journal_path}: journal holds another job; continue it "
                f"with its own spec or choose a new journal path")
    return _execute(spec, state, alignment, n_workers, journal_path,
                    cluster, plans, clock, cancel, pool)


def resume_job(
    journal_path: str,
    alignment=None,
    n_workers: Optional[int] = None,
    cluster: Optional[ClusterConfig] = None,
    plans: Optional[WorkerPlans] = None,
    clock=None,
    cancel: Optional[CancelToken] = None,
    pool: Optional[WorkerPool] = None,
) -> AnalysisResult:
    """Continue the job journalled at *journal_path*, taking its spec
    from the journal's header (:func:`run_job` with that spec).

    Raises ``ValueError`` when the journal has no ``run_started``
    header, and :class:`~repro.cluster.checkpoint.RetiredJournalFormatError`
    for a shard manifest, before anything is written.
    """
    state = replay(journal_path)
    if state.spec is None:
        raise ValueError(f"{journal_path}: no run_started header to resume")
    return _execute(JobSpec.from_json(state.spec), state, alignment,
                    n_workers, journal_path, cluster, plans, clock, cancel,
                    pool)


def _execute(spec: JobSpec, state: Optional[JournalState], alignment,
             n_workers, journal_path, cluster, plans, clock, cancel,
             pool) -> AnalysisResult:
    """Run *spec* from scratch (``state=None``) or on from the replayed
    *state* of its journal."""
    bootstop = _bootstop_controller(spec)
    if state is None:
        tasks, already = expand_job(spec), None
    else:
        remaining = spec
        if state.bootstop is not None:
            # A journalled autoMRE stop decision is final: truncate the
            # resume DAG to the stopped prefix (replay already evicted
            # any replicate past it) instead of re-deriving the decision.
            stop_at = int(state.bootstop["stop_at"])
            remaining = replace(spec, n_bootstraps=stop_at)
            if bootstop is not None:
                bootstop.restore(stop_at)
        tasks = expand_job(remaining, state.done_inferences,
                           state.done_bootstraps)
        already = dict(state.payloads)
        if state.finished or not tasks:
            aggregator = StreamingAggregator()
            for payload in state.payloads.values():
                aggregator.ingest(payload)
            if state.finished:
                analysis = aggregator.analysis()
                analysis.degraded = state.degraded
                return analysis
            journal = RunJournal(journal_path, append=True, clock=clock)
            journal.append("run_resumed", remaining=0)
            return _finalize(journal, aggregator)

    patterns = (_as_patterns(alignment) if alignment is not None
                else _load_patterns(spec))
    cluster = _with_workers(cluster, n_workers)
    journal = RunJournal(journal_path, append=state is not None, clock=clock)
    if state is None:
        journal.append("run_started", spec=spec.to_json(),
                       n_workers=cluster.n_workers)
    else:
        journal.append("run_resumed", remaining=sum(t.grain for t in tasks),
                       n_workers=cluster.n_workers)
    queue = ClusterQueue(
        patterns, spec, cluster=cluster,
        journal=journal, plans=plans, bootstop=bootstop, pool=pool,
    )
    try:
        queue.run(tasks, already=already,
                  cancel=_resolve_cancel(spec, cancel))
    except BaseException:
        journal.close()
        raise
    return _settle(queue, journal)


def job_status(journal_path: str) -> Dict[str, object]:
    """Summarize a journal: progress, faults, streaming partials.

    With autoMRE bootstopping the replicate count is not fixed up
    front: ``n_bootstraps_total`` reports the *effective* target (the
    journalled stop point once the run converged, the requested budget
    before that), and ``bootstop`` carries the policy state — requested
    budget, stop point, and the convergence metric of the decision.
    """
    state = replay(journal_path)
    aggregator = StreamingAggregator()
    for payload in state.payloads.values():
        aggregator.ingest(payload)
    spec = JobSpec.from_json(state.spec) if state.spec else None
    consensus_supports, consensus_tree = aggregator.consensus()
    bootstop: Optional[Dict[str, object]] = None
    n_bootstraps_total = spec.n_bootstraps if spec else None
    if spec is not None and spec.bootstop is not None:
        bootstop = {
            "enabled": True,
            "requested": spec.n_bootstraps,
            "check_every": spec.bootstop.check_every,
            "threshold": spec.bootstop.threshold,
            "stop_at": None,
            "metric": None,
            "pass_fraction": None,
        }
        if state.bootstop is not None:
            bootstop["stop_at"] = int(state.bootstop["stop_at"])
            bootstop["metric"] = state.bootstop.get("metric")
            bootstop["pass_fraction"] = state.bootstop.get("pass_fraction")
            n_bootstraps_total = int(state.bootstop["stop_at"])
    return {
        "spec": spec,
        "state": state,
        "finished": state.finished,
        "n_inferences_done": aggregator.n_inferences,
        "n_bootstraps_done": aggregator.n_bootstraps,
        "n_inferences_total": spec.n_inferences if spec else None,
        "n_bootstraps_total": n_bootstraps_total,
        "bootstop": bootstop,
        "best": aggregator.best,
        "supports": aggregator.supports(),
        "consensus_supports": consensus_supports,
        "consensus_newick": consensus_tree,
        "retries": state.retries,
        "worker_deaths": state.worker_deaths,
        "degraded": state.degraded,
        "deadline_exceeded": state.deadline_exceeded,
        "perf": state.perf_totals(),
    }


def _with_workers(cluster: Optional[ClusterConfig],
                  n_workers: Optional[int]) -> ClusterConfig:
    cluster = cluster or ClusterConfig()
    if n_workers is not None and n_workers != cluster.n_workers:
        cluster = replace(cluster, n_workers=n_workers)
    return cluster
