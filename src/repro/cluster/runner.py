"""High-level run / resume / status entry points over the cluster queue.

``run_job`` starts a fresh journalled run, ``resume_job`` replays a
journal and executes only the missing replicates (bit-identical to an
uninterrupted run), and ``job_status`` summarizes a journal for the
``cluster status`` CLI without spawning any workers.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..phylo.alignment import Alignment, PatternAlignment
from ..phylo.inference import AnalysisResult
from .aggregate import StreamingAggregator
from .bootstop import BootstopController
from .cancel import REASON_DEADLINE, CancelToken, TaskCancelled
from .checkpoint import RunJournal, replay
from .jobs import JobSpec, expand_job
from .pool import WorkerPool
from .queue import ClusterConfig, ClusterQueue, ExecutionContext, WorkerPlans

__all__ = ["run_job", "resume_job", "job_status"]


def _bootstop_controller(spec: JobSpec) -> Optional[BootstopController]:
    if spec.bootstop is None:
        return None
    return BootstopController(spec.bootstop, spec.n_bootstraps, spec.seed)


def _as_patterns(alignment) -> PatternAlignment:
    if isinstance(alignment, PatternAlignment):
        return alignment
    compress = getattr(alignment, "compress", None)
    if compress is not None:
        return compress()
    raise TypeError("expected an alignment or pattern alignment")


def _load_patterns(spec: JobSpec) -> PatternAlignment:
    if spec.alignment_path is None:
        raise ValueError(
            "job spec has no alignment_path; pass the alignment explicitly"
        )
    with open(spec.alignment_path) as fh:
        text = fh.read()
    if spec.aa:
        from ..phylo.protein import ProteinAlignment

        cls = ProteinAlignment
    else:
        cls = Alignment
    if text.lstrip().startswith(">"):
        return cls.from_fasta(text).compress()
    return cls.from_phylip(text).compress()


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
    """Execute a job from scratch, journalling to *journal_path*.

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
    A spec with no inference is refused before anything is journalled
    or forked: there would be no best tree to pick.
    """
    if spec.n_inferences < 1:
        raise ValueError("need at least one inference to pick a best tree")
    patterns = (_as_patterns(alignment) if alignment is not None
                else _load_patterns(spec))
    cluster = _with_workers(cluster, n_workers)
    journal = RunJournal(journal_path, clock=clock)
    journal.append("run_started", spec=spec.to_json(),
                   n_workers=cluster.n_workers)
    queue = ClusterQueue(
        patterns, ctx=ExecutionContext.from_spec(spec), cluster=cluster,
        journal=journal, plans=plans, bootstop=_bootstop_controller(spec),
        pool=pool,
    )
    try:
        queue.run(expand_job(spec), cancel=_resolve_cancel(spec, cancel))
    except BaseException:
        journal.close()
        raise
    return _settle(queue, journal)


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
    """Resume an interrupted run from its journal.

    Finished replicates are taken verbatim from the journal (floats
    round-trip exactly through JSON); only the remainder is executed.
    The final trees, likelihoods, and supports are bit-identical to an
    uninterrupted run.  A journal that already holds its
    ``run_finished`` is only read: the journalled analysis comes back
    and nothing is appended.  A shard manifest at *journal_path* raises
    :class:`~repro.cluster.checkpoint.RetiredJournalFormatError`
    before anything is written.
    """
    state = replay(journal_path)
    if state.spec is None:
        raise ValueError(f"{journal_path}: no run_started header to resume")
    spec = JobSpec.from_json(state.spec)
    bootstop = _bootstop_controller(spec)
    if state.bootstop is not None:
        # A journalled autoMRE stop decision is final: truncate the
        # resume DAG to the stopped prefix (replay already evicted any
        # replicate past it) instead of re-deriving the decision.
        stop_at = int(state.bootstop["stop_at"])
        from dataclasses import replace as _replace

        spec_for_tasks = _replace(spec, n_bootstraps=stop_at)
        if bootstop is not None:
            bootstop.restore(stop_at)
    else:
        spec_for_tasks = spec
    tasks = expand_job(spec_for_tasks, state.done_inferences,
                       state.done_bootstraps)

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
    journal = RunJournal(journal_path, append=True, clock=clock)
    journal.append("run_resumed", remaining=sum(t.grain for t in tasks),
                   n_workers=cluster.n_workers)
    queue = ClusterQueue(
        patterns, ctx=ExecutionContext.from_spec(spec), cluster=cluster,
        journal=journal, plans=plans, bootstop=bootstop, pool=pool,
    )
    try:
        queue.run(tasks, already=dict(state.payloads),
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
        from dataclasses import replace

        cluster = replace(cluster, n_workers=n_workers)
    return cluster
