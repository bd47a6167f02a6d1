"""K-seed chaos campaigns against fault-free baselines.

A campaign runs the *same* small inference workload once cleanly and
then ``n_seeds`` times under seeded :class:`~repro.chaos.plan.FaultPlan`
adversaries, classifying every run against the baseline (see
:mod:`repro.chaos.report`).  The contract it enforces is binary: a run
either completes with a log likelihood bit-identical to the fault-free
baseline (or loudly degraded within tolerance), or it fails with a
typed error.  ``silent_corruption`` — completing with a different
answer and reporting nothing — is the one class that fails CI.

Two campaign flavours:

* :func:`run_engine_campaign` — in-process, engine-layer faults
  (CLV poison, forced underflow, P-matrix corruption) against one
  kernel backend.
* :func:`run_cluster_campaign` — full journalled master-worker runs
  with process faults (worker crash/hang, torn journal and checkpoint
  writes, transient append errors), including crash-resume loops.
* :func:`run_serve_campaign` — the inference service under
  ``serve.server_kill``: the serving process dies between journal
  appends of a running job, a fresh service recovers the same store
  root, and the finished result (plus the content-addressed cache
  behaviour) must be byte-identical to the fault-free baseline.
* :func:`run_resilience_campaign` — a *live* HTTP server under hostile
  clients (slowloris submits, mid-SSE disconnects) and wedged workers
  (``cluster.worker_stall``, ``cluster.worker_oom``), every step under
  its own watchdog: typed errors, journalled degradation, or
  bit-identical results — never a hang.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import tempfile
from typing import Dict, Optional, Tuple

from ..cluster.checkpoint import JournalWriteError, atomic_write, replay
from ..cluster.jobs import JobSpec
from ..cluster.queue import (
    ClusterConfig,
    TaskExecutionError,
    _CounterCollector,
)
from ..cluster.runner import resume_job, run_job
from ..phylo.engine.protocol import EngineNumericalError
from ..phylo.inference import infer_tree
from ..phylo.search import SearchConfig
from ..phylo.simulate import synthetic_dataset
from .injector import InjectedCrash, inject
from .plan import (
    SERVE_CLIENT_DISCONNECT_MID_SSE,
    SERVE_SLOW_CLIENT,
    FaultPlan,
    default_cluster_plan,
    default_engine_plan,
    default_resilience_plan,
    default_serve_plan,
)
from .report import (
    SILENT_CORRUPTION,
    SURVIVED_DEGRADED,
    SURVIVED_IDENTICAL,
    TYPED_FAILURE,
    UNTYPED_FAILURE,
    ChaosRunResult,
    ChaosSurvivalReport,
)

__all__ = [
    "CAMPAIGN_WORKLOAD",
    "campaign_patterns",
    "campaign_search_config",
    "run_engine_campaign",
    "run_cluster_campaign",
    "run_serve_campaign",
    "run_resilience_campaign",
    "journal_payload_digest",
]

#: The shared campaign workload: small enough that a 25-seed sweep over
#: both backends stays in CI budget, large enough that a search visits
#: every instrumented site many times.
CAMPAIGN_WORKLOAD = {"n_taxa": 8, "n_sites": 300, "seed": 11}

#: Inference seed for the engine campaign (all chaos seeds rerun the
#: *same* search so the baseline comparison is bit-for-bit meaningful).
ENGINE_INFER_SEED = 3

#: A degraded run fell back to the reference backend mid-flight; its
#: answer may differ from the original backend's in the last bits but
#: must agree to this relative tolerance.
DEGRADED_REL_TOL = 1e-6

#: Typed errors a chaos run is allowed to die with (the loud-failure
#: contract of DESIGN.md §11); anything else is ``untyped_failure``.
TYPED_ERRORS = (
    EngineNumericalError,
    TaskExecutionError,
    JournalWriteError,
    InjectedCrash,
)


def campaign_patterns():
    """The compressed campaign alignment (~30 patterns)."""
    return synthetic_dataset(
        n_taxa=CAMPAIGN_WORKLOAD["n_taxa"],
        n_sites=CAMPAIGN_WORKLOAD["n_sites"],
        seed=CAMPAIGN_WORKLOAD["seed"],
    ).compress()


def campaign_search_config() -> SearchConfig:
    """A truncated hill climb: full code paths, small constant factors."""
    return SearchConfig(
        initial_radius=2,
        max_radius=3,
        max_rounds=3,
        smoothing_passes=1,
        final_smoothing_passes=2,
        epsilon=0.02,
        local_branch_iterations=6,
    )


# -- engine campaign ----------------------------------------------------------


def _engine_once(patterns, backend: Optional[str]
                 ) -> Tuple[float, Dict[str, int]]:
    """One full inference; returns (lnL, engine perf counters)."""
    collector = _CounterCollector()
    result = infer_tree(
        patterns,
        config=campaign_search_config(),
        seed=ENGINE_INFER_SEED,
        tracer=collector,
        backend=backend,
    )
    return result.log_likelihood, collector.perf_counters()


def _engine_chaos_run(patterns, backend: Optional[str], plan: FaultPlan,
                      baseline_lnl: float) -> ChaosRunResult:
    fired: Dict[str, int] = {}
    try:
        with inject(plan) as injector:
            try:
                lnl, counters = _engine_once(patterns, backend)
            finally:
                fired = dict(injector.fired)
        degraded = int(counters.get("degraded", 0))
        if degraded == 0 and lnl == baseline_lnl:
            classification = SURVIVED_IDENTICAL
        elif degraded > 0 and abs(lnl - baseline_lnl) <= (
            DEGRADED_REL_TOL * abs(baseline_lnl)
        ):
            classification = SURVIVED_DEGRADED
        else:
            classification = SILENT_CORRUPTION
        return ChaosRunResult(
            seed=plan.seed,
            classification=classification,
            log_likelihood=lnl,
            baseline_log_likelihood=baseline_lnl,
            fired=fired,
            degraded=degraded,
        )
    except TYPED_ERRORS as exc:
        return ChaosRunResult(
            seed=plan.seed, classification=TYPED_FAILURE,
            baseline_log_likelihood=baseline_lnl, fired=fired,
            error=f"{type(exc).__name__}: {exc}",
        )
    except Exception as exc:  # noqa: BLE001 — the untyped-failure gate
        return ChaosRunResult(
            seed=plan.seed, classification=UNTYPED_FAILURE,
            baseline_log_likelihood=baseline_lnl, fired=fired,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_engine_campaign(
    n_seeds: int = 25,
    backend: Optional[str] = None,
    sites: Optional[Tuple[str, ...]] = None,
    start_seed: int = 0,
    patterns=None,
) -> ChaosSurvivalReport:
    """Sweep ``n_seeds`` engine-fault adversaries against one backend.

    Every chaos seed reruns the identical search under
    :func:`~repro.chaos.plan.default_engine_plan`; ``sites`` restricts
    the adversary (e.g. to backend-neutral sites for cross-backend
    classification comparisons).
    """
    if patterns is None:
        patterns = campaign_patterns()
    baseline_lnl, _ = _engine_once(patterns, backend)
    report = ChaosSurvivalReport(label=f"engine:{backend or 'default'}")
    for seed in range(start_seed, start_seed + n_seeds):
        plan = default_engine_plan(seed, sites=sites)
        report.add(_engine_chaos_run(patterns, backend, plan, baseline_lnl))
    return report


# -- cluster campaign ---------------------------------------------------------


def _cluster_spec() -> JobSpec:
    return JobSpec(
        n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
        config=campaign_search_config(),
    )


def _cluster_config(n_workers: int) -> ClusterConfig:
    """Small timeouts so injected hangs cost ~1 s, not the defaults."""
    return ClusterConfig(
        n_workers=n_workers,
        task_timeout_s=60.0,
        max_retries=2,
        retry_backoff_s=0.01,
        retry_backoff_cap_s=0.1,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=1.5,
    )


def _make_clock():
    """A deterministic journal clock: 1.0, 2.0, 3.0, ..."""
    state = {"t": 0}

    def clock() -> float:
        state["t"] += 1
        return float(state["t"])

    return clock


def journal_payload_digest(path: str) -> str:
    """Canonical digest of a journal's replicate payloads.

    Replays the journal (so torn/corrupt records are already filtered
    out) and hashes the ``(kind, replicate) -> payload`` map in sorted
    order — independent of arrival order, retries, and resume
    boundaries.  Two runs of the same job spec must digest identically.
    """
    state = replay(path)
    canonical = json.dumps(
        [
            [kind, replicate, state.payloads[(kind, replicate)]]
            for kind, replicate in sorted(state.payloads)
        ],
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cluster_chaos_run(patterns, plan: FaultPlan, n_workers: int,
                       rundir: str, baseline_lnl: float,
                       baseline_digest: str,
                       max_resumes: int) -> ChaosRunResult:
    os.makedirs(rundir, exist_ok=True)
    journal_path = os.path.join(rundir, "journal.jsonl")
    best_path = os.path.join(rundir, "best.tree")
    cfg = _cluster_config(n_workers)
    clock = _make_clock()
    resumes = 0
    fired: Dict[str, int] = {}
    try:
        with inject(plan) as injector:
            try:
                analysis = None
                while analysis is None:
                    try:
                        if not os.path.exists(journal_path):
                            analysis = run_job(
                                _cluster_spec(), patterns,
                                journal_path=journal_path, cluster=cfg,
                                clock=clock,
                            )
                        else:
                            resumes += 1
                            analysis = resume_job(
                                journal_path, patterns, cluster=cfg,
                                clock=clock,
                            )
                    except InjectedCrash:
                        if resumes >= max_resumes:
                            raise
                # Post-run checkpoint: the atomic best-tree write is
                # itself a fault site (cluster.checkpoint_torn); a torn
                # attempt must leave the target intact, and the bounded
                # retry must land the full content.
                attempt = 0
                while True:
                    try:
                        atomic_write(best_path,
                                     analysis.best.newick + "\n")
                        break
                    except InjectedCrash:
                        attempt += 1
                        if attempt > 3:
                            raise
            finally:
                fired = dict(injector.fired)
        lnl = analysis.best.log_likelihood
        digest = journal_payload_digest(journal_path)
        with open(best_path) as fh:
            checkpoint_ok = fh.read() == analysis.best.newick + "\n"
        state = replay(journal_path)
        if state.worker_deaths:
            fired["observed.worker_deaths"] = len(state.worker_deaths)
        if state.retries:
            fired["observed.retries"] = len(state.retries)
        identical = (
            lnl == baseline_lnl
            and digest == baseline_digest
            and checkpoint_ok
        )
        return ChaosRunResult(
            seed=plan.seed,
            classification=SURVIVED_IDENTICAL if identical
            else SILENT_CORRUPTION,
            log_likelihood=lnl,
            baseline_log_likelihood=baseline_lnl,
            fired=fired,
            resumes=resumes,
        )
    except TYPED_ERRORS as exc:
        return ChaosRunResult(
            seed=plan.seed, classification=TYPED_FAILURE,
            baseline_log_likelihood=baseline_lnl, fired=fired,
            error=f"{type(exc).__name__}: {exc}", resumes=resumes,
        )
    except Exception as exc:  # noqa: BLE001 — the untyped-failure gate
        return ChaosRunResult(
            seed=plan.seed, classification=UNTYPED_FAILURE,
            baseline_log_likelihood=baseline_lnl, fired=fired,
            error=f"{type(exc).__name__}: {exc}", resumes=resumes,
        )


# -- serve campaign -----------------------------------------------------------


def _serve_workload() -> str:
    """The campaign alignment as submittable FASTA text."""
    return synthetic_dataset(
        n_taxa=CAMPAIGN_WORKLOAD["n_taxa"],
        n_sites=CAMPAIGN_WORKLOAD["n_sites"],
        seed=CAMPAIGN_WORKLOAD["seed"],
    ).to_fasta()


def _canonical_result(payload: Optional[dict]) -> str:
    return json.dumps(payload, sort_keys=True)


def _serve_run_to_completion(root: str, fasta: str, spec: JobSpec,
                             n_workers: int, max_restarts: int) -> Tuple[dict, int, object]:
    """Drive one submission to completion through server kills.

    Each :class:`~repro.chaos.injector.InjectedCrash` models the serving
    process dying; we discard the service object (its scheduler state
    dies with it) and build a fresh one over the same store root, whose
    :meth:`~repro.serve.jobstore.JobService.recover` re-enqueues the
    orphaned job.  Returns ``(result payload, restarts, final service)``.
    """
    from ..serve.jobstore import JobService

    cfg = _cluster_config(n_workers)
    restarts = 0
    service = JobService(root, n_workers=n_workers, cluster=cfg,
                         clock=_make_clock())
    try:
        record, hit = service.submit(fasta, spec, client="campaign")
        if hit:
            raise RuntimeError(
                "campaign submission unexpectedly hit the cache")
        while True:
            try:
                done = service.run_next()
            except InjectedCrash:
                restarts += 1
                if restarts > max_restarts:
                    raise
                service.close()  # the dead server's workers die with it
                service = JobService(root, n_workers=n_workers, cluster=cfg,
                                     clock=_make_clock())
                service.recover()
                continue
            if done is None or done.job_id == record.job_id:
                break
    finally:
        # The resident workers go; store, cache and scheduler views of
        # the returned service stay usable.
        service.close()
    result = service.result(record.job_id)
    if result is None:
        record = service.store.get(record.job_id)
        raise RuntimeError(
            f"job finished without a result: state={record.state} "
            f"error={record.error}"
        )
    return result, restarts, service


def _serve_chaos_run(fasta: str, spec: JobSpec, plan: FaultPlan,
                     n_workers: int, rundir: str,
                     baseline_canonical: str,
                     max_restarts: int) -> ChaosRunResult:
    os.makedirs(rundir, exist_ok=True)
    fired: Dict[str, int] = {}
    restarts = 0
    try:
        with inject(plan) as injector:
            try:
                result, restarts, service = _serve_run_to_completion(
                    rundir, fasta, spec, n_workers, max_restarts
                )
            finally:
                fired = dict(injector.fired)
        # The survived store must also keep its caching contract: an
        # identical resubmission is a hit and schedules no new run.
        runs_before = service.store.runs_executed
        _record2, hit2 = service.submit(fasta, spec, client="campaign-dup")
        cache_ok = hit2 and service.store.runs_executed == runs_before
        identical = (
            _canonical_result(result) == baseline_canonical and cache_ok
        )
        if not cache_ok:
            fired["observed.cache_miss_on_dup"] = 1
        return ChaosRunResult(
            seed=plan.seed,
            classification=SURVIVED_IDENTICAL if identical
            else SILENT_CORRUPTION,
            log_likelihood=result["best_log_likelihood"],
            fired=fired,
            resumes=restarts,
        )
    except TYPED_ERRORS as exc:
        return ChaosRunResult(
            seed=plan.seed, classification=TYPED_FAILURE, fired=fired,
            error=f"{type(exc).__name__}: {exc}", resumes=restarts,
        )
    except Exception as exc:  # noqa: BLE001 — the untyped-failure gate
        return ChaosRunResult(
            seed=plan.seed, classification=UNTYPED_FAILURE, fired=fired,
            error=f"{type(exc).__name__}: {exc}", resumes=restarts,
        )


def run_serve_campaign(
    n_seeds: int = 25,
    n_workers: int = 2,
    workdir: Optional[str] = None,
    sites: Optional[Tuple[str, ...]] = None,
    start_seed: int = 0,
    max_restarts: int = 4,
    fasta: Optional[str] = None,
    spec: Optional[JobSpec] = None,
) -> ChaosSurvivalReport:
    """Sweep ``n_seeds`` server-kill adversaries over the job service.

    Each seed submits the campaign job to a fresh store root and drives
    it to completion under :func:`~repro.chaos.plan.default_serve_plan`,
    replacing the service with a recovered one after every injected
    kill.  Survival requires the final result payload — best tree,
    supports, consensus, perf counters — to be *byte-identical* to the
    fault-free baseline's, and an identical resubmission to hit the
    result cache without scheduling a new run.
    """
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-serve-")
    if fasta is None:
        fasta = _serve_workload()
    if spec is None:
        spec = _cluster_spec()
    baseline, _restarts, _svc = _serve_run_to_completion(
        os.path.join(workdir, "baseline"), fasta, spec, n_workers,
        max_restarts=0,
    )
    baseline_canonical = _canonical_result(baseline)
    report = ChaosSurvivalReport(label=f"serve:{n_workers}w")
    for seed in range(start_seed, start_seed + n_seeds):
        plan = default_serve_plan(seed, sites=sites)
        report.add(
            _serve_chaos_run(
                fasta, spec, plan, n_workers,
                os.path.join(workdir, f"seed{seed:03d}"),
                baseline_canonical, max_restarts,
            )
        )
    return report


def run_cluster_campaign(
    n_seeds: int = 25,
    n_workers: int = 2,
    workdir: Optional[str] = None,
    sites: Optional[Tuple[str, ...]] = None,
    start_seed: int = 0,
    patterns=None,
    max_resumes: int = 4,
) -> ChaosSurvivalReport:
    """Sweep ``n_seeds`` cluster-fault adversaries over journalled runs.

    Each seed executes the full job (1 inference + 4 bootstraps) under
    :func:`~repro.chaos.plan.default_cluster_plan`, resuming from the
    journal after every injected master crash (torn journal append,
    torn checkpoint).  Survival requires the best log likelihood *and*
    the replayed payload digest to match the fault-free baseline
    exactly — worker count, retries, and resume boundaries must all be
    invisible in the answer.
    """
    if patterns is None:
        patterns = campaign_patterns()
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    baseline_dir = os.path.join(workdir, "baseline")
    os.makedirs(baseline_dir, exist_ok=True)
    baseline_journal = os.path.join(baseline_dir, "journal.jsonl")
    baseline = run_job(
        _cluster_spec(), patterns, journal_path=baseline_journal,
        cluster=_cluster_config(n_workers), clock=_make_clock(),
    )
    baseline_lnl = baseline.best.log_likelihood
    baseline_digest = journal_payload_digest(baseline_journal)
    report = ChaosSurvivalReport(label=f"cluster:{n_workers}w")
    for seed in range(start_seed, start_seed + n_seeds):
        plan = default_cluster_plan(seed, sites=sites)
        report.add(
            _cluster_chaos_run(
                patterns, plan, n_workers,
                os.path.join(workdir, f"seed{seed:03d}"),
                baseline_lnl, baseline_digest, max_resumes,
            )
        )
    return report

# -- resilience campaign ------------------------------------------------------
#
# The live-server arm (ISSUE 10): a real ServeApp over HTTP attacked by
# hostile *clients* (slowloris submits, mid-SSE disconnects) while its
# workers wedge (cluster.worker_stall) or balloon (cluster.worker_oom)
# underneath.  The contract is the zero-hang closure: every step runs
# under its own asyncio watchdog, and a seed either survives with a
# result byte-identical to the fault-free baseline (journalled
# degradation allowed), or dies with a typed error — never a hang.

#: Per-HTTP-step watchdog; a step that outlives this is a hang, which
#: is classified untyped and fails the campaign.
RESILIENCE_STEP_TIMEOUT_S = 60.0

#: End-to-end watchdog for one seed's job reaching a terminal state
#: (covers a stalled worker costing one task timeout plus the rerun).
RESILIENCE_JOB_TIMEOUT_S = 300.0


def _resilience_spec() -> JobSpec:
    """The campaign job exactly as the HTTP API would build it.

    No custom ``SearchConfig``: the submission surface only exposes the
    ``model`` block, so the baseline must use the same default search
    the API-built spec implies — otherwise the two runs answer
    different questions and the byte-identity check is meaningless.
    """
    return JobSpec(n_inferences=1, n_bootstraps=4, seed=9, batch_size=2)


def _resilience_cluster_config(n_workers: int) -> ClusterConfig:
    """Small timeouts + an RSS ceiling sized against the OOM ballast.

    The ceiling sits roughly half a ballast above the *current* process
    RSS: forked workers start near the parent's resident size, so a
    healthy worker stays far below it while the injected
    ``cluster.worker_oom`` ballast (one full ballast of resident pages)
    sails far above — robust to whatever the parent happens to weigh.
    """
    from ..cluster.queue import _OOM_BALLAST_MB, _rss_bytes

    parent_rss = _rss_bytes(os.getpid()) or 256 * 1024 * 1024
    limit_mb = parent_rss / (1024.0 * 1024.0) + _OOM_BALLAST_MB / 2.0
    return ClusterConfig(
        n_workers=n_workers,
        task_timeout_s=8.0,
        max_retries=2,
        retry_backoff_s=0.01,
        retry_backoff_cap_s=0.1,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=1.5,
        max_worker_rss_mb=limit_mb,
    )


async def _http_json(host: str, port: int, method: str, path: str,
                     payload: Optional[dict] = None,
                     timeout: float = RESILIENCE_STEP_TIMEOUT_S
                     ) -> Tuple[int, Optional[dict]]:
    """One bounded HTTP/1.1 round-trip returning (status, JSON body)."""

    async def _go() -> Tuple[int, Optional[dict]]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            body = (b"" if payload is None
                    else json.dumps(payload).encode())
            head = f"{method} {path} HTTP/1.1\r\nHost: campaign\r\n"
            if body:
                head += ("Content-Type: application/json\r\n"
                         f"Content-Length: {len(body)}\r\n")
            head += "\r\n"
            writer.write(head.encode() + body)
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        status = int(raw.split(b" ", 2)[1])
        blob = raw.split(b"\r\n\r\n", 1)[1]
        return status, (json.loads(blob) if blob.strip() else None)

    return await asyncio.wait_for(_go(), timeout)


async def _slow_client_probe(host: str, port: int,
                             header_timeout_s: float) -> None:
    """Play a slowloris submit; the server must answer a typed 408.

    Sends a partial request head and then stalls.  Within the server's
    header timeout (plus slack) the connection must come back with a
    408 — or be closed outright — never sit open.
    """

    async def _go() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"POST /jobs HTTP/1.1\r\nHost: slow")
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        status_line = raw.split(b"\r\n", 1)[0]
        if raw and b" 408 " not in status_line:
            raise RuntimeError(
                f"slow client got {status_line!r}, expected 408 or close"
            )

    await asyncio.wait_for(_go(), header_timeout_s + 30.0)


async def _sse_disconnect_probe(host: str, port: int, job_id: str,
                                app) -> None:
    """Open the job's SSE stream, drop it abruptly, assert release.

    The server must notice the dead consumer and release the tailing
    task within one poll interval (observed via the ``sse_streams``
    gauge on /healthz) instead of pinning it for the job's runtime.
    """

    async def _go() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
            "Host: campaign\r\n\r\n".encode()
        )
        await writer.drain()
        await reader.read(256)  # response head; the stream is now live
        writer.transport.abort()  # RST, not FIN: the rudest disconnect
        deadline = asyncio.get_event_loop().time() + 10.0
        while asyncio.get_event_loop().time() < deadline:
            if app._sse_active == 0:
                return
            await asyncio.sleep(app.poll_interval)
        raise RuntimeError(
            "server did not release the SSE stream after disconnect"
        )

    await asyncio.wait_for(_go(), RESILIENCE_STEP_TIMEOUT_S)


async def _poll_terminal(host: str, port: int, job_id: str) -> dict:
    """Poll /jobs/{id} until the record reaches done/failed."""

    async def _go() -> dict:
        while True:
            _status, body = await _http_json(host, port,
                                             "GET", f"/jobs/{job_id}")
            if body is not None and body.get("state") in ("done", "failed"):
                return body
            await asyncio.sleep(0.1)

    return await asyncio.wait_for(_go(), RESILIENCE_JOB_TIMEOUT_S)


def _typed_error_text(error: Optional[str]) -> bool:
    """Whether a failed record's error string names a typed failure."""
    if not error:
        return False
    typed_names = tuple(t.__name__ for t in TYPED_ERRORS) + (
        "TaskCancelled", "AlignmentError", "ResourceLimitError",
    )
    return error.startswith(typed_names)


async def _resilience_seed(seed: int, fasta: str, spec: JobSpec,
                           n_workers: int, rundir: str,
                           baseline_canonical: str) -> ChaosRunResult:
    from ..serve.app import ServeApp
    from ..serve.jobstore import JobService

    plan = default_resilience_plan(seed)
    fired: Dict[str, int] = {}
    try:
        with inject(plan) as injector:
            try:
                service = JobService(
                    rundir, n_workers=n_workers,
                    cluster=_resilience_cluster_config(n_workers),
                    clock=_make_clock(),
                )
                app = ServeApp(service, port=0, poll_interval=0.05,
                               header_timeout_s=0.5, body_timeout_s=5.0,
                               drain_grace_s=20.0)
                await app.start()
                try:
                    host, port = app.host, app.port
                    # Scenario draws: whether this seed plays each
                    # hostile-client behaviour (one draw per seed, so
                    # the schedule is independent of request count).
                    slow = injector.fire(SERVE_SLOW_CLIENT,
                                         key=f"seed{seed}")
                    sse_drop = injector.fire(SERVE_CLIENT_DISCONNECT_MID_SSE,
                                             key=f"seed{seed}")
                    if slow:
                        await _slow_client_probe(host, port,
                                                 app.header_timeout_s)
                    status, body = await _http_json(
                        host, port, "POST", "/jobs",
                        {"alignment": fasta,
                         "model": {"n_inferences": spec.n_inferences,
                                   "n_bootstraps": spec.n_bootstraps,
                                   "seed": spec.seed,
                                   "batch_size": spec.batch_size},
                         "client": "campaign"},
                    )
                    if status not in (200, 201):
                        raise RuntimeError(
                            f"submit rejected: {status} {body}")
                    job_id = body["job_id"]
                    if sse_drop:
                        await _sse_disconnect_probe(host, port, job_id,
                                                    app)
                    record = await _poll_terminal(host, port, job_id)
                    if record["state"] == "failed":
                        raise RuntimeError(
                            f"job failed: {record.get('error')}")
                    _status, result = await _http_json(
                        host, port, "GET", f"/jobs/{job_id}/result")
                finally:
                    await asyncio.wait_for(app.stop(),
                                           app.drain_grace_s + 30.0)
                # Worker faults fire in forked children (their injector
                # counters die with them); observe them from the journal.
                journal = service.store.journal_path(job_id)
                if os.path.exists(journal):
                    state = replay(journal)
                    for death in state.worker_deaths:
                        reason = str(death.get("reason"))
                        key = f"observed.worker_{reason}"
                        fired[key] = fired.get(key, 0) + 1
            finally:
                for site, count in injector.fired.items():
                    fired[site] = fired.get(site, 0) + count
        if _canonical_result(result) == baseline_canonical:
            classification = SURVIVED_IDENTICAL
        elif result is not None and result.get("degraded"):
            classification = SURVIVED_DEGRADED
        else:
            classification = SILENT_CORRUPTION
        return ChaosRunResult(
            seed=seed, classification=classification,
            log_likelihood=(result or {}).get("best_log_likelihood"),
            fired=fired,
        )
    except asyncio.TimeoutError:
        return ChaosRunResult(
            seed=seed, classification=UNTYPED_FAILURE, fired=fired,
            error="Hang: step watchdog expired",
        )
    except TYPED_ERRORS as exc:
        return ChaosRunResult(
            seed=seed, classification=TYPED_FAILURE, fired=fired,
            error=f"{type(exc).__name__}: {exc}",
        )
    except RuntimeError as exc:
        # A failed job record carries its (string-typed) error; honour
        # the typed/untyped split it encodes.
        failed_typed = str(exc).startswith("job failed: ") and \
            _typed_error_text(str(exc)[len("job failed: "):])
        return ChaosRunResult(
            seed=seed,
            classification=TYPED_FAILURE if failed_typed
            else UNTYPED_FAILURE,
            fired=fired, error=f"{type(exc).__name__}: {exc}",
        )
    except Exception as exc:  # noqa: BLE001 — the untyped-failure gate
        return ChaosRunResult(
            seed=seed, classification=UNTYPED_FAILURE, fired=fired,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_resilience_campaign(
    n_seeds: int = 15,
    n_workers: int = 2,
    workdir: Optional[str] = None,
    start_seed: int = 0,
    fasta: Optional[str] = None,
    spec: Optional[JobSpec] = None,
) -> ChaosSurvivalReport:
    """Sweep hostile clients + wedged workers against a live server.

    Each seed boots a real :class:`~repro.serve.app.ServeApp` on an
    ephemeral port over a fresh store root and, per
    :func:`~repro.chaos.plan.default_resilience_plan`, plays a
    slowloris submit (expects a typed 408), drops an SSE stream mid-job
    (expects release within one poll interval), and lets
    ``cluster.worker_stall`` / ``cluster.worker_oom`` fire inside the
    forked workers (expects the task timeout / RSS watchdog to journal
    and requeue).  Every step runs under its own watchdog: a hang is an
    automatic campaign failure.  Survival requires the final result to
    be byte-identical to the fault-free baseline.
    """
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-resilience-")
    if fasta is None:
        fasta = _serve_workload()
    if spec is None:
        spec = _resilience_spec()
    baseline, _restarts, _svc = _serve_run_to_completion(
        os.path.join(workdir, "baseline"), fasta, spec, n_workers,
        max_restarts=0,
    )
    baseline_canonical = _canonical_result(baseline)
    report = ChaosSurvivalReport(label=f"resilience:{n_workers}w")
    for seed in range(start_seed, start_seed + n_seeds):
        report.add(asyncio.run(_resilience_seed(
            seed, fasta, spec, n_workers,
            os.path.join(workdir, f"seed{seed:03d}"),
            baseline_canonical,
        )))
    return report
