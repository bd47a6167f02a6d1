"""K-seed chaos campaigns against fault-free baselines.

A campaign runs the *same* small workload once cleanly and then
``n_seeds`` times under seeded :class:`~repro.chaos.plan.FaultPlan`
adversaries, classifying every run against the baseline (see
:mod:`repro.chaos.report`).  The contract it enforces is binary: a run
either completes with an answer bit-identical to the fault-free
baseline (or loudly degraded within tolerance), or it fails with a
typed error.  ``silent_corruption`` — completing with a different
answer and reporting nothing — is the one class that fails CI.

One driver, :func:`run_campaign` (per seed: :meth:`Campaign.run_seed`),
owns what every campaign shares: the ``baseline/`` and ``seed%03d/``
run directories, the seed loop, the injector and its ``fired`` capture,
the failure classifier (:func:`classify_failure`) and the
:class:`~repro.chaos.report.ChaosSurvivalReport`.  An :class:`Arm`
keeps only what differs — its default sites, how it builds its
baseline, how it drives one job, and its verdict — and :data:`ARMS`
registers four:

``engine``
    one in-process :func:`~repro.phylo.inference.infer_tree` per kernel
    backend under CLV poison, forced underflow and P-matrix corruption.
``cluster``
    a journalled master-worker job under worker crash/hang, torn journal
    and checkpoint writes and transient append errors, resumed from its
    journal after every injected master crash.
``serve``
    the inference service under ``serve.server_kill``: a fresh service
    recovers the same store root after every kill, and the result (plus
    the cache hit of an identical resubmission) must be byte-identical.
``resilience``
    a *live* HTTP server under hostile clients (slowloris submits,
    mid-SSE disconnects) and wedged workers (``cluster.worker_stall``,
    ``cluster.worker_oom``), every step under its own watchdog: typed
    errors, journalled degradation, or bit-identical results — never a
    hang.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..cluster.checkpoint import JournalWriteError, atomic_write, replay
from ..cluster.jobs import JOB_FIELDS, JobSpec
from ..cluster.queue import ClusterConfig, TaskExecutionError
from ..cluster.runner import run_job
from ..phylo.alignment import Alignment, PatternAlignment
from ..phylo.engine.protocol import EngineNumericalError
from ..phylo.inference import infer_tree
from ..phylo.search import SearchConfig
from ..phylo.simulate import synthetic_dataset
from .injector import InjectedCrash, fire, inject
from .plan import (
    CLUSTER_SITES,
    ENGINE_SITES,
    RESILIENCE_SITES,
    SERVE_CLIENT_DISCONNECT_MID_SSE,
    SERVE_SITES,
    SERVE_SLOW_CLIENT,
    FaultPlan,
    default_plan,
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
    "ARMS",
    "Arm",
    "Baseline",
    "Campaign",
    "CampaignJob",
    "SeedRun",
    "CAMPAIGN_WORKLOAD",
    "MAX_RECOVERIES",
    "campaign_search_config",
    "classify_failure",
    "journal_payload_digest",
    "run_campaign",
]

#: The shared campaign workload: small enough that a 25-seed sweep over
#: both backends stays in CI budget, large enough that a search visits
#: every instrumented site many times.
CAMPAIGN_WORKLOAD = {"n_taxa": 8, "n_sites": 300, "seed": 11}

#: Inference seed for the engine arm (all chaos seeds rerun the *same*
#: search so the baseline comparison is bit-for-bit meaningful).
ENGINE_INFER_SEED = 3

#: A degraded run fell back to the reference backend mid-flight; its
#: answer may differ from the original backend's in the last bits but
#: must agree to this relative tolerance.
DEGRADED_REL_TOL = 1e-6

#: Master crashes (cluster) or server kills (serve) one seed may recover
#: from; the next injected crash is its typed failure.
MAX_RECOVERIES = 4

#: Typed errors a chaos run is allowed to die with (the loud-failure
#: contract of DESIGN.md §11); anything else is ``untyped_failure``.
TYPED_ERRORS = (
    EngineNumericalError,
    TaskExecutionError,
    JournalWriteError,
    InjectedCrash,
)

#: Further typed names a failed job record's error string may start
#: with: the service stores errors as text, not as exceptions.
TYPED_RECORD_ERRORS = tuple(t.__name__ for t in TYPED_ERRORS) + (
    "TaskCancelled", "AlignmentError", "ResourceLimitError",
)

#: The prefix the resilience arm raises a failed job record's error
#: under (``RuntimeError(JOB_FAILED + record["error"])``).
JOB_FAILED = "job failed: "


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


def classify_failure(exc: BaseException) -> Tuple[str, str]:
    """``(classification, error text)`` of a seed that raised *exc*.

    Typed errors are ``typed_failure``; an expired watchdog is an
    untyped "Hang"; a failed job record whose error names a typed
    failure is typed; anything else is ``untyped_failure``.
    """
    text = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, TYPED_ERRORS):
        return TYPED_FAILURE, text
    if isinstance(exc, asyncio.TimeoutError):
        return UNTYPED_FAILURE, "Hang: step watchdog expired"
    message = str(exc)
    if (isinstance(exc, RuntimeError) and message.startswith(JOB_FAILED)
            and message[len(JOB_FAILED):].startswith(TYPED_RECORD_ERRORS)):
        return TYPED_FAILURE, text
    return UNTYPED_FAILURE, text


# -- the driver ---------------------------------------------------------------


@dataclass(frozen=True)
class CampaignJob:
    """The workload every seed of one campaign reruns, and where: the
    alignment as patterns (in-process arms) and as FASTA text (served
    arms), the job spec, the worker count and the kernel backend."""

    patterns: PatternAlignment
    fasta: str
    spec: Optional[JobSpec]
    n_workers: int
    backend: Optional[str]


@dataclass(frozen=True)
class Baseline:
    """The fault-free answer: its log likelihood and the fingerprint a
    surviving seed must reproduce byte for byte (the replayed payload
    digest, or the canonical result JSON)."""

    log_likelihood: float
    fingerprint: Optional[str] = None


@dataclass
class SeedRun:
    """One run in flight: its directory, and what its job driver records
    besides the injector's fires."""

    rundir: str
    seed: Optional[int] = None  # None for the fault-free baseline
    resumes: int = 0
    #: read back from the journal or the store after the run (worker
    #: deaths by reason, retries, a cache miss on the duplicate
    #: submission); never counted as an injector fire.
    observed: Dict[str, int] = field(default_factory=dict)


#: ``(classification, log likelihood, degraded count)`` of a survived run.
Verdict = Tuple[str, Optional[float], int]


@dataclass(frozen=True)
class Arm:
    """What one kind of campaign does that the driver does not."""

    name: str
    sites: Tuple[str, ...]
    #: the job every seed runs unless the caller passes another
    spec: Optional[JobSpec]
    baseline: Callable[[CampaignJob, SeedRun], Baseline]
    #: drives one job under the active injector; returns its outcome
    drive: Callable[[CampaignJob, SeedRun], object]
    #: the outcome against the baseline, after the injector is off
    verdict: Callable[[CampaignJob, object, Baseline, SeedRun], Verdict]
    #: the engine arm runs once per kernel backend
    per_backend: bool = False


class Campaign:
    """One arm's workload and its fault-free baseline, computed on
    construction under ``workdir/baseline``; every seed then runs in
    ``workdir/seed%03d``."""

    def __init__(self, arm: str, *, workdir: str, n_workers: int = 2,
                 backend: Optional[str] = None,
                 alignment: Optional[Alignment] = None,
                 spec: Optional[JobSpec] = None):
        self.arm = ARMS[arm]
        if alignment is None:
            alignment = synthetic_dataset(**CAMPAIGN_WORKLOAD)
        self.job = CampaignJob(alignment.compress(), alignment.to_fasta(),
                               spec or self.arm.spec, n_workers, backend)
        self.workdir = workdir
        self.baseline = self.arm.baseline(
            self.job, SeedRun(os.path.join(self.workdir, "baseline")))

    @property
    def label(self) -> str:
        if self.arm.per_backend:
            return f"{self.arm.name}:{self.job.backend or 'default'}"
        return f"{self.arm.name}:{self.job.n_workers}w"

    def run_seed(self, plan: FaultPlan) -> ChaosRunResult:
        """Run the job under *plan* and classify it against the baseline."""
        run = SeedRun(os.path.join(self.workdir, f"seed{plan.seed:03d}"),
                      plan.seed)
        fired: Dict[str, int] = {}
        lnl, degraded, error = None, 0, None
        try:
            with inject(plan) as injector:
                try:
                    outcome = self.arm.drive(self.job, run)
                finally:
                    fired = dict(injector.fired)
            classification, lnl, degraded = self.arm.verdict(
                self.job, outcome, self.baseline, run)
        except Exception as exc:  # noqa: BLE001 — the untyped-failure gate
            classification, error = classify_failure(exc)
        return ChaosRunResult(
            seed=plan.seed, classification=classification,
            log_likelihood=lnl,
            baseline_log_likelihood=self.baseline.log_likelihood,
            fired=fired, observed=run.observed, error=error,
            resumes=run.resumes, degraded=degraded,
        )


def run_campaign(arm: str, n_seeds: int = 25, *, start_seed: int = 0,
                 sites: Optional[Tuple[str, ...]] = None,
                 **setup) -> ChaosSurvivalReport:
    """Sweep seeds ``start_seed ..`` of *arm* (a key of :data:`ARMS`)
    under the standard plan over *sites* (default: the arm's);
    ``setup`` is :class:`Campaign`'s keywords (``n_workers``,
    ``backend``, ``workdir``, ``alignment``, ``spec``); without a
    ``workdir`` the campaign runs in a temporary one, removed after."""
    with tempfile.TemporaryDirectory(prefix=f"repro-chaos-{arm}-") as tmp:
        campaign = Campaign(arm, **{**setup,
                                    "workdir": setup.get("workdir") or tmp})
        sites = campaign.arm.sites if sites is None else sites
        report = ChaosSurvivalReport(label=campaign.label)
        for seed in range(start_seed, start_seed + n_seeds):
            report.add(campaign.run_seed(default_plan(sites, seed)))
    return report


# -- shared pieces ------------------------------------------------------------


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


def _observe_journal(path: str, run: SeedRun) -> None:
    """Count the journal's worker deaths by reason, and its retries."""
    state = replay(path)
    for death in state.worker_deaths:
        key = f"worker_{death.get('reason')}"
        run.observed[key] = run.observed.get(key, 0) + 1
    if state.retries:
        run.observed["retries"] = len(state.retries)


def _canonical_result(payload: Optional[dict]) -> str:
    return json.dumps(payload, sort_keys=True)


# -- engine arm ---------------------------------------------------------------


def _engine_drive(job: CampaignJob, run: SeedRun
                  ) -> Tuple[float, Dict[str, int]]:
    """One full inference; returns (lnL, engine perf counters)."""
    result = infer_tree(
        job.patterns,
        config=campaign_search_config(),
        seed=ENGINE_INFER_SEED,
        backend=job.backend,
    )
    return result.log_likelihood, result.perf


def _engine_baseline(job: CampaignJob, run: SeedRun) -> Baseline:
    return Baseline(_engine_drive(job, run)[0])


def _engine_verdict(job, outcome, baseline: Baseline, run) -> Verdict:
    lnl, counters = outcome
    degraded = int(counters.get("degraded", 0))
    if degraded == 0 and lnl == baseline.log_likelihood:
        return SURVIVED_IDENTICAL, lnl, degraded
    if degraded > 0 and abs(lnl - baseline.log_likelihood) <= (
        DEGRADED_REL_TOL * abs(baseline.log_likelihood)
    ):
        return SURVIVED_DEGRADED, lnl, degraded
    return SILENT_CORRUPTION, lnl, degraded


# -- cluster arm --------------------------------------------------------------


def _cluster_drive(job: CampaignJob, run: SeedRun):
    """Run the job to completion through master crashes (``run_job``
    again after each continues its journal, or starts afresh when the
    crash tore the header), then write the best-tree checkpoint."""
    os.makedirs(run.rundir, exist_ok=True)
    journal_path = os.path.join(run.rundir, "journal.jsonl")
    cfg = _cluster_config(job.n_workers)
    clock = _make_clock()
    analysis = None
    while analysis is None:
        try:
            analysis = run_job(job.spec, job.patterns,
                               journal_path=journal_path, cluster=cfg,
                               clock=clock)
        except InjectedCrash:
            if run.resumes >= MAX_RECOVERIES:
                raise
            run.resumes += 1
    # Post-run checkpoint: the atomic best-tree write is itself a fault
    # site (cluster.checkpoint_torn); a torn attempt must leave the
    # target intact, and the bounded retry must land the full content.
    attempt = 0
    while True:
        try:
            atomic_write(os.path.join(run.rundir, "best.tree"),
                         analysis.best.newick + "\n")
            break
        except InjectedCrash:
            attempt += 1
            if attempt > 3:
                raise
    return analysis


def _cluster_baseline(job: CampaignJob, run: SeedRun) -> Baseline:
    analysis = _cluster_drive(job, run)
    return Baseline(
        analysis.best.log_likelihood,
        journal_payload_digest(os.path.join(run.rundir, "journal.jsonl")),
    )


def _cluster_verdict(job, analysis, baseline: Baseline, run: SeedRun
                     ) -> Verdict:
    """Survival requires the best log likelihood, the replayed payload
    digest and the checkpoint to match the baseline exactly — worker
    count, retries and resume boundaries must be invisible."""
    journal_path = os.path.join(run.rundir, "journal.jsonl")
    lnl = analysis.best.log_likelihood
    with open(os.path.join(run.rundir, "best.tree")) as fh:
        checkpoint_ok = fh.read() == analysis.best.newick + "\n"
    _observe_journal(journal_path, run)
    identical = (
        lnl == baseline.log_likelihood
        and journal_payload_digest(journal_path) == baseline.fingerprint
        and checkpoint_ok
    )
    return (SURVIVED_IDENTICAL if identical else SILENT_CORRUPTION), lnl, 0


# -- serve arm ----------------------------------------------------------------


def _serve_drive(job: CampaignJob, run: SeedRun):
    """Drive one submission to completion through server kills.

    Each :class:`~repro.chaos.injector.InjectedCrash` models the serving
    process dying; we discard the service object (its scheduler state
    dies with it) and build a fresh one over the same store root, whose
    :meth:`~repro.serve.jobstore.JobService.recover` re-enqueues the
    orphaned job.  Returns ``(result payload, final service)``: its
    workers are gone, its store is open, and the caller closes it.
    """
    from ..serve.jobstore import JobService

    cfg = _cluster_config(job.n_workers)
    service = JobService(run.rundir, n_workers=job.n_workers, cluster=cfg,
                         clock=_make_clock())
    try:
        record, hit = service.submit(job.fasta, job.spec, client="campaign")
        if hit:
            raise RuntimeError(
                "campaign submission unexpectedly hit the cache")
        while True:
            try:
                done = service.run_next()
            except InjectedCrash:
                if run.resumes >= MAX_RECOVERIES:
                    raise
                run.resumes += 1
                # The dead server's workers and open record log go with it.
                service.close()
                service = JobService(run.rundir, n_workers=job.n_workers,
                                     cluster=cfg, clock=_make_clock())
                service.recover()
                continue
            if done is None or done.job_id == record.job_id:
                break
        result = service.result(record.job_id)
        if result is None:
            record = service.store.get(record.job_id)
            raise RuntimeError(
                f"job finished without a result: state={record.state} "
                f"error={record.error}"
            )
    except BaseException:
        service.close()
        raise
    # The resident workers go; store, cache and scheduler views of the
    # returned service stay usable until the caller closes it.
    service.pool.close()
    return result, service


def _serve_baseline(job: CampaignJob, run: SeedRun) -> Baseline:
    result, service = _serve_drive(job, run)
    service.close()
    return Baseline(result["best_log_likelihood"], _canonical_result(result))


def _serve_verdict(job, outcome, baseline: Baseline, run: SeedRun
                   ) -> Verdict:
    """The result must be byte-identical to the baseline's, and the
    survived store must keep its caching contract: an identical
    resubmission is a hit and schedules no new run."""
    result, service = outcome
    runs_before = service.store.runs_executed
    try:
        _record, hit = service.submit(job.fasta, job.spec,
                                      client="campaign-dup")
    finally:
        service.close()
    cache_ok = hit and service.store.runs_executed == runs_before
    if not cache_ok:
        run.observed["cache_miss_on_dup"] = 1
    identical = _canonical_result(result) == baseline.fingerprint and cache_ok
    return ((SURVIVED_IDENTICAL if identical else SILENT_CORRUPTION),
            result["best_log_likelihood"], 0)


# -- resilience arm -----------------------------------------------------------
#
# A real ServeApp over HTTP attacked by hostile *clients* (slowloris
# submits, mid-SSE disconnects) while its workers wedge
# (cluster.worker_stall) or balloon (cluster.worker_oom) underneath.  The
# contract is the zero-hang closure: every step runs under its own
# asyncio watchdog, and a seed either survives with a result
# byte-identical to the fault-free baseline (journalled degradation
# allowed), or dies with a typed error — never a hang.

#: Per-HTTP-step watchdog; a step that outlives this is a hang, which
#: is classified untyped and fails the campaign.
RESILIENCE_STEP_TIMEOUT_S = 60.0

#: End-to-end watchdog for one seed's job reaching a terminal state
#: (covers a stalled worker costing one task timeout plus the rerun).
RESILIENCE_JOB_TIMEOUT_S = 300.0


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


async def _resilience_session(job: CampaignJob, run: SeedRun
                              ) -> Optional[dict]:
    """Boot a live server, play this seed's hostile clients, submit the
    job over HTTP and fetch its result."""
    from ..serve.app import ServeApp
    from ..serve.jobstore import JobService

    service = JobService(
        run.rundir, n_workers=job.n_workers,
        cluster=_resilience_cluster_config(job.n_workers),
        clock=_make_clock(),
    )
    app = ServeApp(service, port=0, poll_interval=0.05,
                   header_timeout_s=0.5, body_timeout_s=5.0,
                   drain_grace_s=20.0)
    await app.start()
    try:
        host, port = app.host, app.port
        # Scenario draws: whether this seed plays each hostile-client
        # behaviour (one draw per run, so the schedule is independent
        # of request count).
        key = f"seed{run.seed}"
        slow = fire(SERVE_SLOW_CLIENT, key=key)
        sse_drop = fire(SERVE_CLIENT_DISCONNECT_MID_SSE, key=key)
        if slow:
            await _slow_client_probe(host, port, app.header_timeout_s)
        spec = job.spec
        status, body = await _http_json(
            host, port, "POST", "/jobs",
            {"alignment": job.fasta,
             "model": {f.name: getattr(spec, f.name)
                       for f in JOB_FIELDS if not f.search},
             "client": "campaign"},
        )
        if status not in (200, 201):
            raise RuntimeError(f"submit rejected: {status} {body}")
        job_id = body["job_id"]
        if sse_drop:
            await _sse_disconnect_probe(host, port, job_id, app)
        record = await _poll_terminal(host, port, job_id)
        if record["state"] == "failed":
            raise RuntimeError(f"{JOB_FAILED}{record.get('error')}")
        _status, result = await _http_json(
            host, port, "GET", f"/jobs/{job_id}/result")
    finally:
        await asyncio.wait_for(app.stop(), app.drain_grace_s + 30.0)
    # Worker faults fire in forked children (their injector counters die
    # with them); observe them from the journal.
    journal = service.store.journal_path(job_id)
    if os.path.exists(journal):
        _observe_journal(journal, run)
    return result


def _resilience_drive(job: CampaignJob, run: SeedRun) -> Optional[dict]:
    return asyncio.run(_resilience_session(job, run))


def _resilience_verdict(job, result, baseline: Baseline, run) -> Verdict:
    lnl = (result or {}).get("best_log_likelihood")
    if _canonical_result(result) == baseline.fingerprint:
        return SURVIVED_IDENTICAL, lnl, 0
    if result is not None and result.get("degraded"):
        return SURVIVED_DEGRADED, lnl, 0
    return SILENT_CORRUPTION, lnl, 0


# -- the registry -------------------------------------------------------------

#: The serve and cluster arms' job: 1 inference + 4 bootstraps.
_CAMPAIGN_SPEC = JobSpec(
    n_inferences=1, n_bootstraps=4, seed=9, batch_size=2,
    config=campaign_search_config(),
)

#: The resilience job exactly as the HTTP API builds it: the submission
#: surface only exposes the ``model`` block, so the baseline must use the
#: default search the API-built spec implies — otherwise the two runs
#: answer different questions and the byte-identity check is meaningless.
_RESILIENCE_SPEC = JobSpec(n_inferences=1, n_bootstraps=4, seed=9,
                           batch_size=2)

ARMS: Dict[str, Arm] = {
    arm.name: arm for arm in (
        Arm("engine", ENGINE_SITES, None, _engine_baseline, _engine_drive,
            _engine_verdict, per_backend=True),
        Arm("cluster", CLUSTER_SITES, _CAMPAIGN_SPEC, _cluster_baseline,
            _cluster_drive, _cluster_verdict),
        Arm("serve", SERVE_SITES, _CAMPAIGN_SPEC, _serve_baseline,
            _serve_drive, _serve_verdict),
        # The baseline runs in process: the served result must equal it.
        Arm("resilience", RESILIENCE_SITES, _RESILIENCE_SPEC,
            _serve_baseline, _resilience_drive, _resilience_verdict),
    )
}
