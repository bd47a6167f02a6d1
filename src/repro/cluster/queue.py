"""Fault-tolerant multiprocessing work queue (the live master-worker).

The master drives worker processes it checks out of a
:class:`~repro.cluster.pool.WorkerPool` (resident across runs when the
caller owns the pool, forked per run otherwise) over one item pipe and
one result pipe *per worker*.  (A single shared outbox queue would hold
a cross-process write lock: terminating a worker — RSS watchdog, task
timeout, staleness sweep — while it holds that lock wedges every other
worker's messages.  Per-worker pipes confine the damage of a kill to
the dead worker's own channel, which the master simply discards.)
Workers heartbeat from a daemon thread while a job is open, stream one
message per finished *replicate* (so a batch that dies mid-way loses
only its tail), and report failures with full tracebacks.  The master
requeues work from dead, hung, or timed-out workers with bounded
exponential backoff and borrows replacements, so an injected ``os._exit``
mid-task (see :class:`WorkerPlans`) costs one retry, never the run.

Determinism: every replicate result is a pure function of
``(seed, kind, replicate)``, so retry count, worker count, arrival
order, and task granularity are all invisible in the final
:class:`~repro.phylo.inference.AnalysisResult`.
"""

from __future__ import annotations

import itertools
import multiprocessing.connection as mp_connection
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from zlib import crc32

import numpy as np

from ..chaos import injector as _chaos
from ..chaos.plan import (
    CLUSTER_WORKER_CRASH_ACK,
    CLUSTER_WORKER_HANG,
    CLUSTER_WORKER_OOM,
    CLUSTER_WORKER_STALL,
)
from ..phylo.inference import default_model_for, infer_tree
from ..phylo.models import GTR, HKY85, JC69, K80
from ..phylo.rates import GammaRates
from ..phylo.search import SearchConfig
from ..sched.mgps import summarize_phases
from .aggregate import StreamingAggregator
from .bootstop import BootstopController
from .cancel import REASON_DEADLINE, CancelToken, TaskCancelled
from .checkpoint import RunJournal
from .jobs import ClusterTask, JobSpec, PendingTask
from .pool import CLOSE, WorkerPool, _Worker
from .scheduler import MultigrainScheduler

__all__ = [
    "ClusterConfig",
    "ClusterQueue",
    "TaskExecutionError",
    "WorkerPlans",
    "execute_replicate",
    "retry_backoff",
]


class TaskExecutionError(RuntimeError):
    """A task failed permanently; carries the originating spec."""

    def __init__(self, task: ClusterTask, attempt: int, error: str):
        self.task = task
        self.attempt = attempt
        self.error = error
        super().__init__(
            f"task {task.task_id} (kind={task.kind}, "
            f"replicates={list(task.replicates)}, seed={task.seed}) "
            f"failed after {attempt} attempt(s): {error}"
        )


@dataclass(frozen=True)
class ClusterConfig:
    """Fault-tolerance knobs of the master loop."""

    n_workers: int = 2
    task_timeout_s: float = 300.0
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    #: Exponential backoff ceiling: retries never wait longer than this.
    retry_backoff_cap_s: float = 2.0
    #: Deterministic jitter fraction on top of the capped exponential
    #: delay (0.25 = up to +25%), derived from the task id and attempt —
    #: never ``random.random()`` — so two runs of the same plan produce
    #: the same retry schedule.
    retry_jitter: float = 0.25
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float = 10.0
    #: Per-worker resident-set ceiling in MiB (None = watchdog off).
    #: A worker over the ceiling is journalled (``worker_rss_exceeded``)
    #: and terminated, and its task requeued as a retry — a visible,
    #: bounded recovery instead of a silent kernel OOM-kill.
    max_worker_rss_mb: Optional[float] = None


def _rss_bytes(pid: int) -> Optional[int]:
    """Resident set size of *pid* via ``/proc`` (None if unsupported)."""
    try:
        with open(f"/proc/{pid}/statm") as fh:
            fields = fh.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, IndexError, ValueError):
        return None


def retry_backoff(cfg: ClusterConfig, task_id: str, attempt: int) -> float:
    """Capped exponential backoff with deterministic seeded jitter.

    The jitter decorrelates retries of different tasks (they do not all
    hammer the queue on the same tick) while staying a pure function of
    ``(task_id, attempt)`` — a resumed or re-run job reproduces the
    exact same delays.
    """
    base = min(
        cfg.retry_backoff_cap_s,
        cfg.retry_backoff_s * (2 ** (attempt - 1)),
    )
    jitter = crc32(f"{task_id}:{attempt}".encode()) / 2**32
    return base * (1.0 + cfg.retry_jitter * jitter)


@dataclass(frozen=True)
class WorkerPlans:
    """Failure injection for tests: ``task_id -> attempts`` to sabotage.

    ``crash`` kills the worker process mid-task (``os._exit``: after
    streaming all but the task's last replicate, so partial batch
    results are exercised), ``fail`` raises inside the task, ``hang``
    sleeps past any timeout.
    """

    crash: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    fail: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    hang: Dict[str, Tuple[int, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class ExecutionContext:
    """Model/search parameters shipped to every worker."""

    config: Optional[SearchConfig] = None
    model_name: Optional[str] = None
    alpha: Optional[float] = None
    categories: int = 4

    @classmethod
    def from_spec(cls, spec: JobSpec) -> "ExecutionContext":
        return cls(config=spec.config, model_name=spec.model_name,
                   alpha=spec.alpha, categories=spec.categories)


class _CounterCollector:
    """Minimal tracer: harvests ``engine.perf_counters`` per task.

    Every other tracer hook is a no-op, so attaching it cannot perturb
    the search trajectory (bit-identical to an untraced run).
    """

    def __init__(self):
        self._sources = []

    def add_counter_source(self, source) -> None:
        self._sources.append(source)

    def perf_counters(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for source in self._sources:
            merged.update(source())
        return merged

    def push_context(self, name):  # engine calls these unconditionally
        return None

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


def _build_model(ctx: ExecutionContext, patterns):
    """The same model the serial CLI path would construct."""
    name = ctx.model_name
    if name is None:
        return None  # infer_tree applies default_model_for per replicate
    if name == "GTR":
        return GTR((1.0, 2.5, 1.0, 1.0, 2.5, 1.0),
                   tuple(patterns.base_frequencies()))
    if name == "JC69":
        return JC69()
    if name == "K80":
        return K80()
    if name == "HKY85":
        return HKY85(2.0, tuple(patterns.base_frequencies()))
    if name == "default":
        return default_model_for(patterns)
    raise ValueError(f"unknown model {name}")


def execute_replicate(patterns, ctx: ExecutionContext, kind: str,
                      replicate: int, seed: int, cancel=None) -> dict:
    """Run one replicate, seeded from ``(seed, kind, replicate)`` alone.

    Returns a JSON-safe payload (Newick, log likelihood, kernel call
    counts, and the engine's :meth:`perf_counters` snapshot).  A
    tripped *cancel* token unwinds with ``TaskCancelled`` before any
    partial result is produced — a cancelled replicate is discarded
    whole, never streamed, so the result set stays a pure function of
    the completed replicate keys.
    """
    collector = _CounterCollector()
    model = _build_model(ctx, patterns)
    rate_model = (GammaRates(ctx.alpha, ctx.categories)
                  if ctx.alpha is not None else None)
    if kind == "inference":
        result = infer_tree(
            patterns, model=model, rate_model=rate_model, config=ctx.config,
            seed=seed, tracer=collector, replicate=replicate, cancel=cancel,
        )
    elif kind == "bootstrap":
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, 7919, replicate])
        )
        result = infer_tree(
            patterns.bootstrap_replicate(rng), model=model,
            rate_model=rate_model, config=ctx.config, seed=seed + 1,
            tracer=collector, is_bootstrap=True, replicate=replicate,
            cancel=cancel,
        )
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return {
        "kind": kind,
        "replicate": replicate,
        "seed": seed,
        "newick": result.newick,
        "log_likelihood": result.log_likelihood,
        "newview_calls": result.newview_calls,
        "makenewz_calls": result.makenewz_calls,
        "evaluate_calls": result.evaluate_calls,
        "is_bootstrap": result.is_bootstrap,
        "perf": collector.perf_counters(),
    }


#: How often a run with a ready task and no idle worker looks for one
#: that another run has checked back in.
LEND_POLL_S = 0.002

#: Pages the ``cluster.worker_oom`` site pins resident, in MiB.
_OOM_BALLAST_MB = 192


@dataclass
class _WorkerJob:
    """The per-job *open* message: what ``fork`` used to carry implicitly.

    A resident worker (:mod:`~repro.cluster.pool`) outlives the run that
    forked it, so everything a task needs besides ``(task, attempt)``
    travels here, once per job per worker.  ``worker_id`` is the run's
    *logical* id (0…n-1, replacements n, n+1, …), not a process
    identity, so journals read the same whichever process served them.

    *deadline* is the run's absolute ``time.monotonic()`` expiry (one
    system-wide clock, so master and worker agree on it without
    traffic).  The worker polls it at the search's safe points and
    reports a ``cancelled`` message instead of a result; the master
    trips its own copy of the deadline at the same instant.
    """

    worker_id: int
    patterns: object
    ctx: ExecutionContext
    plans: WorkerPlans
    heartbeat_interval_s: float
    deadline: Optional[float] = None

    def open(self) -> None:
        """Worker side: build what cannot be pickled."""
        self._token = (CancelToken(deadline=self.deadline)
                       if self.deadline is not None else None)

    def close(self) -> None:
        """Worker side: the job is over; nothing is held open."""

    def run(self, item, send, mute) -> None:
        """Execute one ``(task, attempt)`` item, streaming per replicate."""
        task, attempt = item
        worker_id, plans = self.worker_id, self.plans
        send(("started", worker_id, task.task_id, attempt))
        # Chaos process faults are decided on (task_id, attempt) —
        # worker-count- and dispatch-order-independent — by the
        # injector this process inherited at fork (the pool's epoch
        # check keeps that the *current* injector).
        chaos_key = f"{task.task_id}:{attempt}"
        try:
            if attempt in plans.fail.get(task.task_id, ()):
                raise RuntimeError(
                    f"injected failure ({task.task_id} attempt {attempt})"
                )
            if attempt in plans.hang.get(task.task_id, ()):
                time.sleep(3600)
            if _chaos._ACTIVE is not None and _chaos.fire(
                CLUSTER_WORKER_HANG, key=chaos_key
            ):
                # Hang *past the heartbeat*: stop beating first so
                # the master's staleness sweep, not the task
                # timeout, is what must catch this.
                mute()
                time.sleep(3600)
            if _chaos._ACTIVE is not None and _chaos.fire(
                CLUSTER_WORKER_STALL, key=chaos_key
            ):
                # Wedge while *still heartbeating* (a livelocked
                # worker, not a dead one): the task timeout, not the
                # staleness sweep, must catch this.
                time.sleep(3600)
            if _chaos._ACTIVE is not None and _chaos.fire(
                CLUSTER_WORKER_OOM, key=chaos_key
            ):
                # Runaway allocation: pin pages resident, then stall
                # with the heartbeat alive so the RSS watchdog (when
                # configured) is what must journal and requeue.
                ballast = np.ones((_OOM_BALLAST_MB * 1024 * 1024) // 8)
                ballast[0] = 2.0
                time.sleep(3600)
            crash = attempt in plans.crash.get(task.task_id, ())
            last = len(task.replicates) - 1
            for position, replicate in enumerate(task.replicates):
                if crash and position == last:
                    os._exit(17)  # simulated mid-task worker death
                payload = execute_replicate(
                    self.patterns, self.ctx, task.kind, replicate,
                    task.seed, cancel=self._token,
                )
                send(
                    ("replicate", worker_id, task.task_id, attempt,
                     payload)
                )
            if _chaos._ACTIVE is not None and _chaos.fire(
                CLUSTER_WORKER_CRASH_ACK, key=chaos_key
            ):
                # Every replicate streamed, then death before the
                # task-finished ack: the master must reconcile a
                # fully-delivered task against a dead worker.
                os._exit(23)
            send(("finished", worker_id, task.task_id, attempt))
        except TaskCancelled:
            # Deadline tripped mid-replicate: the partial replicate
            # is discarded whole (already-streamed replicates of the
            # batch stand).  No requeue — the master's own copy of
            # the deadline ends the run.
            send(("cancelled", worker_id, task.task_id, attempt))
        except BaseException:
            send(
                ("failed", worker_id, task.task_id, attempt,
                 traceback.format_exc())
            )


class ClusterQueue:
    """The master loop: dispatch, monitor, retry, aggregate."""

    def __init__(
        self,
        patterns,
        ctx: Optional[ExecutionContext] = None,
        cluster: Optional[ClusterConfig] = None,
        journal: Optional[RunJournal] = None,
        plans: Optional[WorkerPlans] = None,
        aggregator: Optional[StreamingAggregator] = None,
        bootstop: Optional[BootstopController] = None,
        pool: Optional[WorkerPool] = None,
    ):
        self.patterns = patterns
        self.ctx = ctx or ExecutionContext()
        self.cfg = cluster or ClusterConfig()
        self.journal = journal or RunJournal(None)
        self.plans = plans or WorkerPlans()
        self.aggregator = aggregator or StreamingAggregator()
        self.bootstop = bootstop
        #: where worker processes come from and go back to; None = a
        #: private pool per run (fork at the start, terminate at the end)
        self.pool = pool
        self.scheduler: Optional[MultigrainScheduler] = None
        #: why the run stopped early (``REASON_*``), None on completion
        self.cancelled_reason: Optional[str] = None

    def run(
        self,
        tasks: List[ClusterTask],
        already: Optional[Dict[Tuple[str, int], dict]] = None,
        cancel: Optional[CancelToken] = None,
    ) -> Dict[Tuple[str, int], dict]:
        """Execute *tasks*; returns ``(kind, replicate) -> payload``.

        *already* seeds results replayed from a journal (their tasks
        must not be in *tasks* - :func:`~repro.cluster.jobs.expand_job`
        handles the exclusion).

        *cancel* is the run's cooperative cancellation token.  The
        master polls it once per loop iteration; workers get its
        absolute deadline in their open message.  When it trips, the
        master journals the event (``task_deadline_exceeded`` for a
        deadline, ``run_cancelled`` otherwise — e.g. a drain), sets
        :attr:`cancelled_reason`, terminates the workers, and returns
        the completed results so the caller can salvage or checkpoint.

        Workers are borrowed from :attr:`pool` while the run has a
        ready task and no idle worker, up to ``n_workers``, and each
        live one is closed and checked back in as soon as nothing is
        left to dispatch to it; a run that ends any other way
        (cancelled, or unwinding an exception) terminates the workers
        it holds.
        """
        results: Dict[Tuple[str, int], dict] = dict(already or {})
        for payload in results.values():
            self.aggregator.ingest(payload)
            if self.bootstop is not None and payload.get("is_bootstrap"):
                self.bootstop.note(payload["replicate"], payload["newick"])
        remaining = {
            key for t in tasks for key in t.keys() if key not in results
        }
        pending = [PendingTask(t) for t in tasks]
        # Replayed results alone may already satisfy the autoMRE
        # criterion (a crash can land between the converging replicate
        # and the journalled decision); check before taking any worker.
        pending = self._bootstop_check(pending, remaining, results)
        if not remaining:
            return results

        workers: Dict[int, _Worker] = {}
        next_wid = itertools.count()  # logical ids; never recycled
        n_workers = min(self.cfg.n_workers, max(1, len(pending)))
        self.scheduler = MultigrainScheduler(n_workers)
        pool = self.pool if self.pool is not None else WorkerPool(n_workers)
        deadline = cancel.deadline if cancel is not None else None

        def enlist(worker: _Worker) -> None:
            """Open this run's job on *worker* under the next logical id."""
            worker.wid = wid = next(next_wid)
            worker.current, worker.closing, worker.closed = None, False, False
            worker.last_seen = time.monotonic()
            workers[wid] = worker
            try:
                worker.inbox.send(_WorkerJob(
                    wid, self.patterns, self.ctx, self.plans,
                    self.cfg.heartbeat_interval_s, deadline,
                ))
            except OSError:
                pass  # died since check-out; the sweep replaces it

        def retire(wid: int) -> None:
            """Forget a worker; kill it and discard its pipes."""
            pool.retire(workers.pop(wid))

        def drain_messages(timeout: float) -> None:
            """Receive from every readable worker pipe.

            A dead worker's pipe raises EOF/OSError mid-``recv`` — the
            partial frame is discarded here and the liveness sweep
            journals the death; no other worker's channel is affected.
            """
            conns = [w.conn for w in workers.values()]
            if not conns:
                time.sleep(timeout)
                return
            try:
                ready = mp_connection.wait(conns, timeout)
            except OSError:
                return
            for conn in ready:
                try:
                    while True:
                        self._handle(conn.recv(), workers, results,
                                     remaining, requeue, time.monotonic())
                        if not conn.poll():
                            break
                except (EOFError, OSError):
                    continue  # worker died mid-write; the sweep reaps it

        def requeue(task: ClusterTask, attempt: int, error: str,
                    now: float) -> None:
            if self._bootstop_cancelled(task, results):
                return  # bootstopping already cancelled this work
            if all(key in results for key in task.keys()):
                return  # everything streamed out before the death
            will_retry = attempt < 1 + self.cfg.max_retries
            backoff = retry_backoff(self.cfg, task.task_id, attempt)
            self.journal.append(
                "task_failed", task=task.task_id, attempt=attempt,
                attempts=1 + self.cfg.max_retries,
                backoff_ms=round(backoff * 1000.0, 3),
                error=error.strip().splitlines()[-1] if error else "",
                will_retry=will_retry,
            )
            if not will_retry:
                raise TaskExecutionError(task, attempt, error)
            pending.append(PendingTask(task, attempt + 1, now + backoff))

        clean = False
        try:
            while remaining:
                now = time.monotonic()

                # -- cooperative cancellation --------------------------------
                if cancel is not None and cancel.cancelled:
                    reason = cancel.reason
                    self.cancelled_reason = reason
                    if reason == REASON_DEADLINE:
                        self.journal.append(
                            "task_deadline_exceeded",
                            remaining=len(remaining),
                            n_done=len(results),
                        )
                    else:
                        self.journal.append(
                            "run_cancelled", reason=reason,
                            remaining=len(remaining), n_done=len(results),
                        )
                    break

                # -- borrow for ready work no idle worker can take ---------
                idle = [w for w in workers.values() if w.current is None
                        and not w.closing and w.proc.is_alive()]
                want = 0 if idle else min(
                    sum(p.not_before <= now for p in pending),
                    n_workers - len(workers))
                if want:
                    # Holding nothing, wait briefly for another run's
                    # check-in; the cancel token is polled above.
                    idle = pool.checkout(want, wait=0.0 if workers else 0.05)
                    for worker in idle:
                        enlist(worker)
                short = want > len(idle)  # a ready task found no worker

                # -- dispatch to idle workers --------------------------------
                if idle and pending:
                    pending = self.scheduler.plan(pending, now)
                    for worker in idle:
                        ready = next((i for i, p in enumerate(pending)
                                      if p.not_before <= now), None)
                        if ready is None:
                            break  # only backoff-gated retries are left
                        entry = pending.pop(ready)
                        worker.current = (entry.task, entry.attempt, now)
                        try:
                            worker.inbox.send((entry.task, entry.attempt))
                        except OSError:
                            pass  # died this instant; the sweep requeues
                        self.scheduler.dispatched(entry)
                if not pending:
                    # Nothing left to dispatch: give idle workers back now,
                    # for whichever run has a task ready.
                    for worker in idle:
                        if worker.current is None:
                            self._close(worker)

                # -- drain worker messages -----------------------------------
                # A run short of workers polls for a check-in (its pipes
                # cannot wake it); one holding none has just waited.
                drain_messages((LEND_POLL_S if workers else 0.0) if short
                               else 0.05)
                pending = self._bootstop_check(pending, remaining, results)
                for wid in [wid for wid, w in workers.items() if w.closed]:
                    if self._parkable(workers[wid]):
                        pool.checkin(workers.pop(wid))
                    else:
                        retire(wid)

                # -- liveness / timeout / RSS sweep --------------------------
                now = time.monotonic()
                for wid, worker in list(workers.items()):
                    dead = not worker.proc.is_alive()
                    over_rss = not dead and self._over_rss(worker)
                    if worker.current is not None:
                        task, attempt, t0 = worker.current
                        timed_out = now - t0 > self.cfg.task_timeout_s
                        stale = (now - worker.last_seen
                                 > self.cfg.heartbeat_timeout_s)
                        if dead or timed_out or stale or over_rss:
                            reason = ("crash" if dead else
                                      "rss" if over_rss else
                                      "timeout" if timed_out else "heartbeat")
                            self.journal.append(
                                "worker_dead", worker=wid,
                                task=task.task_id, reason=reason,
                            )
                            retire(wid)
                            requeue(task, attempt,
                                    f"worker {wid} died ({reason})", now)
                    elif dead or over_rss:
                        retire(wid)

            # All replicates landed; drain the trailing task_finished
            # acknowledgements so the journal closes every task.  A
            # worker that died after streaming the run's last replicate
            # never acks: its death is journalled here, as the sweep
            # would have done had any work remained.  A cancelled run
            # skips this — its workers are being killed.
            completed = self.cancelled_reason is None
            settle_by = time.monotonic() + (1.0 if completed else 0.0)
            while (any(w.current is not None for w in workers.values())
                   and time.monotonic() < settle_by):
                drain_messages(0.05)
                for wid, worker in list(workers.items()):
                    if worker.current is not None \
                            and not worker.proc.is_alive():
                        self.journal.append(
                            "worker_dead", worker=wid,
                            task=worker.current[0].task_id, reason="crash",
                        )
                        retire(wid)
            clean = completed  # nothing raised on the way here either
        finally:
            self._release(pool, workers, clean, drain_messages)

        phases = self.scheduler.finish()
        self.journal.append(
            "run_progress",
            phases=summarize_phases(phases),
            splits=self.scheduler.splits,
        )
        return results

    # -- internals ----------------------------------------------------------

    def _bootstop_stopped_replicate(self, payload: dict) -> bool:
        """True when bootstopping has already cancelled this replicate."""
        return (
            self.bootstop is not None
            and self.bootstop.stopped_at is not None
            and bool(payload.get("is_bootstrap"))
            and payload["replicate"] >= self.bootstop.stopped_at
        )

    def _bootstop_cancelled(self, task: ClusterTask, results) -> bool:
        """True when every outstanding replicate of *task* is cancelled."""
        if self.bootstop is None or self.bootstop.stopped_at is None:
            return False
        stop_at = self.bootstop.stopped_at
        return task.kind == "bootstrap" and all(
            r >= stop_at or ("bootstrap", r) in results
            for r in task.replicates
        )

    def _bootstop_check(self, pending, remaining, results):
        """Poll the autoMRE controller; cancel bootstrap work on stop.

        Journals the decision, drops the pending bootstrap tasks, and
        evicts replicates past the stop point from the aggregate and
        the result map — in-flight workers may still deliver them, but
        :meth:`_handle` discards those arrivals, so the final payload
        set is exactly ``[0, stop_at)`` regardless of timing.
        """
        if self.bootstop is None:
            return pending
        check = self.bootstop.poll()
        if check is None:
            return pending
        stop_at = self.bootstop.stopped_at
        self.journal.append(
            "bootstop_converged",
            stop_at=stop_at,
            requested=self.bootstop.n_requested,
            metric=check.metric,
            pass_fraction=check.pass_fraction,
            threshold=self.bootstop.config.threshold,
            quorum=self.bootstop.config.quorum,
            n_permutations=self.bootstop.config.n_permutations,
            check_every=self.bootstop.config.check_every,
            seed=self.bootstop.seed,
        )
        pending = [p for p in pending if p.task.kind != "bootstrap"]
        for key in [k for k in remaining if k[0] == "bootstrap"]:
            remaining.discard(key)
        for key in [k for k in results
                    if k[0] == "bootstrap" and k[1] >= stop_at]:
            del results[key]
        self.aggregator.truncate_bootstraps(stop_at)
        return pending

    def _handle(self, message, workers, results, remaining, requeue,
                now: float) -> None:
        kind, wid = message[0], message[1]
        worker = workers.get(wid)
        if worker is not None:
            worker.last_seen = now
        if kind == "heartbeat":
            return
        if kind == "started":
            _, _, task_id, attempt = message
            self.journal.append("task_started", task=task_id,
                                attempt=attempt, worker=wid)
        elif kind == "replicate":
            _, _, task_id, attempt, payload = message
            if self._bootstop_stopped_replicate(payload):
                return  # raced past the journalled stop decision
            key = (payload["kind"], payload["replicate"])
            if key not in results:
                results[key] = payload
                self.aggregator.ingest(payload)
                if self.bootstop is not None and payload.get("is_bootstrap"):
                    self.bootstop.note(payload["replicate"],
                                       payload["newick"])
                self.journal.append("replicate_done", task=task_id,
                                    payload=payload)
            remaining.discard(key)
        elif kind == "finished":
            _, _, task_id, attempt = message
            self.journal.append("task_finished", task=task_id,
                                attempt=attempt, worker=wid)
            if worker is not None:
                worker.current = None
        elif kind == "closed":
            if worker is not None:
                worker.closed = True
        elif kind == "cancelled":
            # The worker's copy of the deadline tripped; no requeue —
            # the master's own token ends the run on its next loop.
            if worker is not None:
                worker.current = None
        elif kind == "failed":
            _, _, task_id, attempt, error = message
            if worker is not None and worker.current is not None:
                task = worker.current[0]
                worker.current = None
                requeue(task, attempt, error, now)

    def _over_rss(self, worker: _Worker) -> bool:
        """RSS watchdog: journal and report a worker over the ceiling."""
        if self.cfg.max_worker_rss_mb is None:
            return False
        rss = _rss_bytes(worker.proc.pid)
        if rss is None or rss <= self.cfg.max_worker_rss_mb * 1024 * 1024:
            return False
        self.journal.append(
            "worker_rss_exceeded", worker=worker.wid,
            task=worker.current[0].task_id if worker.current else None,
            rss_mb=round(rss / 1048576.0, 1),
            limit_mb=self.cfg.max_worker_rss_mb,
        )
        return True

    def _release(self, pool: WorkerPool, workers: Dict[int, _Worker],
                 clean: bool, drain_messages) -> None:
        """Hand the run's workers back: park the good, kill the rest.

        Only a run that ended normally parks anything, and only workers
        that have acknowledged the job's close (their pipe is quiet)
        and are :meth:`_parkable`.  Everything
        else — a cancelled run's mid-replicate workers, a wedged one,
        whatever an unwinding exception leaves behind — is terminated,
        not waited on: completed replicates are already journalled,
        partial ones are discarded by design.
        """
        parked: List[_Worker] = []
        try:
            if clean:
                parked = self._close_jobs(workers, drain_messages)
        finally:
            pool.retire(*(w for w in workers.values() if w not in parked))
            for worker in parked:
                pool.checkin(worker)
            workers.clear()
            if pool is not self.pool:
                pool.close()  # a private pool dies with its run

    @staticmethod
    def _close(worker: _Worker) -> None:
        """Close the job on an idle *worker* (once); it acks ``closed``."""
        if not worker.closing:
            worker.closing = True
            try:
                worker.inbox.send(CLOSE)
            except OSError:
                pass

    def _parkable(self, worker: _Worker) -> bool:
        return worker.proc.is_alive() and not self._over_rss(worker)

    def _close_jobs(self, workers: Dict[int, _Worker],
                    drain_messages) -> List[_Worker]:
        """Close the job on every idle worker; return those that acked
        and may be parked."""
        idle = [w for w in workers.values()
                if w.current is None and w.proc.is_alive()]
        for worker in idle:
            self._close(worker)
        ack_by = time.monotonic() + 1.0
        while (not all(w.closed for w in idle)
               and time.monotonic() < ack_by):
            drain_messages(0.05)
        return [w for w in idle if w.closed and self._parkable(w)]
