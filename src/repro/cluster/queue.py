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
from typing import Dict, List, Optional, Set, Tuple
from zlib import crc32

import numpy as np

from ..chaos import injector as _chaos
from ..chaos.plan import (
    CLUSTER_WORKER_CRASH_ACK,
    CLUSTER_WORKER_HANG,
    CLUSTER_WORKER_OOM,
    CLUSTER_WORKER_STALL,
)
from ..phylo.inference import bootstrap_inputs, infer_tree, named_model
from ..phylo.rates import GammaRates
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


#: Deterministic jitter fraction on top of the capped exponential retry
#: delay (0.25 = up to +25%), derived from the task id and attempt —
#: never ``random.random()`` — so two runs of the same plan produce the
#: same retry schedule.
RETRY_JITTER = 0.25


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
    return base * (1.0 + RETRY_JITTER * jitter)


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


def execute_replicate(patterns, spec: JobSpec, kind: str,
                      replicate: int, seed: int, cancel=None) -> dict:
    """Run one replicate, seeded from ``(seed, kind, replicate)`` alone.

    Returns a JSON-safe payload (Newick, log likelihood, kernel call
    counts, and the engine's :meth:`perf_counters` snapshot).  A
    tripped *cancel* token unwinds with ``TaskCancelled`` before any
    partial result is produced — a cancelled replicate is discarded
    whole, never streamed, so the result set stays a pure function of
    the completed replicate keys.
    """
    model = named_model(spec.model_name, patterns)
    rate_model = (GammaRates(spec.alpha, spec.categories)
                  if spec.alpha is not None else None)
    if kind == "inference":
        result = infer_tree(
            patterns, model=model, rate_model=rate_model, config=spec.config,
            seed=seed, replicate=replicate, cancel=cancel,
        )
    elif kind == "bootstrap":
        replicate_patterns, search_seed = bootstrap_inputs(
            patterns, seed, replicate)
        result = infer_tree(
            replicate_patterns, model=model,
            rate_model=rate_model, config=spec.config, seed=search_seed,
            is_bootstrap=True, replicate=replicate, cancel=cancel,
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
        "perf": result.perf,
    }


#: How often a run with a ready task and no idle worker looks for one
#: that another run has checked back in.
LEND_POLL_S = 0.002

#: How long a run whose last replicate has landed waits for trailing
#: acks (a task's ``finished``, a job's ``closed``) before it retires
#: the workers that have not sent theirs.
SETTLE_S = 1.0

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
    spec: JobSpec
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
                    self.patterns, self.spec, task.kind, replicate,
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
    """The master of one run: dispatch, monitor, retry, aggregate.

    A queue runs once (``run_job`` builds one per run, fresh or
    continued), so the run's state lives on it and :meth:`run` is one
    loop over that state.
    """

    def __init__(
        self,
        patterns,
        spec: JobSpec,
        cluster: Optional[ClusterConfig] = None,
        journal: Optional[RunJournal] = None,
        plans: Optional[WorkerPlans] = None,
        aggregator: Optional[StreamingAggregator] = None,
        bootstop: Optional[BootstopController] = None,
        pool: Optional[WorkerPool] = None,
    ):
        self.patterns = patterns
        self.spec = spec
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
        #: ``(kind, replicate) -> payload``, replayed and streamed
        self.results: Dict[Tuple[str, int], dict] = {}
        #: result keys still owed (bootstopping cancels the bootstraps')
        self.remaining: Set[Tuple[str, int]] = set()
        self.pending: List[PendingTask] = []
        #: the workers the run holds, by logical id
        self.workers: Dict[int, _Worker] = {}
        self._wids = itertools.count()  # logical ids; never recycled
        #: the cancel token's absolute deadline, shipped to every worker
        self.deadline: Optional[float] = None

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
        left to dispatch to it.  Once the last replicate lands, the
        loop runs on for at most :data:`SETTLE_S` for trailing acks.
        Whatever the run still holds when it ends — after that window,
        cancelled, or unwinding an exception — is terminated, not
        waited on: completed replicates are already journalled, partial
        ones are discarded by design.
        """
        for payload in (already or {}).values():
            self._accept(payload)
        self.remaining = {key for t in tasks for key in t.keys()
                          if key not in self.results}
        self.pending = [PendingTask(t) for t in tasks]
        # Replayed results alone may already satisfy the autoMRE
        # criterion (a crash can land between the converging replicate
        # and the journalled decision); check before taking any worker.
        self._bootstop_check()
        if not self.remaining:
            return self.results

        n_workers = min(self.cfg.n_workers, max(1, len(self.pending)))
        self.scheduler = MultigrainScheduler(n_workers)
        private = self.pool is None
        if private:
            self.pool = WorkerPool(n_workers)
        self.deadline = cancel.deadline if cancel is not None else None
        settle_by = None
        try:
            while self.workers or self.remaining:
                now = time.monotonic()
                if not self.remaining:
                    # Every replicate landed: settle trailing acks.
                    settle_by = settle_by or now + SETTLE_S
                    if now >= settle_by:
                        break
                elif cancel is not None and cancel.cancelled:
                    self._cancelled(cancel.reason)
                    break

                # -- borrow for ready work no idle worker can take ---------
                idle = [w for w in self.workers.values() if w.current is None
                        and not w.closing and w.proc.is_alive()]
                want = 0 if idle else min(
                    sum(p.not_before <= now for p in self.pending),
                    n_workers - len(self.workers))
                if want:
                    # Holding nothing, wait briefly for another run's
                    # check-in; the cancel token is polled above.
                    idle = self.pool.checkout(
                        want, wait=0.0 if self.workers else 0.05)
                    for worker in idle:
                        self._enlist(worker)
                short = want > len(idle)  # a ready task found no worker

                self._dispatch(idle, now)

                # -- drain worker messages -----------------------------------
                # A run short of workers polls for a check-in (its pipes
                # cannot wake it); one holding none has just waited.
                self._drain((LEND_POLL_S if self.workers else 0.0) if short
                            else 0.05)
                self._bootstop_check()
                for wid in [i for i, w in self.workers.items() if w.closed]:
                    worker = self.workers.pop(wid)
                    if worker.proc.is_alive() and not self._over_rss(worker):
                        self.pool.checkin(worker)
                    else:
                        self.pool.retire(worker)
                self._sweep(time.monotonic())
        finally:
            self.pool.retire(*self.workers.values())
            self.workers.clear()
            if private:
                self.pool.close()  # a private pool dies with its run

        phases = self.scheduler.finish(self.journal.last_time)
        self.journal.append(
            "run_progress",
            phases=summarize_phases(phases),
            splits=self.scheduler.splits,
        )
        return self.results

    # -- internals ----------------------------------------------------------

    def _cancelled(self, reason: str) -> None:
        self.cancelled_reason = reason
        counts = dict(remaining=len(self.remaining), n_done=len(self.results))
        if reason == REASON_DEADLINE:
            self.journal.append("task_deadline_exceeded", **counts)
        else:
            self.journal.append("run_cancelled", reason=reason, **counts)

    def _dispatch(self, idle: List[_Worker], now: float) -> None:
        """Hand ready tasks to *idle* workers; close those left idle
        once nothing is pending, for whichever run has a task ready."""
        if idle and self.pending:
            self.pending = self.scheduler.plan(self.pending,
                                               self.journal.last_time)
            for worker in idle:
                ready = next((i for i, p in enumerate(self.pending)
                              if p.not_before <= now), None)
                if ready is None:
                    break  # only backoff-gated retries are left
                entry = self.pending.pop(ready)
                worker.current = (entry.task, entry.attempt, now)
                self._send(worker, (entry.task, entry.attempt))
                self.scheduler.dispatched()
        if not self.pending:
            for worker in idle:
                if worker.current is None:
                    worker.closing = True
                    self._send(worker, CLOSE)  # acked ``closed``

    @staticmethod
    def _send(worker: _Worker, message) -> None:
        try:
            worker.inbox.send(message)
        except OSError:
            pass  # died since; the sweep reaps it and requeues its task

    def _enlist(self, worker: _Worker) -> None:
        """Open this run's job on *worker* under the next logical id."""
        worker.wid = wid = next(self._wids)
        worker.current, worker.closing, worker.closed = None, False, False
        worker.last_seen = time.monotonic()
        self.workers[wid] = worker
        self._send(worker, _WorkerJob(
            wid, self.patterns, self.spec, self.plans,
            self.cfg.heartbeat_interval_s, self.deadline,
        ))

    def _drain(self, timeout: float) -> None:
        """Receive from every readable worker pipe.

        A dead worker's pipe raises EOF/OSError mid-``recv`` — the
        partial frame is discarded here and the liveness sweep journals
        the death; no other worker's channel is affected.
        """
        conns = [w.conn for w in self.workers.values()]
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
                    self._handle(conn.recv(), time.monotonic())
                    if not conn.poll():
                        break
            except (EOFError, OSError):
                continue  # worker died mid-write; the sweep reaps it

    def _sweep(self, now: float) -> None:
        """Liveness / timeout / RSS: retire what is dead, hung or too
        big, journalling and requeueing whatever task it held."""
        for wid, worker in list(self.workers.items()):
            dead = not worker.proc.is_alive()
            over_rss = not dead and self._over_rss(worker)
            if worker.current is not None:
                task, attempt, t0 = worker.current
                timed_out = now - t0 > self.cfg.task_timeout_s
                stale = now - worker.last_seen > self.cfg.heartbeat_timeout_s
                if dead or timed_out or stale or over_rss:
                    reason = ("crash" if dead else
                              "rss" if over_rss else
                              "timeout" if timed_out else "heartbeat")
                    self.journal.append(
                        "worker_dead", worker=wid,
                        task=task.task_id, reason=reason,
                    )
                    self.pool.retire(self.workers.pop(wid))
                    self._requeue(task, attempt,
                                  f"worker {wid} died ({reason})", now)
            elif dead or over_rss:
                self.pool.retire(self.workers.pop(wid))

    def _requeue(self, task: ClusterTask, attempt: int, error: str,
                 now: float) -> None:
        if all(key in self.results or self._bootstopped(*key)
               for key in task.keys()):
            return  # streamed out before the death, or bootstopped
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
        self.pending.append(PendingTask(task, attempt + 1, now + backoff))

    def _bootstopped(self, kind: str, replicate: int) -> bool:
        """True when bootstopping has cancelled this replicate."""
        stop_at = None if self.bootstop is None else self.bootstop.stopped_at
        return (stop_at is not None and kind == "bootstrap"
                and replicate >= stop_at)

    def _accept(self, payload: dict) -> bool:
        """Take a replayed or streamed result; False for a duplicate or
        one past the bootstop point (it raced the stop decision)."""
        key = (payload["kind"], payload["replicate"])
        if key in self.results or self._bootstopped(*key):
            return False
        self.results[key] = payload
        self.aggregator.ingest(payload)
        if self.bootstop is not None and payload.get("is_bootstrap"):
            self.bootstop.note(payload["replicate"], payload["newick"])
        return True

    def _bootstop_check(self) -> None:
        """Poll the autoMRE controller; cancel bootstrap work on stop.

        Journals the decision, drops the pending bootstrap tasks, and
        evicts replicates past the stop point from the aggregate and
        the result map — in-flight workers may still deliver them, but
        :meth:`_accept` discards those arrivals, so the final payload
        set is exactly ``[0, stop_at)`` regardless of timing.
        """
        if self.bootstop is None:
            return
        check = self.bootstop.poll()
        if check is None:
            return
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
        self.pending = [p for p in self.pending if p.task.kind != "bootstrap"]
        self.remaining = {k for k in self.remaining if k[0] != "bootstrap"}
        for key in [k for k in self.results if self._bootstopped(*k)]:
            del self.results[key]
        self.aggregator.truncate_bootstraps(stop_at)

    def _handle(self, message, now: float) -> None:
        kind, wid = message[0], message[1]
        worker = self.workers.get(wid)
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
            if self._accept(payload):
                self.journal.append("replicate_done", task=task_id,
                                    payload=payload)
            self.remaining.discard((payload["kind"], payload["replicate"]))
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
                self._requeue(task, attempt, error, now)

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
