"""Resident worker processes: the server's one core budget.

A :class:`WorkerPool` owns the worker *processes* of the cluster layer
and never holds more than ``n_workers`` of them, parked plus lent out.
A :class:`~repro.cluster.queue.ClusterQueue` run borrows workers,
drives them through its tasks, and gives each one back as soon as it
has nothing left to dispatch to it; a run with a ready task and no idle
worker borrows another mid-run.  Jobs running side by side thus meet
only at the pool and share it task by task — the paper's EDTLP, where
the next idle SPE goes to whichever MPI process has a task ready.  A
run given no pool makes a private one and closes it when it ends (fork
per run, the behaviour of ``cluster run``); the serve layer keeps one
pool for its whole life, so a worker is forked once, imports what it
needs once, and then serves job after job warm — the paper's SPE
thread, created once and kept resident.

Worker lifecycle (lent + parked <= ``n_workers`` at every instant)::

             checkout                                 checkin
    fork ------------> [ open -> item, ... -> close ] -------> parked
                       ^          lent to one run               |
                       +------------------ checkout ------------+

    a dead, stale-epoch or over-RSS worker is retired instead

What ``fork`` used to carry implicitly now travels in the per-job *open*
message: any object with ``worker_id`` and ``heartbeat_interval_s``
attributes and ``open()`` / ``run(item, send, mute)`` / ``close()``
methods (the cluster's is ``queue._WorkerJob``).  The pool never looks
inside it, so this module knows nothing about tasks or replicates.

Process-global state a message cannot carry is handled by an *epoch*:
the pool remembers which chaos injector was installed when each worker
was forked and retires, at check-out, any worker forked under a
different one — every chaos campaign still gets freshly forked workers
that inherited its injector.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..chaos import injector as _chaos

__all__ = ["CLOSE", "WorkerPool"]

#: Master -> worker: the current job is over; flush, ack, park.
CLOSE = "close"

#: Master -> parked worker at check-out, echoed back: proof of life.
PING = "ping"

#: How long a parked worker gets to echo a ping.  A live one is blocked
#: in ``recv`` and answers in well under a millisecond; a dying one's
#: pipe reads EOF as soon as the kernel has torn it down.
PING_TIMEOUT_S = 1.0

#: Orphan-guard tick of a parked worker (a working one ticks at its
#: job's ``heartbeat_interval_s``).
PARKED_TICK_S = 0.2


def _worker_main(inbox, outbox, parent_pid: int) -> None:
    """Worker process: beat thread + message loop.

    *inbox* / *outbox* are this worker's private ends of two master-held
    pipes; a worker killed mid-send can tear its own channel but nobody
    else's.  ``Connection.send`` is not thread-safe, so the beat thread
    and the message loop share a process-local lock (which dies with
    the process — the master never waits on it).

    The beat thread ticks for the life of the process but *sends* only
    between a job's open and its close: nobody reads a parked worker's
    pipe, and a pipe that fills (64 KB) would block the message loop
    behind the send lock.  Every tick also compares ``os.getppid()``
    with the pid this worker was forked from and exits when the parent
    is gone — siblings inherit copies of each other's pipe ends, so a
    SIGKILLed master is not reliably an EOF on *inbox*.
    """
    import signal as _signal

    # A fork child inherits the parent's signal handlers.  Under the
    # serve CLI the parent is an asyncio process whose SIGTERM handler
    # only writes to a wakeup fd — harmless there, but inherited here
    # it swallows the master's ``terminate()`` and the worker becomes
    # unkillable (until SIGKILL).  Restore defaults: SIGTERM kills,
    # SIGINT is ignored (shutdown is the master's call, not the
    # terminal's).
    try:
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        _signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    send_lock = threading.Lock()
    wake = threading.Event()
    job = None
    beating = False

    def send(message) -> None:
        with send_lock:
            outbox.send(message)

    def mute() -> None:
        """Stop heartbeating mid-job (the ``cluster.worker_hang`` site)."""
        nonlocal beating
        beating = False

    def beat() -> None:
        while True:
            if os.getppid() != parent_pid:
                os._exit(0)
            with send_lock:
                if beating:
                    try:
                        outbox.send(("heartbeat", job.worker_id))
                    except Exception:
                        pass  # master dropped the pipe; it will kill us
                tick = job.heartbeat_interval_s if beating else PARKED_TICK_S
            wake.wait(tick)
            wake.clear()

    threading.Thread(target=beat, daemon=True).start()
    while True:
        try:
            item = inbox.recv()
        except (EOFError, OSError):
            break
        if isinstance(item, tuple):
            job.run(item, send, mute)
        elif item is None:
            break
        elif item == CLOSE:
            job.close()
            with send_lock:
                # Under the lock, so the ack is the job's last message.
                beating = False
                outbox.send(("closed", job.worker_id))
        elif item == PING:
            send(PING)
        else:
            job = item
            job.open()
            beating = True
            wake.set()  # first heartbeat now, at the new job's interval


@dataclass(eq=False)
class _Worker:
    proc: multiprocessing.Process
    inbox: object  # master's send end of the worker's item pipe
    conn: object  # master's receive end of the worker's result pipe
    epoch: object  # the chaos injector active when this worker was forked
    # -- per-run state, reset by the run that checks the worker out -----
    wid: int = -1
    last_seen: float = 0.0
    current: Optional[Tuple[object, int, float]] = None  # task, attempt, t0
    closing: bool = False  # the job's close was sent
    closed: bool = False  # ... and acknowledged


def _retire(workers: Sequence[_Worker], owner_pid: int) -> None:
    """Terminate and join *workers*, escalating to SIGKILL."""
    if os.getpid() != owner_pid:
        return  # a forked copy of the pool owns nobody's processes
    for worker in workers:
        worker.proc.terminate()
    for worker in workers:
        worker.proc.join(timeout=2.0)
        if worker.proc.is_alive():
            # SIGTERM didn't land (blocked in C code): escalate so no
            # process can leak.
            worker.proc.kill()
            worker.proc.join(timeout=1.0)
        for conn in (worker.inbox, worker.conn):
            try:
                conn.close()  # discards a possibly torn frame with it
            except OSError:
                pass


class WorkerPool:
    """Forks, lends, parks and retires at most *n_workers* processes.

    The budget counts parked and lent-out workers together: a check-out
    forks only while it has room, and a worker that goes back — parked
    by :meth:`checkin`, killed by :meth:`retire` — frees its share for
    whichever run asks next.  Safe to use from several threads (the
    serve layer runs up to ``n_workers`` jobs over one pool, one
    executor thread each).  Closing the pool terminates whatever is
    parked and stops further parking; workers still lent out belong to
    their run, which retires them when it ends.  A pool dropped without
    ``close()`` is cleaned up by a ``weakref.finalize``.
    """

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self._idle: List[_Worker] = []
        self._lent = 0
        self._returned = threading.Condition()
        self._closed = False
        self._owner_pid = os.getpid()
        self._finalizer = weakref.finalize(
            self, _retire, self._idle, self._owner_pid)

    def spawn(self) -> _Worker:
        """Fork one worker: the pool's one fork point.  It takes no
        share of the budget; :meth:`checkout` and :meth:`prefork`
        reserve one before they call it."""
        mp = multiprocessing.get_context("fork")
        item_rx, item_tx = mp.Pipe(duplex=False)
        result_rx, result_tx = mp.Pipe(duplex=False)
        proc = mp.Process(target=_worker_main,
                          args=(item_rx, result_tx, os.getpid()),
                          daemon=True)
        proc.start()
        # Close the master's copies of the worker's ends: once the
        # worker dies, its result pipe reads EOF instead of blocking
        # forever on a torn frame.
        item_rx.close()
        result_tx.close()
        return _Worker(proc=proc, inbox=item_tx, conn=result_rx,
                       epoch=_chaos._ACTIVE)

    def prefork(self) -> None:
        """Fill the budget with parked workers (serve start-up)."""
        with self._returned:
            room = self.n_workers - len(self._idle) - self._lent
            self._lent += room
        for _ in range(room):
            self.checkin(self.spawn())

    @staticmethod
    def _usable(worker: _Worker, epoch) -> bool:
        """Parked *worker* can serve a run: right epoch, and it echoes a
        ping.  ``is_alive()`` and a quiet pipe are not evidence: both
        hold for a SIGKILLed worker until the kernel has reaped its
        last thread and closed its pipe ends."""
        if worker.epoch is not epoch or not worker.proc.is_alive():
            return False
        try:
            worker.inbox.send(PING)
            while worker.conn.poll(PING_TIMEOUT_S):
                if worker.conn.recv() == PING:  # nothing else should be here
                    return True
        except (EOFError, OSError):
            pass
        return False

    def checkout(self, n: int, wait: float = 0.0) -> List[_Worker]:
        """Lend up to *n* live workers of the current epoch.

        Parked workers go first, then forks while the budget has room.
        With nothing parked and no room, first wait up to *wait* seconds
        for a check-in.  The result may hold fewer than *n* workers, or
        none: the caller polls its cancel token and asks again.
        """
        epoch = _chaos._ACTIVE
        taken: List[_Worker] = []
        stale: List[_Worker] = []
        with self._returned:
            if not self._idle and self._lent >= self.n_workers and wait > 0:
                self._returned.wait(wait)
            while self._idle and len(taken) < n:
                worker = self._idle.pop(0)
                (taken if self._usable(worker, epoch) else stale).append(worker)
            # Stale workers die before their room is reused, under the
            # lock: no other run can fork into it while they live.
            _retire(stale, self._owner_pid)
            room = self.n_workers - len(self._idle) - self._lent - len(taken)
            forks = max(0, min(n - len(taken), room))
            self._lent += len(taken) + forks
        return taken + [self.spawn() for _ in range(forks)]

    def checkin(self, worker: _Worker) -> None:
        """Take back an idle, live lent worker: park it (retire it once
        the pool is closed)."""
        with self._returned:
            park = not self._closed
            if park:
                self._idle.append(worker)
                self._lent -= 1
                self._returned.notify_all()
        if not park:
            self.retire(worker)

    def retire(self, *workers: _Worker) -> None:
        """Kill lent *workers*; their share of the budget is free again
        only once they are gone."""
        _retire(workers, self._owner_pid)
        with self._returned:
            self._lent -= len(workers)
            self._returned.notify_all()

    def close(self) -> None:
        """Terminate and join the parked workers; park no more."""
        with self._returned:
            self._closed = True
            parked, self._idle[:] = list(self._idle), []
        _retire(parked, self._owner_pid)

    @property
    def n_idle(self) -> int:
        return len(self._idle)

    def idle_pids(self) -> List[int]:
        return sorted(w.proc.pid for w in self._idle)
