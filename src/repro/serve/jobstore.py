"""Durable job records and the synchronous service core.

The store is the crash-safe half of the service: every job record is
appended to one CRC-framed record log and fsynced before the save
returns, alignments are stored content-addressed (one copy no matter
how many clients submit the same data), and each job's cluster journal
lives under a stable path derived from the job id.  A server killed at
*any* point — the
``serve.server_kill`` chaos site fires between two journal appends of a
running job — restarts by re-enqueueing its ``queued``/``running``
records and resuming their journals, and the cluster's bit-identical
resume contract makes the final results indistinguishable from an
uninterrupted server.

:class:`JobService` is the transport-free orchestration core: submit →
fair-schedule → execute → cache.  The asyncio HTTP front-end
(:mod:`repro.serve.app`) drives it through an executor; tests and the
chaos campaign drive it directly.
"""

from __future__ import annotations

import array
import json
import logging
import os
import shutil
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..chaos import injector as _chaos
from ..chaos.plan import SERVE_SERVER_KILL
from ..cluster.checkpoint import (
    atomic_write,
    decode_record,
    encode_record,
    replay,
)
from ..cluster.jobs import JobSpec, JobSpecError
from ..cluster.pool import WorkerPool
from ..cluster.queue import ClusterConfig
from ..cluster.runner import job_status, run_job
from ..phylo.alignment import load_alignment_text
from .cache import ResultCache, job_digest
from .fairness import FairScheduler
from .resilience import (
    REASON_DRAIN,
    CancelToken,
    DrainingError,
    TaskCancelled,
    preflight,
)

__all__ = [
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JobRecord",
    "JobStore",
    "JobService",
    "digest_of",
    "load_alignment_text",
    "result_payload",
]

logger = logging.getLogger(__name__)

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Bytes a record read asks for first; a longer record reads on.
_READ_BYTES = 2048


def digest_of(alignment_text: str, spec: JobSpec) -> str:
    """The content-addressed digest of a submission (parses once)."""
    return job_digest(load_alignment_text(alignment_text, aa=spec.aa), spec)


@dataclass
class JobRecord:
    """One submission's durable state (one line of the record log)."""

    job_id: str
    client: str
    priority: int
    digest: str
    spec: Optional[JobSpec]
    state: str = JOB_QUEUED
    cached: bool = False
    submitted_seq: int = 0
    error: Optional[str] = None
    created: float = 0.0
    updated: float = 0.0
    #: A deadline-salvaged partial result: served, never cached.
    degraded: bool = False

    def to_json(self) -> Dict[str, object]:
        # The fields in declaration order, the spec as JobSpec.to_json
        # gives it: what dataclasses.asdict gave, without deep-copying.
        return {**vars(self),
                "spec": None if self.spec is None else self.spec.to_json()}

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "JobRecord":
        """A spec an older version accepted and this one refuses loads
        as a failed record without a spec: that job can never run."""
        data = dict(payload)
        try:
            data["spec"] = JobSpec.from_json(data["spec"])
        except JobSpecError as exc:
            data["spec"] = None
            if data["state"] != JOB_FAILED:
                data.update(state=JOB_FAILED, error=f"JobSpecError: {exc}")
        return cls(**data)


def result_payload(digest: str, spec: JobSpec, journal_path: str
                   ) -> Dict[str, object]:
    """Assemble the servable result from a finished job's journal.

    Everything here is a pure function of the journalled payloads, so
    a result computed after a crash-resume cycle is byte-identical to
    one from an uninterrupted run — the chaos campaign compares the
    canonical JSON of this payload across runs.
    """
    status = job_status(journal_path)
    supports = sorted(
        ([sorted(split), value] for split, value in status["supports"].items()),
        key=lambda item: item[0],
    )
    consensus_supports = sorted(
        ([sorted(split), value]
         for split, value in (status["consensus_supports"] or {}).items()),
        key=lambda item: item[0],
    )
    best = status["best"] or {}
    return {
        "digest": digest,
        "best_newick": best.get("newick"),
        "best_log_likelihood": best.get("log_likelihood"),
        "n_inferences": status["n_inferences_done"],
        "n_bootstraps_requested": spec.n_bootstraps,
        "n_bootstraps_used": status["n_bootstraps_done"],
        "bootstop": status["bootstop"],
        "supports": supports,
        "consensus_newick": status["consensus_newick"],
        "consensus_supports": consensus_supports,
        "perf": status["perf"],
        "degraded": bool(status["degraded"]),
    }


def _recovery_order(submitted_seq: int, job_id: str) -> Tuple[int, str]:
    """Submission order, then the file name order of the older
    one-file-per-record layout: the order :meth:`JobService.recover`
    re-enqueues in."""
    return submitted_seq, f"{job_id}.json"


def _seq_of(job_id: str) -> int:
    """The submission number a job id carries (``j000042-...`` -> 42),
    or -1 for an id of another form."""
    head, dash, _ = job_id.partition("-")
    number = head[1:]
    if dash and head[:1] == "j" and number.isascii() and number.isdigit():
        return int(number)
    return -1


class JobStore:
    """Filesystem layout + durable persistence of the service state.

    ::

        root/
          cache/<digest>.json        # content-addressed results
          alignments/<digest>.txt    # content-addressed submissions
          jobs.log                   # every record save, appended
          journals/<job_id>.jsonl    # the job's cluster run journal

    ``jobs.log`` holds one CRC-framed line
    (:func:`~repro.cluster.checkpoint.encode_record`) per save.
    :meth:`save` appends it and fsyncs under a lock before returning,
    so a state transition is durable before anyone can observe it.
    :meth:`get` reads a job's newest line with ``os.pread`` through an
    offset index — the event loop and the executor threads read at
    once, so there is no shared file position and no lock.  The index
    is an array over the submission number each job id carries; an id
    that names no free slot of it (only a hand-made record can) goes
    to a small side table.

    Opening the store replays the log: a torn tail (or any line that
    fails its CRC) is skipped with a warning, the last line of each
    job wins, and the log is rewritten compacted with
    :func:`~repro.cluster.checkpoint.atomic_write`.  A root an older
    version wrote, one file per record under ``jobs/``, is migrated
    into the log once and its ``jobs/`` removed.  :meth:`close` closes
    the log: a store that a restarted service has replaced must not
    append to it.
    """

    def __init__(self, root: str, clock: Optional[Callable[[], float]] = None):
        self.root = os.fspath(root)
        self._clock = clock if clock is not None else time.time
        self.log_path = os.path.join(self.root, "jobs.log")
        self.journals_dir = os.path.join(self.root, "journals")
        self.alignments_dir = os.path.join(self.root, "alignments")
        for path in (self.journals_dir, self.alignments_dir):
            os.makedirs(path, exist_ok=True)
        self.cache = ResultCache(os.path.join(self.root, "cache"))
        self.runs_executed = 0
        self.degraded_served = 0
        # Engine degradation totals accumulated from finished jobs'
        # perf counters — surfaced by /healthz so an operator can see
        # numerical-fault pressure without scraping journals.
        self.engine_counters: Dict[str, int] = {
            "fault_recoveries": 0, "degraded_evaluations": 0,
        }
        self._lock = threading.Lock()
        #: submission number -> offset of the job's newest line (-1: none)
        self._offsets = array.array("q")
        #: job id -> offset, for the ids no slot of ``_offsets`` names
        self._other: Dict[str, int] = {}
        self._open_log()

    # -- the record log -----------------------------------------------------

    def _open_log(self) -> None:
        """Replay, migrate and compact the log, then open it to append."""
        newest: Dict[str, Tuple[Dict[str, object], str]] = {}
        try:
            with open(self.log_path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except FileNotFoundError:
            lines = []
        for line_no, line in enumerate(lines, 1):
            if not line:
                continue
            try:
                text = line.decode("ascii")
                payload = decode_record(text)
            except ValueError as exc:  # a torn tail or a damaged line
                logger.warning("%s line %d: skipped (%s)", self.log_path,
                               line_no, exc)
                continue
            newest[payload["job_id"]] = payload, text
        legacy = os.path.join(self.root, "jobs")
        if os.path.isdir(legacy):
            for name in sorted(os.listdir(legacy)):
                if name.endswith(".json"):
                    with open(os.path.join(legacy, name)) as fh:
                        payload = json.load(fh)
                    # A record the log holds was saved after this file.
                    newest.setdefault(payload["job_id"],
                                      (payload, encode_record(payload)))
        kept = sorted(newest.values(), key=lambda item: _recovery_order(
            item[0]["submitted_seq"], item[0]["job_id"]))
        self._next_seq = 1 + max(
            (payload["submitted_seq"] for payload, _ in kept), default=0)
        atomic_write(self.log_path, "".join(f"{text}\n" for _, text in kept))
        if os.path.isdir(legacy):
            shutil.rmtree(legacy)
        self._fd = os.open(self.log_path, os.O_RDWR | os.O_APPEND)
        # Backstop for a store dropped without close(); runs at most once.
        self._close_fd = weakref.finalize(self, os.close, self._fd)
        self._end = 0
        for payload, text in kept:
            self._place(payload["job_id"], self._end)
            self._end += len(text) + 1

    def _place(self, job_id: str, offset: int) -> None:
        """Point the index at *job_id*'s line at *offset* (under the
        lock, or before the store is shared)."""
        if job_id not in self._other:
            seq = _seq_of(job_id)
            if 0 < seq <= self._next_seq:
                offsets = self._offsets
                if seq >= len(offsets):
                    offsets.extend([-1] * (seq + 1 - len(offsets)))
                held = offsets[seq]
                if held < 0 or self._read(held)["job_id"] == job_id:
                    offsets[seq] = offset
                    return
        self._other[job_id] = offset

    def _read(self, offset: int) -> Dict[str, object]:
        """The record of the line at *offset*, CRC-checked."""
        if self._fd < 0:
            raise ValueError(f"the job store at {self.root} is closed")
        size = _READ_BYTES
        while True:
            chunk = os.pread(self._fd, size, offset)
            end = chunk.find(b"\n")
            if end >= 0:
                return decode_record(chunk[:end].decode("ascii"))
            if len(chunk) < size:
                raise ValueError(f"{self.log_path}: no record ends after "
                                 f"offset {offset}")
            size *= 2

    def close(self) -> None:
        """Close the record log (idempotent); reads and saves after it
        raise ``ValueError``."""
        with self._lock:
            self._close_fd()
            self._fd = -1

    # -- records ------------------------------------------------------------

    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.journals_dir, f"{job_id}.jsonl")

    def alignment_path(self, digest: str) -> str:
        return os.path.join(self.alignments_dir, f"{digest}.txt")

    def save(self, record: JobRecord) -> None:
        """Append *record* to the log; durable (written and fsynced)
        before this returns, and only then visible to :meth:`get`."""
        record.updated = self._clock()
        line = f"{encode_record(record.to_json())}\n".encode("ascii")
        with self._lock:
            if self._fd < 0:
                raise ValueError(f"the job store at {self.root} is closed")
            try:
                written = 0
                while written < len(line):
                    written += os.write(self._fd, line[written:])
                os.fsync(self._fd)
            except BaseException:
                # Cut a partial line off, so the next append starts a
                # line of its own; the log keeps the record's last
                # durable state.
                try:
                    os.ftruncate(self._fd, self._end)
                except OSError:
                    pass
                raise
            self._place(record.job_id, self._end)
            self._end += len(line)

    def get(self, job_id: str) -> Optional[JobRecord]:
        offset = self._other.get(job_id)
        if offset is None:
            seq = _seq_of(job_id)
            offsets = self._offsets
            offset = offsets[seq] if 0 < seq < len(offsets) else -1
        if offset < 0:
            return None
        payload = self._read(offset)
        if payload["job_id"] != job_id:  # the slot holds another id
            return None
        return JobRecord.from_json(payload)

    def load_all(self) -> List[JobRecord]:
        """Every job's newest record, in recovery order."""
        offsets = [offset for offset in self._offsets if offset >= 0]
        offsets.extend(self._other.values())
        records = [JobRecord.from_json(self._read(offset))
                   for offset in offsets]
        records.sort(key=lambda r: _recovery_order(r.submitted_seq, r.job_id))
        return records

    # -- submission ---------------------------------------------------------

    def submit(self, alignment_text: str, spec: JobSpec, client: str,
               priority: int = 10, digest: Optional[str] = None
               ) -> Tuple[JobRecord, bool]:
        """Create a job record; returns ``(record, cache_hit)``.

        On a cache hit the record is born ``done`` with ``cached=True``
        and no cluster work is ever scheduled for it — the digest
        already addresses a finished result.  Callers that computed the
        digest already (e.g. for an admission-control check) pass it in
        to skip the second alignment parse.
        """
        if digest is None:
            digest = digest_of(alignment_text, spec)
        alignment_file = self.alignment_path(digest)
        if not os.path.exists(alignment_file):
            atomic_write(alignment_file, alignment_text)
        seq = self._next_seq
        self._next_seq += 1
        hit = self.cache.get(digest) is not None
        record = JobRecord(
            job_id=f"j{seq:06d}-{digest[:10]}",
            client=client,
            priority=priority,
            digest=digest,
            spec=spec,
            state=JOB_DONE if hit else JOB_QUEUED,
            cached=hit,
            submitted_seq=seq,
            created=self._clock(),
        )
        self.save(record)
        return record, hit

    # -- execution ----------------------------------------------------------

    def _run_clock(self) -> Callable[[], float]:
        """The journal clock, instrumented as the server-kill site.

        The site is probed once per journal append, i.e. between two
        durable records of the running job — exactly where a real
        process death lands.  The raised
        :class:`~repro.chaos.injector.InjectedCrash` propagates out of
        the run machinery (which shuts its workers down on the way) and
        models the serving process dying mid-job.
        """
        base = self._clock

        def clock() -> float:
            if _chaos._ACTIVE is not None and _chaos.fire(SERVE_SERVER_KILL):
                raise _chaos.InjectedCrash(
                    "server killed between journal appends"
                )
            return base()

        return clock

    def execute(self, record: JobRecord, n_workers: int = 2,
                cluster: Optional[ClusterConfig] = None,
                cancel: Optional[CancelToken] = None,
                pool: Optional[WorkerPool] = None) -> Dict[str, object]:
        """Run the job's cluster analysis, continuing its journal; cache
        the result.

        ``cancel`` threads the service's drain token (and the spec's
        own ``deadline_s``) down to every worker.  A deadline that
        trips after at least one inference finished yields a *degraded*
        result: journalled, servable, marked on the record — but never
        cached, so an identical resubmission recomputes in full.
        ``pool`` is the service's resident worker pool (None: the run
        forks and terminates its own workers).
        """
        with open(self.alignment_path(record.digest)) as fh:
            text = fh.read()
        patterns = load_alignment_text(text, aa=record.spec.aa).compress()
        journal = self.journal_path(record.job_id)
        self.runs_executed += 1
        # run_job continues whatever the journal holds, and starts
        # afresh on the empty (or torn-header) file a server killed
        # before its first append leaves.
        analysis = run_job(record.spec, patterns, n_workers=n_workers,
                           journal_path=journal, cluster=cluster,
                           clock=self._run_clock(), cancel=cancel,
                           pool=pool)
        payload = result_payload(record.digest, record.spec, journal)
        perf = payload.get("perf") or {}
        self.engine_counters["fault_recoveries"] += int(
            perf.get("fault_recoveries", 0))
        self.engine_counters["degraded_evaluations"] += int(
            perf.get("degraded", 0))
        if analysis.degraded:
            self.degraded_served += 1
        else:
            # Only complete analyses enter the content-addressed cache:
            # a digest must always name the full requested result.
            self.cache.put(record.digest, payload)
        record.state = JOB_DONE
        record.degraded = analysis.degraded
        record.error = None
        self.save(record)
        return payload

    def result(self, record: JobRecord) -> Optional[Dict[str, object]]:
        payload = self.cache.get(record.digest)
        if payload is not None:
            return payload
        if record.degraded:
            # Degraded results are deliberately uncached; rebuild the
            # servable payload from the job's own journal instead.
            journal = self.journal_path(record.job_id)
            if os.path.exists(journal):
                return result_payload(record.digest, record.spec, journal)
        return None

    def progress(self, record: JobRecord) -> Optional[Dict[str, object]]:
        """Live journal-derived progress for a running/interrupted job."""
        journal = self.journal_path(record.job_id)
        if not os.path.exists(journal):
            return None
        state = replay(journal)
        done_bootstraps = len(state.done_bootstraps)
        return {
            "inferences_done": len(state.done_inferences),
            "bootstraps_done": done_bootstraps,
            "retries": len(state.retries),
            "worker_deaths": len(state.worker_deaths),
            "resumes": state.resumes,
            "bootstop_stop_at": (int(state.bootstop["stop_at"])
                                 if state.bootstop else None),
            "finished": state.finished,
        }

    def counters(self) -> Dict[str, int]:
        return {"runs_executed": self.runs_executed,
                "degraded_served": self.degraded_served,
                **self.cache.counters()}


class JobService:
    """Transport-free service core: fair scheduling over the store."""

    def __init__(
        self,
        root: str,
        n_workers: int = 2,
        max_inflight_per_client: int = 1,
        cluster: Optional[ClusterConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        max_queued_total: Optional[int] = None,
        max_queued_per_client: Optional[int] = None,
        max_job_memory_mb: Optional[float] = None,
    ):
        self.store = JobStore(root, clock=clock)
        self.scheduler = FairScheduler(
            max_inflight_per_client,
            max_queued_total=max_queued_total,
            max_queued_per_client=max_queued_per_client,
        )
        self.n_workers = n_workers
        self.cluster = cluster
        #: Resident cluster workers, shared by every job this service
        #: runs: forked on first use (or by ``ServeApp.start``), parked
        #: between jobs, terminated by :meth:`close`.
        self.pool = WorkerPool(n_workers)
        self.max_job_memory_mb = max_job_memory_mb
        self.draining = False
        # Live cancel tokens of in-flight executes, keyed by job id.
        # begin_drain() trips them all; each execute registers its own
        # on entry and removes it on exit (all under the GIL — the
        # executor threads and the event loop share one interpreter).
        self._active_tokens: Dict[str, CancelToken] = {}

    # -- drain --------------------------------------------------------------

    def begin_drain(self) -> int:
        """Stop admitting work and cancel every in-flight run.

        Idempotent.  Returns the number of tokens tripped.  Cancelled
        runs unwind with ``TaskCancelled(reason="drain")`` at the next
        safe point, leaving their journals *without* a terminal record
        — exactly the state :meth:`recover` resumes bit-identically.
        """
        self.draining = True
        tripped = 0
        for token in list(self._active_tokens.values()):
            token.cancel(REASON_DRAIN)
            tripped += 1
        return tripped

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Terminate and join the parked workers and close the record
        log (idempotent).

        Call it when done with the service — the pool's and the log's
        finalizers only backstop a service that is dropped without it.
        """
        self.pool.close()
        self.store.close()

    def recover(self) -> List[JobRecord]:
        """Re-enqueue journalled work after a restart.

        ``running`` records are jobs the previous server died under;
        their journals resume bit-identically.  Returns the re-enqueued
        records in submission order (which is also re-dispatch order,
        so a restarted server reproduces the original schedule).
        """
        recovered = []
        for record in self.store.load_all():
            if record.state in (JOB_QUEUED, JOB_RUNNING):
                if record.state == JOB_RUNNING:
                    record.state = JOB_QUEUED
                    self.store.save(record)
                self.scheduler.submit(record.job_id, record.client,
                                      record.priority)
                recovered.append(record)
        return recovered

    # -- submission ---------------------------------------------------------

    def submit(self, alignment_text: str, spec: JobSpec,
               client: str = "anonymous", priority: int = 10
               ) -> Tuple[JobRecord, bool]:
        """Admit, persist and enqueue one submission.

        Admission control runs *before* any durable side effect: a
        rejected submission — drain
        (:class:`~repro.serve.resilience.DrainingError`), malformed
        alignment (:class:`~repro.phylo.alignment.AlignmentError`),
        memory preflight
        (:class:`~repro.serve.resilience.ResourceLimitError`), or
        backpressure (:class:`~repro.serve.fairness.QueueFullError`) —
        leaves no record, alignment file or journal behind, so clients
        can blindly retry after ``Retry-After``.  Cache hits bypass the
        watermarks and the preflight entirely — they never consume
        queue capacity or worker memory.
        """
        if self.draining:
            raise DrainingError()
        # The digest reads the parsed alignment; only a miss compresses
        # it, for the preflight's pattern count.
        alignment = load_alignment_text(alignment_text, aa=spec.aa)
        digest = job_digest(alignment, spec)
        if not self.store.cache.contains(digest):
            preflight(alignment.compress(), spec, self.max_job_memory_mb,
                      n_workers=self.n_workers)
            self.scheduler.check_capacity(client)
        record, hit = self.store.submit(alignment_text, spec, client,
                                        priority, digest=digest)
        if not hit:
            self.scheduler.submit(record.job_id, record.client,
                                  record.priority)
        return record, hit

    # -- execution ----------------------------------------------------------

    def next_job(self) -> Optional[JobRecord]:
        """Claim the next job per the fairness policy (marks it running)."""
        entry = self.scheduler.next()
        if entry is None:
            return None
        record = self.store.get(entry.job_id)
        if record is None:  # record vanished; release the slot
            self.scheduler.finished(entry.client)
            return None
        record.state = JOB_RUNNING
        self.store.save(record)
        return record

    def execute(self, record: JobRecord) -> JobRecord:
        """Run one claimed job to completion (or failure).

        An :class:`~repro.chaos.injector.InjectedCrash` models the
        server process dying and is re-raised untouched — the record
        stays ``running`` on disk, which is exactly what
        :meth:`recover` expects to find after a real kill.  A drain
        cancellation propagates the same way: the record stays
        ``running``, the journal stays open-ended, and the restarted
        service resumes it bit-identically.  A deadline that salvaged
        nothing fails the job with a typed error.
        """
        token = CancelToken()
        # Register before checking the flag: begin_drain() sets
        # ``draining`` and then cancels every registered token, so
        # whichever side loses the race still sees the other's write —
        # checking first would let a drain landing in between miss this
        # job entirely.
        self._active_tokens[record.job_id] = token
        if self.draining:  # drain began between claim and execute
            token.cancel(REASON_DRAIN)
        try:
            self.store.execute(record, n_workers=self.n_workers,
                               cluster=self.cluster, cancel=token,
                               pool=self.pool)
        except _chaos.InjectedCrash:
            raise
        except TaskCancelled as exc:
            if exc.reason == REASON_DRAIN:
                raise
            record.state = JOB_FAILED
            record.error = f"TaskCancelled: {exc}"
            self.store.save(record)
        except Exception as exc:  # noqa: BLE001 — job faults stay local
            record.state = JOB_FAILED
            record.error = f"{type(exc).__name__}: {exc}"
            self.store.save(record)
        finally:
            self._active_tokens.pop(record.job_id, None)
            # The crash path never reaches this in a real death; for the
            # in-process simulation the restarted service rebuilds its
            # scheduler from disk anyway.
            if record.state != JOB_RUNNING:
                self.scheduler.finished(record.client)
        return record

    def run_next(self) -> Optional[JobRecord]:
        """Claim and execute one job synchronously; None when idle."""
        record = self.next_job()
        if record is None:
            return None
        return self.execute(record)

    # -- views --------------------------------------------------------------

    def status(self, job_id: str) -> Optional[Dict[str, object]]:
        record = self.store.get(job_id)
        if record is None:
            return None
        payload: Dict[str, object] = {
            "job_id": record.job_id,
            "client": record.client,
            "priority": record.priority,
            "digest": record.digest,
            "state": record.state,
            "cached": record.cached,
            "degraded": record.degraded,
            "error": record.error,
            "created": record.created,
            "updated": record.updated,
        }
        progress = self.store.progress(record)
        if progress is not None:
            payload["progress"] = progress
        return payload

    def result(self, job_id: str) -> Optional[Dict[str, object]]:
        record = self.store.get(job_id)
        if record is None or record.state != JOB_DONE:
            return None
        return self.store.result(record)

    def stats(self) -> Dict[str, object]:
        return {
            "scheduler": self.scheduler.snapshot(),
            "draining": self.draining,
            **self.store.counters(),
        }

    def health(self) -> Dict[str, object]:
        """The /healthz body: liveness plus degradation pressure."""
        return {
            "ok": True,
            "draining": self.draining,
            "queue_depth": self.scheduler.n_queued,
            "inflight_jobs": len(self._active_tokens),
            "degraded_served": self.store.degraded_served,
            "engine": dict(self.store.engine_counters),
        }
