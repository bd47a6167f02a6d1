"""Append-only JSONL run journal with exact checkpoint/resume.

Every scheduling event and every per-replicate result payload is
appended to the journal as one JSON line.  Because each replicate's
result is a pure function of ``(seed, kind, replicate)``, replaying the
journal and re-running only the missing replicates reproduces the
uninterrupted run *bit-identically*: floats survive the JSON round trip
exactly (``repr`` shortest round-trip), and Newick strings are stored
verbatim.

Durability: the journal is a :class:`RecordLog`, as is the job store's
``jobs.log``; DESIGN.md §11.4 states their rules in one table.  Every
record carries a CRC32 of its own serialization (the ``crc`` field,
computed over the record *without* it) and is fsynced before its
append returns.  :func:`replay` skips any record that fails to parse,
fails its CRC, or carries a malformed result payload — anywhere in the
file, not just a torn tail — counting it in
:attr:`JournalState.corrupt_records` with a warning, so resume
recomputes the lost work instead of trusting a damaged line.

:func:`atomic_write` (temp file in the target directory + flush +
``fsync`` + ``os.replace`` + directory ``fsync``) backs every whole-file
artifact (best trees, compacted journals, benchmark sections): a crash
mid-write leaves the previous version intact, and the directory fsync
makes the rename itself durable — without it a crash right after
``os.replace`` could roll the directory entry back to the old file.

One file is the only layout: a shard manifest (the retired sharded
journal, DESIGN.md §15) at a journal path is refused by :func:`replay`
with :class:`RetiredJournalFormatError`, before anything is written.

Event vocabulary::

    run_started     {"spec": {...}}
    run_resumed     {"remaining": n}
    task_started    {"task", "attempt", "worker"}
    replicate_done  {"payload": {...}}     # trees, lnl, perf counters
    task_finished   {"task", "attempt", "worker"}
    task_failed     {"task", "attempt", "attempts", "backoff_ms",
                     "error", "will_retry"}
    worker_dead     {"worker", "task", "reason"}
    bootstop_converged  {"stop_at", "requested", "metric",
                         "pass_fraction", "threshold", "seed", ...}
    task_deadline_exceeded  {"remaining", "n_done"}   # deadline tripped
    run_cancelled   {"reason", "remaining", "n_done"} # e.g. drain
    worker_rss_exceeded {"worker", "task", "rss_mb", "limit_mb"}
    run_finished    {"n_results", "phases", "perf"[, "degraded"]}
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union
from zlib import crc32

from ..chaos import injector as _chaos
from ..chaos.plan import (
    CLUSTER_CHECKPOINT_TORN,
    CLUSTER_JOURNAL_OSERROR,
    CLUSTER_JOURNAL_TORN,
)

__all__ = [
    "JournalMismatchError",
    "JournalWriteError",
    "RetiredJournalFormatError",
    "RunJournal",
    "JournalState",
    "RecordLog",
    "atomic_write",
    "compact_journal",
    "replay",
]

logger = logging.getLogger(__name__)

#: Bounded retry budget for transient append failures.
APPEND_RETRIES = 3
APPEND_RETRY_SLEEP_S = 0.01

#: Bytes :meth:`RecordLog.read_at` asks for first; a longer line reads on.
_READ_BYTES = 2048

#: The ``"format"`` field of a retired sharded-journal manifest.
_SHARD_MANIFEST_FORMAT = "repro-cluster-shard-manifest"


class JournalWriteError(RuntimeError):
    """A journal append failed even after its bounded retries."""


class JournalMismatchError(ValueError):
    """The journal at a run's path holds another job: continuing it
    would mix two jobs' replicates, and rewriting it would lose one."""


class RetiredJournalFormatError(ValueError):
    """The journal path holds a shard manifest: the sharded journal was
    deleted, so no code can replay, resume or compact it."""


def encode_record(record: dict) -> str:
    """One journal line: the record plus a CRC32 over its serialization.

    The CRC is appended as the *last* key, so verification re-serializes
    the parsed record minus ``crc`` — byte-identical to what was hashed,
    because JSON objects round-trip in insertion order.
    """
    body = json.dumps(record)
    return json.dumps({**record, "crc": crc32(body.encode())})


def decode_record(line: str) -> dict:
    """Parse and CRC-verify one journal line.

    Raises ``ValueError`` on malformed JSON, a non-object record, or a
    CRC mismatch.  Records without a ``crc`` field (journals written
    before the CRC hardening) are accepted as-is.
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"journal record is not an object: {line[:80]!r}")
    if "crc" in record:
        crc = record.pop("crc")
        body = json.dumps(record)
        if crc32(body.encode()) != crc:
            raise ValueError(
                f"journal record failed its CRC32 check: {line[:80]!r}"
            )
    return record


class RecordLog:
    """One append-only file of :func:`encode_record` lines over a raw
    ``O_APPEND`` descriptor: the run journal and the job store's
    ``jobs.log``.  Its rules (fsync per append, bounded retries, the
    torn tail, what :meth:`scan` skips, the chaos sites) are the table
    of DESIGN.md §11.4.  ``truncate`` starts the file afresh."""

    def __init__(self, path: str, truncate: bool = False):
        self.path = os.fspath(path)
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        self._fd = os.open(self.path, flags | (os.O_TRUNC if truncate else 0),
                           0o666)
        # Backstop for a log dropped without close(), warning as an
        # unclosed file does.
        self._leak = weakref.finalize(self, _close_leaked, self._fd,
                                      self.path)
        #: the byte size of the log's whole lines: where the next goes
        self.end = os.fstat(self._fd).st_size
        # Terminate a torn last line: the fragment stays one bad line.
        if self.end and os.pread(self._fd, 1, self.end - 1) != b"\n":
            os.write(self._fd, b"\n")
            self.end += 1

    def append(self, record: dict, key: str) -> int:
        """Append *record* as one line, durable before this returns;
        returns the line's offset.  *key* keys the chaos draws."""
        line = f"{encode_record(record)}\n".encode()
        fd = self._fd
        if fd < 0:
            raise ValueError(f"record log {self.path} is closed")
        if _chaos._ACTIVE is not None and _chaos.fire(
            CLUSTER_JOURNAL_TORN, key=key
        ):
            # Model the writer dying mid-write(): half the line reaches
            # the disk, then the process stops.
            os.write(fd, line[: max(1, len(line) // 2)])
            raise _chaos.InjectedCrash(
                f"record append torn mid-write during {key!r}: {self.path}"
            )
        last_error: Optional[OSError] = None
        for attempt in range(APPEND_RETRIES):
            try:
                if _chaos._ACTIVE is not None and _chaos.fire(
                    CLUSTER_JOURNAL_OSERROR, key=f"{key}:{attempt}"
                ):
                    raise OSError(28, "injected transient write failure")
                if os.write(fd, line) < len(line):
                    raise OSError("short write of a record line")
                os.fsync(fd)
            except BaseException as exc:
                # Cut a partial line off, so a retry (or the next
                # append) starts a line of its own.
                try:
                    os.ftruncate(fd, self.end)
                except OSError:
                    pass
                if not isinstance(exc, OSError):
                    raise
                last_error = exc
                time.sleep(APPEND_RETRY_SLEEP_S * (attempt + 1))
                continue
            self.end += len(line)
            return self.end - len(line)
        raise JournalWriteError(
            f"record append failed after {APPEND_RETRIES} attempts "
            f"({key!r}): {last_error}"
        ) from last_error

    def read_at(self, offset: int) -> dict:
        """The CRC-checked record of the line at *offset* (``os.pread``:
        no shared file position, so any thread may read at once)."""
        fd = self._fd
        if fd < 0:
            raise ValueError(f"record log {self.path} is closed")
        size = _READ_BYTES
        while True:
            chunk = os.pread(fd, size, offset)
            end = chunk.find(b"\n")
            if end >= 0:
                return decode_record(chunk[:end].decode())
            if len(chunk) < size:
                raise ValueError(f"{self.path}: no record ends after "
                                 f"offset {offset}")
            size *= 2

    @staticmethod
    def scan(path: str, start: int = 0, whole: bool = False
             ) -> Iterator[Tuple[int, int, bytes, Union[dict, ValueError]]]:
        """Decode the log at *path* from byte *start*, one line at a
        time: yields ``(line number, offset, line, record)`` for each
        non-blank line, where *record* is the ``ValueError`` a torn or
        damaged line failed with.  With *whole* a last line without its
        newline (a write in progress) ends the scan unread."""
        with open(path, "rb") as fh:
            fh.seek(start)
            offset = start
            for line_no, line in enumerate(fh, 1):
                if whole and not line.endswith(b"\n"):
                    return
                text = line.strip()
                if text:
                    try:
                        record = decode_record(text.decode())
                    except ValueError as exc:
                        record = exc
                    yield line_no, offset, line, record
                offset += len(line)

    def close(self) -> None:
        """Close the log (idempotent); appends and reads after it raise
        ``ValueError``."""
        if self._leak.detach() is not None:
            os.close(self._fd)
        self._fd = -1


def _close_leaked(fd: int, path: str) -> None:
    os.close(fd)
    warnings.warn(f"unclosed record log {path!r}", ResourceWarning)


class RunJournal:
    """Append-only JSONL sink over a :class:`RecordLog` (``append``
    continues the file at *path*); ``path=None`` keeps events in memory
    only.

    The in-memory mode backs ephemeral runs (:func:`repro.cluster.run_job`
    without a ``journal_path``) that want retry/heartbeat semantics
    without a durable artifact.

    ``clock`` (default ``time.time``) stamps every record; chaos
    campaigns inject a deterministic counter here so two runs of the
    same plan produce byte-identical journals.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        append: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.path = path
        self.events: List[dict] = []
        self._clock = clock if clock is not None else time.time
        self._log = (None if path is None
                     else RecordLog(path, truncate=not append))

    @property
    def last_time(self) -> float:
        """The newest record's stamp (0.0 before any): the journal's
        clock as of its last event, read without calling it again."""
        return self.events[-1]["time"] if self.events else 0.0

    def append(self, event: str, **fields) -> dict:
        record = {"event": event, "time": self._clock(), **fields}
        self.events.append(record)
        if self._log is not None:
            self._log.append(record, event)
        return record

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def atomic_write(path: str, text: str) -> None:
    """Crash-safe whole-file write: temp file + ``fsync`` + ``os.replace``.

    A failure at any point — including the injected
    ``cluster.checkpoint_torn`` fault, which kills the writer after a
    partial *temp* write — leaves the target either untouched or fully
    replaced, never torn.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            if _chaos._ACTIVE is not None and _chaos.fire(
                CLUSTER_CHECKPOINT_TORN, key=os.path.basename(path)
            ):
                fh.write(text[: len(text) // 2])
                fh.flush()
                # The temp file is deliberately left behind, like a real
                # crash would; the target is untouched.
                raise _chaos.InjectedCrash(
                    f"checkpoint write torn mid-write: {path}"
                )
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_directory(directory)
    except _chaos.InjectedCrash:
        raise
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fsync_directory(directory: str) -> None:
    """Make a completed rename durable by fsyncing its directory.

    ``os.replace`` updates the directory entry, and that entry lives in
    the directory's own data — without this fsync a crash right after
    the rename can resurrect the *old* file.  Platforms that cannot open
    a directory for reading (or fsync one) are tolerated silently; the
    rename is still atomic there, just not guaranteed durable.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass
class JournalState:
    """Everything :func:`replay` can reconstruct from a journal."""

    spec: Optional[dict] = None
    #: (kind, replicate) -> result payload (first occurrence wins; a
    #: retried task may journal duplicate replicates, all bit-identical)
    payloads: Dict[Tuple[str, int], dict] = field(default_factory=dict)
    failures: List[dict] = field(default_factory=list)
    worker_deaths: List[dict] = field(default_factory=list)
    tasks_started: int = 0
    tasks_finished: int = 0
    resumes: int = 0
    finished: bool = False
    #: The journalled autoMRE stop decision (``bootstop_converged``
    #: record), or None when the run never stopped early.
    bootstop: Optional[dict] = None
    events: List[dict] = field(default_factory=list)
    #: the run finished *degraded*: its deadline expired and the
    #: ``run_finished`` record salvages only the completed replicates.
    degraded: bool = False
    #: a ``task_deadline_exceeded`` event was journalled.
    deadline_exceeded: bool = False
    #: ``run_cancelled`` reasons seen (e.g. ``"drain"``); the journal
    #: is still resumable — the event is informational.
    cancellations: List[str] = field(default_factory=list)
    #: lines skipped by replay: torn tails, CRC failures, malformed
    #: result payloads — each with a companion entry in ``warnings``.
    corrupt_records: int = 0
    warnings: List[str] = field(default_factory=list)

    @property
    def done_inferences(self) -> Set[int]:
        return {r for (k, r) in self.payloads if k == "inference"}

    @property
    def done_bootstraps(self) -> Set[int]:
        return {r for (k, r) in self.payloads if k == "bootstrap"}

    @property
    def retries(self) -> List[dict]:
        return [f for f in self.failures if f.get("will_retry")]

    def perf_totals(self) -> Dict[str, int]:
        """Sum the per-task engine perf counters across all payloads."""
        totals: Dict[str, int] = {}
        for payload in self.payloads.values():
            for name, value in (payload.get("perf") or {}).items():
                totals[name] = totals.get(name, 0) + int(value)
        return totals

    def _skip(self, label, reason: str) -> None:
        message = f"journal line {label}: skipped ({reason})"
        self.corrupt_records += 1
        self.warnings.append(message)
        logger.warning("%s", message)


def _fold_record(state: JournalState, record: dict, line_no: int) -> None:
    """Fold one decoded record into *state*.

    Malformed ``replicate_done`` payloads are skipped and counted; every
    other record is appended to ``state.events`` and folded by event.
    """
    from .jobs import validate_payload

    event = record.get("event")
    if event == "replicate_done":
        try:
            validate_payload(record["payload"])
        except (KeyError, ValueError) as exc:
            state._skip(line_no, f"bad result payload: {exc}")
            return
    state.events.append(record)
    if event == "run_started":
        state.spec = record["spec"]
    elif event == "run_resumed":
        state.resumes += 1
    elif event == "task_started":
        state.tasks_started += 1
    elif event == "task_finished":
        state.tasks_finished += 1
    elif event == "replicate_done":
        payload = record["payload"]
        key = (payload["kind"], payload["replicate"])
        state.payloads.setdefault(key, payload)
    elif event == "task_failed":
        state.failures.append(record)
    elif event == "worker_dead":
        state.worker_deaths.append(record)
    elif event == "bootstop_converged":
        state.bootstop = record
    elif event == "task_deadline_exceeded":
        state.deadline_exceeded = True
    elif event == "run_cancelled":
        state.cancellations.append(str(record.get("reason")))
    elif event == "run_finished":
        state.finished = True
        if record.get("degraded"):
            state.degraded = True


def replay(path: str) -> JournalState:
    """Reconstruct run state from a journal file.

    Any unreadable record — the classic torn tail from a dying writer,
    but also a CRC-failing or payload-malformed record *anywhere* in the
    file — is skipped with a warning and counted, never trusted: the
    affected replicate simply reruns on resume (idempotent by task
    identity).

    Bootstrap payloads past a journalled ``bootstop_converged`` decision
    are dropped: the decision is authoritative, so replicates that raced
    past the stop point do not change a resumed run.

    A shard manifest at *path* raises :class:`RetiredJournalFormatError`.
    """
    state = JournalState()
    for line_no, _, _, record in RecordLog.scan(path):
        if isinstance(record, ValueError):
            state._skip(line_no, str(record))
            continue
        if record.get("format") == _SHARD_MANIFEST_FORMAT:
            raise RetiredJournalFormatError(
                f"{path} is a sharded-journal manifest; that format "
                f"was removed and only single-file journals are read"
            )
        _fold_record(state, record, line_no)
    if state.bootstop is not None:
        stop_at = int(state.bootstop["stop_at"])
        for key in [k for k in state.payloads
                    if k[0] == "bootstrap" and k[1] >= stop_at]:
            del state.payloads[key]
    return state


def compact_journal(path: str) -> JournalState:
    """Rewrite a journal to its durable essence, atomically.

    Keeps the run header, the first (winning) ``replicate_done`` per
    result key, the ``bootstop_converged`` decision when one was
    reached (without it a compacted unfinished run would resume past
    the stop point), and the terminal ``run_finished`` — dropping
    scheduling chatter, retries, and any corrupt lines.  The rewrite
    goes through :func:`atomic_write`, so a crash mid-compaction
    preserves the original journal.  Returns the replayed state the
    compaction was derived from.
    """
    state = replay(path)
    lines: List[str] = []
    seen: Set[Tuple[str, int]] = set()
    trailer: List[str] = []
    for record in state.events:
        event = record.get("event")
        if event == "run_started":
            lines.append(encode_record(record))
        elif event == "replicate_done":
            payload = record["payload"]
            key = (payload["kind"], payload["replicate"])
            if key not in seen and key in state.payloads:
                seen.add(key)
                lines.append(encode_record(record))
        elif event == "bootstop_converged":
            lines.append(encode_record(record))
        elif event == "task_deadline_exceeded":
            # Provenance of a degraded finalize must survive compaction.
            lines.append(encode_record(record))
        elif event == "run_finished":
            trailer.append(encode_record(record))
    atomic_write(path, "".join(line + "\n" for line in lines + trailer))
    return state
