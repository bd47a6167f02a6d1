"""Asyncio HTTP/JSON front-end over the synchronous service core.

Stdlib only: ``asyncio.start_server`` plus hand-rolled HTTP/1.1 framing
(the request surface is small and fully under our control, so a
dependency-free parser is ~60 lines).  Blocking cluster runs execute in
a thread pool — the event loop only ever parses requests, tails
journals, and frames responses, so status and event-stream requests
stay responsive while replicates grind in worker processes.

Routes::

    GET  /healthz            liveness probe + degradation counters
    GET  /readyz             readiness probe (503 once draining)
    POST /jobs               submit (alignment + model + seed) -> job id
    GET  /jobs               list job summaries
    GET  /jobs/{id}          durable record + live journal progress
    GET  /jobs/{id}/events   SSE stream of the job's run journal
    GET  /jobs/{id}/result   final result (best tree, supports, consensus)
    GET  /stats              scheduler + cache counters
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from ..phylo.alignment import AlignmentError
from .api import ApiError, parse_submission
from .fairness import QueueFullError
from .jobstore import JOB_DONE, JOB_FAILED, JobService
from .resilience import DrainingError, ResourceLimitError, TaskCancelled
from .sse import JournalTail, format_sse

__all__ = ["ServeApp", "serve_forever"]

logger = logging.getLogger(__name__)

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Hard ceilings on request framing (a service must bound its inputs).
_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024


class _HttpRequest:
    def __init__(self, method: str, path: str, headers: Dict[str, str],
                 body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body


async def _read_request(
    reader: asyncio.StreamReader,
    header_timeout: Optional[float] = None,
    body_timeout: Optional[float] = None,
) -> Optional[_HttpRequest]:
    """Parse one HTTP/1.1 request; None on clean EOF before any bytes.

    Both reads are bounded in *time* as well as size: a client that
    trickles bytes slower than the timeouts (the classic slowloris
    posture, and the ``serve.slow_client`` chaos site) gets a typed 408
    instead of pinning a connection open indefinitely.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=header_timeout
        )
    except asyncio.TimeoutError:
        raise ApiError(408, "header_timeout",
                       "request head not received in time")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ApiError(400, "bad_request", "truncated request head")
    except asyncio.LimitOverrunError:
        raise ApiError(413, "headers_too_large", "request head too large")
    if len(head) > _MAX_HEADER_BYTES:
        raise ApiError(413, "headers_too_large", "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError:
        raise ApiError(400, "bad_request", f"malformed request line: {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ApiError(400, "bad_request", "bad Content-Length")
        if length > _MAX_BODY_BYTES:
            raise ApiError(413, "body_too_large",
                           f"body exceeds {_MAX_BODY_BYTES} bytes")
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=body_timeout
            )
        except asyncio.TimeoutError:
            raise ApiError(408, "body_timeout",
                           "request body not received in time")
        except asyncio.IncompleteReadError:
            raise ApiError(400, "bad_request", "truncated request body")
    return _HttpRequest(method, path, headers, body)


def _response(status: int, payload: Dict[str, object],
              headers: Optional[Dict[str, str]] = None) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    return head + body


def _error_headers(exc: ApiError) -> Optional[Dict[str, str]]:
    """Headers implied by an :class:`ApiError` (Retry-After on 429/503)."""
    if exc.retry_after is None:
        return None
    return {"Retry-After": f"{max(1, int(round(exc.retry_after)))}"}


class ServeApp:
    """The HTTP server: routing, SSE streaming, and job dispatch."""

    def __init__(
        self,
        service: JobService,
        host: str = "127.0.0.1",
        port: int = 8642,
        max_concurrent_jobs: int = 1,
        poll_interval: float = 0.1,
        drain_grace_s: float = 10.0,
        header_timeout_s: float = 5.0,
        body_timeout_s: float = 15.0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.drain_grace_s = drain_grace_s
        self.header_timeout_s = header_timeout_s
        self.body_timeout_s = body_timeout_s
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent_jobs,
            thread_name_prefix="repro-serve-job",
        )
        self._max_concurrent = max_concurrent_jobs
        self._inflight: set = set()
        #: job id -> event set when its execute returns (any outcome);
        #: present from admission (or recovery) until then.
        self._job_finished: Dict[str, asyncio.Event] = {}
        self._sse_active = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._stopping = asyncio.Event()
        self._wakeup = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        recovered = self.service.recover()
        for record in recovered:
            self._job_finished[record.job_id] = asyncio.Event()
        if recovered:
            logger.info("recovered %d unfinished job(s) from %s",
                        len(recovered), self.service.store.root)
        # Fork the resident workers before the listener opens, so they
        # inherit no client socket.
        self.service.pool.prefork()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_HEADER_BYTES,
        )
        if self.port == 0:  # tests bind an ephemeral port
            self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        logger.info("repro-serve listening on %s:%d", self.host, self.port)

    @property
    def draining(self) -> bool:
        return self.service.draining

    def begin_drain(self) -> None:
        """Flip /readyz, reject new submits, cancel in-flight runs.

        Idempotent; the actual unwinding is cooperative — each running
        job trips at its next safe point, journals its progress, and
        leaves a resumable journal behind.  :meth:`stop` bounds how
        long we wait for that.
        """
        if not self.service.draining:
            logger.info("drain requested: rejecting new submissions")
        self.service.begin_drain()
        self._wakeup.set()

    async def stop(self) -> None:
        """Graceful, *bounded* shutdown.

        Drain first, give in-flight jobs ``drain_grace_s`` seconds to
        reach a checkpoint, then abandon the executor without waiting —
        a stop must complete in bounded time even if a worker is
        wedged.  Abandoned jobs stay ``running`` on disk; the next
        start resumes them bit-identically.
        """
        self.begin_drain()
        # Keep the listener open while in-flight jobs unwind: load
        # balancers see /readyz 503 and clients get typed "draining"
        # rejections for the whole grace window instead of connection
        # refusals the moment the signal lands.
        if self._inflight:
            _done, pending = await asyncio.wait(
                set(self._inflight), timeout=self.drain_grace_s
            )
            if pending:
                logger.warning(
                    "%d job(s) still running after %.1fs drain grace; "
                    "abandoning (journals resume on restart)",
                    len(pending), self.drain_grace_s,
                )
        self._stopping.set()
        self._wakeup.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatcher is not None:
            await self._dispatcher
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.service.close()

    # -- dispatch -----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Pull jobs off the fair scheduler into the thread pool."""
        loop = asyncio.get_event_loop()
        while not self._stopping.is_set():
            started = False
            while (not self.draining
                   and len(self._inflight) < self._max_concurrent):
                record = self.service.next_job()
                if record is None:
                    break
                future = loop.run_in_executor(
                    self._executor, self.service.execute, record
                )
                self._inflight.add(future)
                future.add_done_callback(
                    functools.partial(self._job_done, record.job_id))
                started = True
            if not started:
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(),
                                           timeout=self.poll_interval)
                except asyncio.TimeoutError:
                    pass

    def _job_done(self, job_id: str, future) -> None:
        self._inflight.discard(future)
        finished = self._job_finished.pop(job_id, None)
        if finished is not None:
            finished.set()  # wakes the job's event streams
        exc = future.exception() if not future.cancelled() else None
        if isinstance(exc, TaskCancelled):
            # The expected unwinding of a drained job: its record stays
            # running on disk and resumes on the next start.
            logger.info("job drained to checkpoint: %s", exc)
        elif exc is not None:
            # service.execute only lets a simulated server-kill escape;
            # anything else here is a bug worth a loud log line.
            logger.error("job execution raised: %s", exc)
        self._wakeup.set()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await _read_request(
                    reader,
                    header_timeout=self.header_timeout_s,
                    body_timeout=self.body_timeout_s,
                )
            except ApiError as exc:
                writer.write(_response(exc.status, exc.payload()))
                await writer.drain()
                return
            if request is None:
                return
            await self._route(request, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception:  # noqa: BLE001 — a connection must not kill the app
            logger.exception("unhandled error serving a request")
            try:
                writer.write(_response(
                    500, {"error": "internal", "message": "internal error"}
                ))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            try:
                # shutdown(SHUT_WR) the socket, don't just close the fd.
                # The resident workers are forked before the listener
                # opens, but a *replacement* forked mid-service (after a
                # worker death, or for a second concurrent job) inherits
                # whatever connections are open at that instant; a plain
                # close of one of those sends no FIN until that worker
                # exits and a client reading to EOF hangs meanwhile.
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, request: _HttpRequest,
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        method, path = request.method, request.path.split("?", 1)[0]
        try:
            if path == "/healthz" and method == "GET":
                payload = self.service.health()
                payload["sse_streams"] = self._sse_active
                status = 200
            elif path == "/readyz" and method == "GET":
                # Readiness flips the moment a drain begins so a load
                # balancer stops routing here before the listener goes
                # away; liveness (/healthz) stays 200 throughout.
                if self.draining:
                    status, payload = 503, {"ready": False,
                                            "draining": True}
                else:
                    status, payload = 200, {"ready": True,
                                            "draining": False}
            elif path == "/jobs" and method == "POST":
                status, payload = self._submit(request.body)
                self._wakeup.set()
            elif path == "/jobs" and method == "GET":
                status, payload = 200, self._list_jobs()
            elif path == "/stats" and method == "GET":
                status, payload = 200, self.service.stats()
            elif path.startswith("/jobs/"):
                parts = path[len("/jobs/"):].split("/")
                if method != "GET":
                    raise ApiError(405, "method_not_allowed",
                                   f"{method} not allowed on {path}")
                if len(parts) == 1:
                    status, payload = self._status(parts[0])
                elif len(parts) == 2 and parts[1] == "events":
                    await self._stream_events(parts[0], reader, writer)
                    return
                elif len(parts) == 2 and parts[1] == "result":
                    status, payload = self._result(parts[0])
                else:
                    raise ApiError(404, "not_found", f"no route: {path}")
            else:
                raise ApiError(404, "not_found", f"no route: {method} {path}")
        except ApiError as exc:
            writer.write(_response(exc.status, exc.payload(),
                                   headers=_error_headers(exc)))
            await writer.drain()
            return
        writer.write(_response(status, payload))
        await writer.drain()

    # -- route bodies -------------------------------------------------------

    def _submit(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        alignment, spec, client, priority = parse_submission(body)
        try:
            record, hit = self.service.submit(alignment, spec,
                                              client=client,
                                              priority=priority)
        except DrainingError as exc:
            raise ApiError(503, "draining", str(exc),
                           retry_after=exc.retry_after_s) from exc
        except QueueFullError as exc:
            raise ApiError(429, "queue_full", str(exc),
                           retry_after=exc.retry_after_s) from exc
        except ResourceLimitError as exc:
            raise ApiError(
                413, "job_too_large", str(exc),
                extra={"estimated_mb": round(exc.estimated_mb, 1),
                       "limit_mb": exc.limit_mb},
            ) from exc
        except AlignmentError as exc:
            # The top-level code stays "alignment_invalid" (the
            # pre-existing contract); the parser's stable per-category
            # code rides along for programmatic clients.
            raise ApiError(400, "alignment_invalid",
                           f"could not parse alignment: {exc}",
                           extra={"alignment_code": exc.code}) from exc
        except ValueError as exc:
            raise ApiError(400, "alignment_invalid",
                           f"could not parse alignment: {exc}") from exc
        if not hit:
            self._job_finished[record.job_id] = asyncio.Event()
        return (200 if hit else 201), {
            "job_id": record.job_id,
            "digest": record.digest,
            "state": record.state,
            "cached": hit,
        }

    def _list_jobs(self) -> Dict[str, object]:
        jobs = [
            {"job_id": r.job_id, "client": r.client, "state": r.state,
             "cached": r.cached, "priority": r.priority}
            for r in self.service.store.load_all()
        ]
        return {"jobs": jobs}

    def _status(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        status = self.service.status(job_id)
        if status is None:
            raise ApiError(404, "job_not_found", f"no such job: {job_id}")
        return 200, status

    def _result(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        record = self.service.store.get(job_id)
        if record is None:
            raise ApiError(404, "job_not_found", f"no such job: {job_id}")
        if record.state == JOB_FAILED:
            raise ApiError(409, "job_failed",
                           record.error or "job failed")
        if record.state != JOB_DONE:
            raise ApiError(409, "job_not_finished",
                           f"job is {record.state}; poll /jobs/{job_id}")
        result = self.service.store.result(record)
        if result is None:  # done record but evicted/corrupt cache entry
            raise ApiError(404, "result_missing",
                           "result is no longer cached; resubmit the job")
        return 200, result

    async def _stream_events(self, job_id: str,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """SSE-stream the job's journal until its terminal event.

        The loop watches for two early exits: a client disconnect
        (noticed within one poll interval — a dropped consumer must
        not pin a tailing task for the job's whole runtime) and a
        server drain (the stream ends with a ``server_draining`` event
        so clients know to reconnect elsewhere).  Progress events are
        polled every ``poll_interval``; the job's *end* is an event
        (set by :meth:`_job_done`), so the stream ends when the job
        does, and the terminal ``run_finished`` block is sent only once
        the job's record is terminal — ``/result`` never answers 409
        to a client whose stream has ended.
        """
        self._sse_active += 1
        try:
            await self._stream_events_inner(job_id, reader, writer)
        finally:
            self._sse_active -= 1

    @staticmethod
    def _client_gone(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> bool:
        return reader.at_eof() or writer.is_closing()

    async def _stream_events_inner(self, job_id: str,
                                   reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter) -> None:
        record = self.service.store.get(job_id)
        if record is None:
            writer.write(_response(
                404, {"error": "job_not_found",
                      "message": f"no such job: {job_id}"}
            ))
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        if record.cached:
            # A cache hit never journals: emit one synthetic event so
            # streaming clients get the same terminal signal either way.
            writer.write(format_sse(
                {"event": "cached_result", "digest": record.digest},
                0,
            ).encode())
            await writer.drain()
            return
        tail = JournalTail(self.service.store.journal_path(job_id))
        held = ""  # the terminal block, withheld until the record is too
        while True:
            if self._client_gone(reader, writer):
                return
            # Taken before the journal and the record are read, so a job
            # finishing in between is seen by the wait below.
            finished = self._job_finished.get(job_id)
            blocks = []
            for journal_record in tail.poll():
                block = format_sse(journal_record, tail.next_id)
                tail.next_id += 1
                if JournalTail.is_terminal(journal_record):
                    held = block
                else:
                    blocks.append(block)
            record = self.service.store.get(job_id)
            state = record.state if record is not None else None
            # ``run_finished`` is journalled before the result is cached
            # and the record saved: hold it back while the job is still
            # executing, so once a stream has ended /result is 200.
            release = bool(held) and (finished is None
                                      or state in (JOB_DONE, JOB_FAILED))
            if release:
                blocks.append(held)
            if blocks:
                writer.write("".join(blocks).encode())
                await writer.drain()
            if release:
                return
            if state == JOB_FAILED:
                writer.write(format_sse(
                    {"event": "job_failed",
                     "error": record.error or "job failed"},
                    tail.next_id,
                ).encode())
                await writer.drain()
                return
            if self._stopping.is_set() or self.draining:
                writer.write(format_sse(
                    {"event": "server_draining"}, tail.next_id,
                ).encode())
                await writer.drain()
                return
            # Progress events keep the poll cadence (and disconnects and
            # drains their detection bound); the job's end wakes us now.
            if finished is None:
                await asyncio.sleep(self.poll_interval)
            else:
                try:
                    await asyncio.wait_for(finished.wait(),
                                           timeout=self.poll_interval)
                except asyncio.TimeoutError:
                    pass


async def serve_forever(
    root: str,
    host: str = "127.0.0.1",
    port: int = 8642,
    n_workers: int = 2,
    max_inflight_per_client: int = 1,
    max_queued_total: Optional[int] = None,
    max_queued_per_client: Optional[int] = None,
    drain_grace_s: float = 10.0,
    max_job_memory_mb: Optional[float] = None,
    install_signal_handlers: bool = True,
) -> None:
    """Run the service until cancelled (the ``repro-phylo serve`` loop).

    SIGTERM/SIGINT trigger a graceful drain: readiness flips, new
    submissions get 503 + Retry-After, in-flight jobs get
    ``drain_grace_s`` seconds to reach a checkpoint, and the process
    exits cleanly — the next start resumes any interrupted journals
    bit-identically.
    """
    service = JobService(root, n_workers=n_workers,
                         max_inflight_per_client=max_inflight_per_client,
                         max_queued_total=max_queued_total,
                         max_queued_per_client=max_queued_per_client,
                         max_job_memory_mb=max_job_memory_mb)
    app = ServeApp(service, host=host, port=port,
                   drain_grace_s=drain_grace_s)
    await app.start()
    shutdown = asyncio.Event()
    loop = asyncio.get_event_loop()
    installed = []
    if install_signal_handlers:
        import signal as _signal

        def _on_signal(signum: int) -> None:
            logger.info("received signal %d: draining", signum)
            app.begin_drain()
            shutdown.set()

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, _on_signal, signum)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without support
    try:
        await shutdown.wait()
    except asyncio.CancelledError:
        pass
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await app.stop()
