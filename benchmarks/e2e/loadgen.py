"""Load generator: a real ``repro.phylo.cli serve`` subprocess and the
closed-loop HTTP clients that drive it.

Hang-proofing is the point of this file.  Every HTTP call carries a
timeout and surfaces as a counted failure (:class:`OpFailed`), never a
stall; the server subprocess is always SIGTERMed and waited on, its
``--root`` removed; and the port is chosen here because ``serve --port
0`` does not report the port it bound.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Per-request ceiling.  A job's event stream stays open for the whole
#: run, so this also bounds how long one job may take before it counts
#: as failed.
HTTP_TIMEOUT_S = 20.0
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 20.0


class OpFailed(Exception):
    """One operation errored, timed out, answered off-contract, or failed
    a correctness check.  Counted as a failure; never a stall."""


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_call(port: int, method: str, path: str, body: Optional[bytes] = None,
              timeout: float = HTTP_TIMEOUT_S) -> Tuple[int, bytes]:
    """One request on a fresh connection (the server closes after each)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise OpFailed(f"{method} {path}: {type(exc).__name__}: {exc}") from exc
    finally:
        conn.close()


def http_json(port: int, method: str, path: str, body: Optional[bytes] = None,
              expect: Optional[int] = None) -> Dict[str, object]:
    status, raw = http_call(port, method, path, body)
    if expect is not None and status != expect:
        raise OpFailed(f"{method} {path}: status {status}, expected {expect}")
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise OpFailed(f"{method} {path}: body is not JSON") from exc


def sse_events(port: int, job_id: str) -> Tuple[List[str], float]:
    """Read a job's event stream to its end: the event names in order
    and the ``perf_counter`` time the first one arrived."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise OpFailed(f"events {job_id}: status {response.status}")
        events: List[str] = []
        first = 0.0
        for line in response:
            if line.startswith(b"event: "):
                if not events:
                    first = time.perf_counter()
                events.append(line[7:].strip().decode())
        return events, first
    except (OSError, http.client.HTTPException) as exc:
        raise OpFailed(f"events {job_id}: {type(exc).__name__}: {exc}") from exc
    finally:
        conn.close()


class Server:
    """A ``python -m repro.phylo.cli serve --workers 2`` subprocess."""

    def __init__(self, src_dir: str, scratch_dir: str, env: Dict[str, str]):
        self.scratch_dir = scratch_dir
        self.env = dict(env, PYTHONPATH=src_dir)
        self.port = 0
        self.root = ""
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        """Start the server and wait for ``/readyz`` to answer 200."""
        started = time.perf_counter()
        os.makedirs(self.scratch_dir, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="serve-root-", dir=self.scratch_dir)
        self.port = free_port()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.phylo.cli", "serve",
             "--root", self.root, "--port", str(self.port), "--workers", "2"],
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                status, _ = http_call(self.port, "GET", "/readyz", timeout=1.0)
                if status == 200:
                    return
            except OpFailed:
                pass
            time.sleep(0.01)
        self.stop()
        raise OpFailed("server did not become ready")

    def stop(self) -> None:
        """SIGTERM, wait, escalate to the whole process group, clean up."""
        proc, self.proc = self.proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            try:
                # Forked cluster workers share the session; none may outlive us.
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if self.root:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = ""


def closed_loop(n_clients: int, seconds: float,
                op: Callable[[int, int], Dict[str, float]]) -> Dict[str, object]:
    """Run *n_clients* closed loops for *seconds*: each client sends its
    next operation only once the previous one has completed.

    ``op(client, i)`` performs the client's i-th operation and returns
    named timings in seconds (or raises :class:`OpFailed`).  A client
    stops at the first operation boundary past the deadline.  ``late``
    is how long each client took from one reply to the next send (loop
    overhead plus the ``prep`` seconds the operation reports having spent
    building its request).
    One client runs inline on the calling thread.
    """
    samples: List[List[Dict[str, float]]] = [[] for _ in range(n_clients)]
    failures: List[List[str]] = [[] for _ in range(n_clients)]
    late: List[List[float]] = [[] for _ in range(n_clients)]
    start = time.perf_counter()
    deadline = start + seconds

    def client(index: int) -> None:
        i = 0
        previous_end = None
        while time.perf_counter() < deadline:
            begin = time.perf_counter()
            try:
                timings = op(index, i)
            except OpFailed as exc:
                failures[index].append(str(exc))
            else:
                if previous_end is not None:
                    late[index].append(begin - previous_end
                                       + timings.pop("prep", 0.0))
                timings.update(client=index, index=i,
                               end=time.perf_counter() - start)
                samples[index].append(timings)
            previous_end = time.perf_counter()
            i += 1

    if n_clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(k,), daemon=True)
                   for k in range(n_clients)]
        for thread in threads:
            thread.start()
        # Every call inside a client is bounded by HTTP_TIMEOUT_S, so the
        # join is bounded too; a thread still alive after it is a failure.
        for k, thread in enumerate(threads):
            thread.join(timeout=seconds + 4 * HTTP_TIMEOUT_S)  # one op: <= 4 calls
            if thread.is_alive():
                failures[k].append("client thread did not finish")
    return {
        "samples": [s for per_client in samples for s in per_client],
        "failures": [f for per_client in failures for f in per_client],
        "late": [x for per_client in late for x in per_client],
    }
