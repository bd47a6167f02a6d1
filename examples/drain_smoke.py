"""Smoke-test graceful drain across a real SIGTERM and restart.

Unlike ``serve_smoke.py`` (in-process server), this drives the actual
CLI entry point as a subprocess — the same process boundary an
operator's init system sees:

1. start ``repro.phylo.cli serve`` on a free port and wait for
   ``/readyz``,
2. submit a job big enough to still be running when the signal lands,
3. send SIGTERM and assert the drain contract: ``/readyz`` flips to
   503, new submissions get ``503 draining`` + ``Retry-After``, and
   the process exits cleanly within the grace budget,
4. restart the server on the *same* state root and assert the drained
   job resumes to completion on its own,
5. run the identical submission in a fresh root and assert the resumed
   result is bit-identical (same digest, same payload).

Run with ``PYTHONPATH=src python examples/drain_smoke.py``.  Exits
nonzero on any contract violation; the CI ``serve`` job runs it.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

N_BOOTSTRAPS = 24
DRAIN_GRACE_S = 20.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_json(port, method, path, payload=None, timeout=5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        blob = response.read()
        return response.status, dict(response.getheaders()), \
            json.loads(blob) if blob else None
    finally:
        conn.close()


def start_server(root: str, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.phylo.cli", "serve",
         "--root", root, "--port", str(port), "--workers", "2",
         "--drain-grace", str(DRAIN_GRACE_S)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read().decode()
            raise RuntimeError(f"server died on startup:\n{out}")
        try:
            status, _, body = http_json(port, "GET", "/readyz")
            if status == 200 and body["ready"]:
                return proc
        except OSError:
            pass
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("server never became ready")


def wait_state(port, job_id, want, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, body = http_json(port, "GET", f"/jobs/{job_id}")
        if body["state"] in want:
            return body
        time.sleep(0.05)
    raise RuntimeError(f"job {job_id} never reached {want}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-drain-smoke-") as root, \
            tempfile.TemporaryDirectory(
                prefix="repro-drain-baseline-") as baseline_root:
        return drain_and_resume(root, baseline_root)


def drain_and_resume(root: str, baseline_root: str) -> int:
    from repro.phylo import synthetic_dataset

    # Big enough that a replicate takes a noticeable fraction of a
    # second — the drain can only unwind at a safe point, so this sets
    # the width of the observable "draining" window.
    fasta = synthetic_dataset(n_taxa=12, n_sites=600, seed=3).to_fasta()
    submission = {
        "alignment": fasta,
        "model": {"n_inferences": 1, "n_bootstraps": N_BOOTSTRAPS,
                  "seed": 11},
        "client": "drain-smoke",
    }
    port = free_port()

    server = start_server(root, port)
    print(f"server pid {server.pid} on port {port} (root {root})")

    status, _, body = http_json(port, "POST", "/jobs", submission)
    assert status == 201, (status, body)
    job_id = body["job_id"]
    print(f"submitted {job_id}")
    wait_state(port, job_id, {"running"})
    print("job running; sending SIGTERM")

    t_signal = time.monotonic()
    server.send_signal(signal.SIGTERM)

    # The drain window: readiness flips and submissions bounce while the
    # in-flight job unwinds to a checkpoint.  Each probe opens a fresh
    # connection and tolerates the listener closing under it — the two
    # observations are independent so a late OSError on one can't mask
    # the other.
    saw_not_ready = saw_rejection = False
    observations = []
    while server.poll() is None and not (saw_not_ready and saw_rejection):
        if not saw_not_ready:
            try:
                status, _, body = http_json(port, "GET", "/readyz",
                                            timeout=1.0)
                observations.append(("GET /readyz", status, body))
                if status == 503 and body.get("draining"):
                    saw_not_ready = True
            except OSError:
                pass
        if not saw_rejection:
            try:
                status, headers, body = http_json(port, "POST", "/jobs",
                                                  submission, timeout=1.0)
                observations.append(("POST /jobs", status, body))
                if status == 503 and body.get("error") == "draining":
                    saw_rejection = True
                    assert "Retry-After" in headers, headers
                    assert body["retry_after_s"] > 0, body
            except OSError:
                pass
    assert saw_not_ready, \
        f"/readyz never reported draining; saw {observations}"
    assert saw_rejection, \
        f"submission was not rejected during drain; saw {observations}"
    print("drain contract held: readyz 503, submit 503 + Retry-After")

    server.wait(timeout=DRAIN_GRACE_S + 10.0)
    elapsed = time.monotonic() - t_signal
    assert elapsed < DRAIN_GRACE_S + 5.0, \
        f"exit took {elapsed:.1f}s, grace is {DRAIN_GRACE_S}s"
    print(f"server exited cleanly in {elapsed:.1f}s")

    # Restart on the same root: the drained job resumes by itself.
    server = start_server(root, port)
    try:
        done = wait_state(port, job_id, {"done", "failed"})
        assert done["state"] == "done", done
        assert not done.get("degraded"), done
        status, _, resumed = http_json(port, "GET",
                                       f"/jobs/{job_id}/result")
        assert status == 200, (status, resumed)
        print(f"resumed to completion: digest {resumed['digest'][:12]}...")
    finally:
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=DRAIN_GRACE_S + 10.0)

    # Bit-identity: the same submission in a fresh root must agree.
    baseline_server = start_server(baseline_root, port)
    try:
        status, _, body = http_json(port, "POST", "/jobs", submission)
        assert status == 201, (status, body)
        done = wait_state(port, body["job_id"], {"done", "failed"})
        assert done["state"] == "done", done
        status, _, baseline = http_json(
            port, "GET", f"/jobs/{body['job_id']}/result")
        assert status == 200
    finally:
        baseline_server.send_signal(signal.SIGTERM)
        baseline_server.wait(timeout=DRAIN_GRACE_S + 10.0)

    assert resumed["digest"] == baseline["digest"], \
        (resumed["digest"], baseline["digest"])
    assert json.dumps(resumed, sort_keys=True) == \
        json.dumps(baseline, sort_keys=True)
    print("resumed result is bit-identical to the uninterrupted baseline")
    print("drain smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
