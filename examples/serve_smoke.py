"""Smoke-test the inference service end to end over a real socket.

Starts the asyncio HTTP server in-process on an ephemeral port, then
drives the full client workflow with raw HTTP/1.1:

1. submit a small synthetic job (``POST /jobs``),
2. stream its run journal to completion (``GET /jobs/{id}/events``),
3. fetch the finished result (``GET /jobs/{id}/result``),
4. resubmit the same alignment with shuffled taxa — and assert the
   content-addressed cache serves it without scheduling a single new
   cluster task.

Run with ``PYTHONPATH=src python examples/serve_smoke.py``.  Exits
nonzero on any contract violation; the CI ``serve`` job runs it.
"""

import asyncio
import json
import tempfile

from repro.phylo import synthetic_dataset
from repro.serve import JobService, ServeApp

N_WORKERS = 2


async def http(host, port, method, path, payload=None):
    reader, writer = await asyncio.open_connection(host, port)
    head = f"{method} {path} HTTP/1.1\r\nHost: smoke\r\n"
    if payload is not None:
        head += f"Content-Length: {len(payload)}\r\n"
    head += "\r\n"
    writer.write(head.encode() + (payload or b""))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    return status, raw.partition(b"\r\n\r\n")[2]


async def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as root:
        return await smoke(root)


async def smoke(root: str) -> int:
    fasta = synthetic_dataset(n_taxa=6, n_sites=120, seed=3).to_fasta()
    app = ServeApp(JobService(root, n_workers=N_WORKERS), port=0)
    await app.start()
    host, port = app.host, app.port
    print(f"serving on {host}:{port} (root {root})")

    submission = json.dumps({
        "alignment": fasta,
        "model": {"n_inferences": 1, "n_bootstraps": 4, "seed": 11},
        "client": "smoke",
    }).encode()
    status, body = await http(host, port, "POST", "/jobs", submission)
    assert status == 201, (status, body)
    job = json.loads(body)
    print(f"submitted {job['job_id']} (digest {job['digest'][:12]}...)")

    status, stream = await http(host, port, "GET",
                                f"/jobs/{job['job_id']}/events")
    assert status == 200
    events = [line.split(": ", 1)[1] for line in stream.decode().splitlines()
              if line.startswith("event: ")]
    print(f"streamed {len(events)} events: "
          f"{events[0]} ... {events[-1]}")
    assert events[-1] == "run_finished", events

    status, body = await http(host, port, "GET",
                              f"/jobs/{job['job_id']}/result")
    assert status == 200, (status, body)
    result = json.loads(body)
    print(f"best lnL {result['best_log_likelihood']:.4f}, "
          f"{result['n_bootstraps_used']} bootstraps, "
          f"consensus {result['consensus_newick']}")

    # Same content, different presentation: reversed record order.
    lines = fasta.strip().split("\n")
    shuffled = "".join(
        f"{name}\n{seq}\n"
        for name, seq in reversed(list(zip(lines[::2], lines[1::2])))
    )
    duplicate = json.dumps({
        "alignment": shuffled,
        "model": {"n_inferences": 1, "n_bootstraps": 4, "seed": 11},
        "client": "smoke-2",
    }).encode()
    status, body = await http(host, port, "POST", "/jobs", duplicate)
    assert status == 200, (status, body)  # 200 = served from cache
    assert json.loads(body)["cached"] is True

    status, body = await http(host, port, "GET", "/stats")
    stats = json.loads(body)
    print(f"stats: {stats}")
    assert stats["runs_executed"] == 1, "cache hit scheduled a new run!"

    await app.stop()
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(asyncio.run(main()))
