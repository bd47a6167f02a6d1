"""Inference-as-a-service over the cluster layer (``repro-phylo serve``).

The paper's pipeline ends where most real deployments begin: somebody
has to *operate* tree inference for many users.  This package wraps
:mod:`repro.cluster` in a small asyncio HTTP/JSON service (stdlib only)
with three service-grade behaviours layered on the cluster's existing
determinism contract:

* :mod:`~repro.serve.cache` — content-addressed result caching keyed by
  the canonical digest of ``(pattern-compressed alignment, model
  config, seed)``; duplicate submissions return instantly without
  scheduling a single cluster task;
* :mod:`~repro.serve.fairness` — multi-tenant dispatch: per-client FIFO
  queues, per-client inflight caps, strict priorities with
  round-robin tie-breaking, and bounded queue-depth watermarks that
  surface as ``429 Too Many Requests`` + ``Retry-After`` backpressure;
* :mod:`~repro.serve.jobstore` — durable job records + the
  transport-free :class:`~repro.serve.jobstore.JobService` core; a
  server killed mid-job (the ``serve.server_kill`` chaos site) restarts
  and resumes to a bit-identical result;
* :mod:`~repro.serve.sse` — live progress streaming by tailing the run
  journal as server-sent events;
* :mod:`~repro.serve.resilience` — admission-time memory preflight
  (``413 job_too_large``), the drain/deadline error vocabulary, and
  re-exports of the cluster cancellation API;
* :mod:`~repro.serve.app` — the asyncio HTTP front-end and routes,
  including ``/readyz`` readiness and SIGTERM-triggered graceful drain
  (in-flight jobs checkpoint within a bounded grace and resume
  bit-identically on the next start).

autoMRE bootstopping itself lives in :mod:`repro.cluster.bootstop` (it
is a cluster aggregation policy, not a service feature); the service
exposes it through the ``bootstop`` key of a submission.
"""

from .api import ApiError, parse_submission, spec_from_request
from .app import ServeApp, serve_forever
from .cache import ResultCache, canonical_alignment_key, job_digest
from .fairness import FairScheduler, QueuedJob, QueueFullError
from .jobstore import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobRecord,
    JobService,
    JobStore,
    digest_of,
    result_payload,
)
from .resilience import (
    CancelToken,
    DrainingError,
    ResourceLimitError,
    TaskCancelled,
    estimate_job_memory_mb,
    preflight,
)
from .sse import JournalTail, format_sse

__all__ = [
    "ApiError",
    "parse_submission",
    "spec_from_request",
    "ServeApp",
    "serve_forever",
    "ResultCache",
    "canonical_alignment_key",
    "job_digest",
    "FairScheduler",
    "QueuedJob",
    "QueueFullError",
    "digest_of",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JobRecord",
    "JobService",
    "JobStore",
    "result_payload",
    "CancelToken",
    "DrainingError",
    "ResourceLimitError",
    "TaskCancelled",
    "estimate_job_memory_mb",
    "preflight",
    "JournalTail",
    "format_sse",
]
