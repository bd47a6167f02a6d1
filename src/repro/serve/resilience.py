"""Admission-control preflight and drain/deadline plumbing for serve.

This module owns the service-level robustness vocabulary of ISSUE 10:

* a memory *preflight* that estimates a job's peak working set from the
  submission alone — (taxa, patterns, model) — so a submission that
  cannot possibly fit under the configured ceiling is rejected with a
  typed error at admission instead of OOM-killing a worker an hour in;
* :class:`ResourceLimitError` / :class:`DrainingError`, the transport
  -free rejection types the HTTP front-end maps onto 413 and 503;
* re-exports of the cluster cancellation API so serve code has one
  import site for drain/deadline machinery.

The estimate is deliberately *pessimistic and simple*: an admission
check must be a pure function of the submission (it runs before any
durable side effect) and err on the side of over-estimating — a false
reject is a clear, typed, immediately retryable-elsewhere answer, while
a false admit is a silent OOM kill later.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.cancel import (  # noqa: F401 — re-exported
    REASON_DEADLINE,
    REASON_DRAIN,
    CancelToken,
    TaskCancelled,
)
from ..cluster.jobs import JobSpec

__all__ = [
    "REASON_DEADLINE",
    "REASON_DRAIN",
    "CancelToken",
    "TaskCancelled",
    "DrainingError",
    "ResourceLimitError",
    "estimate_clv_mb",
    "estimate_job_memory_mb",
    "preflight",
]

#: Bytes per conditional-likelihood entry (float64).
_BYTES_PER_ENTRY = 8

#: Fudge factor over the raw CLV arithmetic: transition-matrix caches,
#: scaling vectors, the pattern matrix itself, numpy temporaries in the
#: kernels, and interpreter overhead.  Measured headroom on the bench
#: workloads is ~1.6-1.9x the raw CLV bytes; 2.0 keeps the preflight
#: pessimistic.
_OVERHEAD_FACTOR = 2.0

#: Fixed per-worker-process floor (interpreter + numpy + imports), MiB.
_BASE_PROCESS_MB = 48.0


class ResourceLimitError(RuntimeError):
    """A submission whose estimated working set exceeds the ceiling.

    Raised at admission, before any durable side effect — no record,
    alignment file, or journal exists for a rejected job.  The HTTP
    layer maps it to ``413 job_too_large``.
    """

    def __init__(self, estimated_mb: float, limit_mb: float,
                 detail: str = ""):
        self.estimated_mb = estimated_mb
        self.limit_mb = limit_mb
        message = (
            f"estimated job working set ~{estimated_mb:.0f} MiB exceeds "
            f"the service ceiling of {limit_mb:.0f} MiB"
        )
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class DrainingError(RuntimeError):
    """The service is draining and admits no new work.

    The HTTP layer maps it to ``503 draining`` with a ``Retry-After``
    header — the polite signal for a load balancer to move on.
    """

    def __init__(self, retry_after_s: float = 5.0):
        self.retry_after_s = retry_after_s
        super().__init__("service is draining; no new jobs are admitted")


def estimate_clv_mb(n_taxa: int, n_patterns: int, n_states: int = 4,
                    categories: int = 4) -> float:
    """Raw conditional-likelihood arena estimate for one engine, MiB.

    An unrooted binary tree over ``n_taxa`` leaves has ``n_taxa - 2``
    inner nodes, each holding one CLV of shape
    ``(categories, n_patterns, n_states)`` in float64; the engine keeps
    roughly one extra CLV's worth of scratch per traversal direction,
    so we budget ``n_taxa`` CLVs total.
    """
    n_clvs = max(1, int(n_taxa))
    entries = n_clvs * int(n_patterns) * int(categories) * int(n_states)
    return entries * _BYTES_PER_ENTRY / (1024.0 * 1024.0)


def estimate_job_memory_mb(
    n_taxa: int,
    n_patterns: int,
    spec: Optional[JobSpec] = None,
    n_states: Optional[int] = None,
    categories: Optional[int] = None,
    n_workers: int = 1,
) -> float:
    """Pessimistic peak working-set estimate for one submission, MiB.

    The dominant term is the CLV arena (see :func:`estimate_clv_mb`),
    scaled by the overhead factor, plus the search's insertion-scoring
    stacks (at most ``STACK_BUDGET_BYTES``, or one candidate's worth when
    a single candidate is larger), all times how many engines run at once
    (one per worker process; each worker also pays the fixed process
    floor).  ``spec`` supplies ``aa``/``categories`` when the explicit
    arguments are omitted.
    """
    # Imported here: cache-hit traffic never estimates, and the server
    # need not load the search's scoring module to serve it.
    from ..phylo.engine.insertion import stack_bytes

    if n_states is None:
        n_states = 20 if (spec is not None and spec.aa) else 4
    if categories is None:
        categories = spec.categories if spec is not None else 4
    per_engine = estimate_clv_mb(n_taxa, n_patterns, n_states, categories)
    stacks = stack_bytes(n_patterns, categories, n_states) / (1024.0 * 1024.0)
    workers = max(1, int(n_workers))
    return workers * (_BASE_PROCESS_MB + _OVERHEAD_FACTOR * per_engine
                      + stacks)


def preflight(patterns, spec: JobSpec, limit_mb: Optional[float],
              n_workers: int = 1) -> float:
    """Check a compressed submission against the memory ceiling.

    Returns the estimate (MiB); raises :class:`ResourceLimitError` when
    a ceiling is configured and the estimate exceeds it.  ``patterns``
    is any pattern alignment (``.taxa`` + ``.patterns`` array).
    """
    n_taxa, n_patterns = patterns.patterns.shape
    estimated = estimate_job_memory_mb(
        n_taxa, n_patterns, spec=spec, n_workers=n_workers
    )
    if limit_mb is not None and estimated > limit_mb:
        raise ResourceLimitError(
            estimated, limit_mb,
            detail=f"{n_taxa} taxa x {n_patterns} patterns, "
                   f"{n_workers} worker(s)",
        )
    return estimated
