"""Fault-tolerant master-worker job orchestration (paper section 3.1).

The paper's outer parallel layer is an embarrassingly parallel MPI
master-worker scheme: a master rank farms independent tree searches and
bootstrap replicates out to worker ranks, and MGPS re-grains the work
dynamically as loads shift.  :mod:`repro.sched` *simulates* that layer
on the modelled Cell hardware; this package is its production
counterpart on real host cores:

* :mod:`~repro.cluster.jobs` - declarative job specs expanded into an
  idempotent task DAG (tasks derive deterministically from
  ``(seed, kind, replicate)``, exactly like
  :class:`repro.phylo.parallel.TaskSpec`);
* :mod:`~repro.cluster.queue` - a multiprocessing work queue with
  worker heartbeats, per-task timeouts, bounded retry with backoff and
  dead-worker requeue;
* :mod:`~repro.cluster.pool` - the worker processes themselves: forked
  once, parked between jobs, retired on death or a chaos-epoch change;
* :mod:`~repro.cluster.checkpoint` - an append-only JSONL run journal
  with exact (bit-identical) checkpoint/resume;
* :mod:`~repro.cluster.scheduler` - the MGPS-inspired multigrain
  dispatch policy (coarse batches while work is plentiful, split to
  fine grain as workers go idle);
* :mod:`~repro.cluster.aggregate` - streaming best-tree / consensus /
  support aggregation so partial results are servable at any time;
* :mod:`~repro.cluster.bootstop` - the autoMRE-style bootstopping
  policy: deterministic support-convergence checks over the contiguous
  replicate prefix that stop the bootstrap DAG early, journalled so
  resume stays bit-identical;
* :mod:`~repro.cluster.runner` - the high-level ``run`` / ``resume`` /
  ``status`` entry points used by the CLI.
"""

from .aggregate import StreamingAggregator, consensus_newick, merge_perf_counters
from .cancel import REASON_DEADLINE, REASON_DRAIN, CancelToken, TaskCancelled
from .bootstop import (
    BootstopCheck,
    BootstopConfig,
    BootstopController,
    evaluate_convergence,
)
from .checkpoint import JournalState, RunJournal, compact_journal, replay
from .jobs import (
    ClusterTask,
    JobSpec,
    PendingTask,
    TaskGraph,
    expand_job,
)
from .pool import WorkerPool
from .queue import ClusterConfig, ClusterQueue, TaskExecutionError, WorkerPlans
from .runner import job_status, resume_job, run_job
from .scheduler import MultigrainScheduler

__all__ = [
    "CancelToken",
    "TaskCancelled",
    "REASON_DEADLINE",
    "REASON_DRAIN",
    "BootstopCheck",
    "BootstopConfig",
    "BootstopController",
    "evaluate_convergence",
    "StreamingAggregator",
    "consensus_newick",
    "merge_perf_counters",
    "JournalState",
    "RunJournal",
    "compact_journal",
    "replay",
    "ClusterTask",
    "JobSpec",
    "PendingTask",
    "TaskGraph",
    "expand_job",
    "ClusterConfig",
    "ClusterQueue",
    "TaskExecutionError",
    "WorkerPlans",
    "WorkerPool",
    "job_status",
    "resume_job",
    "run_job",
    "MultigrainScheduler",
]
