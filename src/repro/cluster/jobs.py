"""Job specifications and their expansion into an idempotent task DAG.

A *job* is the paper's section-3.1 workload: ``n`` independent
inferences plus ``n`` bootstrap replicates over one alignment.  Each
schedulable *task* covers one or more replicates of one kind; every
replicate's result is a pure function of ``(seed, kind, replicate)`` -
the same derivation as :class:`repro.phylo.parallel.TaskSpec` - so any
task can be re-run (after a crash, a timeout, or a resume) and produce
bit-identical output.  That is what makes the DAG idempotent: task
identity, not execution history, determines results.

Bootstrap tasks may be *coarse* (several replicates per task, the EDTLP
grain) and are split into single-replicate *fine* tasks by the
multigrain scheduler when workers go idle (the LLP grain) - see
:mod:`repro.cluster.scheduler`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..phylo.search import SearchConfig
from .bootstop import BootstopConfig

__all__ = [
    "JobSpec",
    "ClusterTask",
    "PendingTask",
    "TaskGraph",
    "expand_job",
    "validate_payload",
    "AGGREGATE_NODE",
]

#: Terminal DAG node: the streaming aggregation barrier every task feeds.
AGGREGATE_NODE = "aggregate/consensus"

#: Removed ``SearchConfig`` options an older run header still carries;
#: ``false`` (the only value the kept search reproduces) is dropped.
_RETIRED_CONFIG_FIELDS = ("batch_spr", "gradient_smoothing")


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to (re)create a run deterministically.

    The spec is journalled verbatim in the run header, so ``resume``
    can rebuild the exact same task DAG without the original process.
    ``model_name=None`` means the engine default
    (:func:`repro.phylo.inference.default_model_for`); ``alpha=None``
    means the engine's default Gamma rates.  ``bootstop`` activates the
    autoMRE-style early-stop policy (:mod:`repro.cluster.bootstop`):
    ``n_bootstraps`` then becomes the replicate *budget*, and the run
    may journal a ``bootstop_converged`` decision and finish with fewer.
    ``deadline_s`` is a wall-clock budget for the whole run: when it
    expires the master journals ``task_deadline_exceeded``, discards
    in-flight replicates, and finalizes a *degraded* result from the
    completed ones (:mod:`repro.cluster.cancel`).  Like
    ``alignment_path`` it is execution policy, not content — the result
    cache digest ignores it.
    """

    n_inferences: int
    n_bootstraps: int
    seed: int = 0
    batch_size: int = 1
    alignment_path: Optional[str] = None
    aa: bool = False
    model_name: Optional[str] = None
    alpha: Optional[float] = None
    categories: int = 4
    deadline_s: Optional[float] = None
    config: Optional[SearchConfig] = None
    bootstop: Optional[BootstopConfig] = None

    def to_json(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["config"] = asdict(self.config) if self.config else None
        payload["bootstop"] = (
            self.bootstop.to_json() if self.bootstop else None
        )
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "JobSpec":
        data = dict(payload)
        config = data.pop("config", None)
        bootstop = data.pop("bootstop", None)
        spec = cls(**data)
        if config is not None:
            config = dict(config)
            for name in _RETIRED_CONFIG_FIELDS:
                if config.pop(name, False):
                    raise ValueError(
                        f"run header sets the retired search option "
                        f"{name!r}: its replicates came from a search "
                        f"this version no longer runs")
            object.__setattr__(spec, "config", SearchConfig(**config))
        if bootstop is not None:
            object.__setattr__(
                spec, "bootstop", BootstopConfig.from_json(bootstop)
            )
        return spec


@dataclass(frozen=True)
class ClusterTask:
    """One schedulable unit: >= 1 replicates of one kind."""

    task_id: str
    kind: str  # "inference" | "bootstrap"
    replicates: Tuple[int, ...]
    seed: int

    @property
    def grain(self) -> int:
        return len(self.replicates)

    def split(self) -> List["ClusterTask"]:
        """Fine-grained children, one per replicate (MGPS's LLP step)."""
        if self.grain <= 1:
            return [self]
        return [
            ClusterTask(_task_id(self.kind, (r,)), self.kind, (r,), self.seed)
            for r in self.replicates
        ]

    def keys(self) -> List[Tuple[str, int]]:
        """The result keys this task produces."""
        return [(self.kind, r) for r in self.replicates]


@dataclass
class PendingTask:
    """A task waiting for dispatch (with retry bookkeeping)."""

    task: ClusterTask
    attempt: int = 1
    not_before: float = 0.0  # monotonic clock; retry backoff gate


def _task_id(kind: str, replicates: Tuple[int, ...]) -> str:
    if len(replicates) == 1:
        return f"{kind}/{replicates[0]}"
    return f"{kind}/{replicates[0]}-{replicates[-1]}"


def _batched(replicates: List[int], batch_size: int) -> Iterable[Tuple[int, ...]]:
    """Group *consecutive* replicates into batches of ``batch_size``.

    Non-consecutive survivors (after a resume excluded arbitrary
    replicates) never share a batch, so a batch id always denotes a
    contiguous range.
    """
    run: List[int] = []
    for r in replicates:
        if run and (r != run[-1] + 1 or len(run) >= batch_size):
            yield tuple(run)
            run = []
        run.append(r)
    if run:
        yield tuple(run)


def validate_payload(payload: object) -> dict:
    """Check one ``replicate_done`` result payload's shape.

    Journal replay and the streaming aggregator both consume payloads
    that crossed a process boundary and a disk write; a corrupted or
    truncated record can parse as JSON yet carry garbage.  Raises
    ``ValueError`` (or ``KeyError`` for a missing field) instead of
    letting the garbage reach consensus counting.  Returns the payload
    for call-through convenience.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"payload is not an object: {type(payload).__name__}")
    kind = payload.get("kind")
    if kind is not None and kind not in ("inference", "bootstrap"):
        raise ValueError(f"unknown payload kind: {kind!r}")
    replicate = payload["replicate"]
    if not isinstance(replicate, int) or isinstance(replicate, bool) \
            or replicate < 0:
        raise ValueError(f"bad replicate index: {replicate!r}")
    newick = payload["newick"]
    if not isinstance(newick, str) or not newick.rstrip().endswith(";"):
        raise ValueError(f"malformed newick string: {newick!r:.80}")
    lnl = payload["log_likelihood"]
    if isinstance(lnl, bool) or not isinstance(lnl, (int, float)) \
            or lnl != lnl or lnl in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite log likelihood: {lnl!r}")
    return payload


def expand_job(
    spec: JobSpec,
    done_inferences: Optional[Set[int]] = None,
    done_bootstraps: Optional[Set[int]] = None,
) -> List[ClusterTask]:
    """Expand a job into its task list, excluding finished replicates.

    Called with empty ``done_*`` sets this is the initial DAG; called
    with the replicate sets replayed from a journal it is the *resume*
    DAG - the same ids for the same work, which is what makes resuming
    idempotent.
    """
    done_inferences = done_inferences or set()
    done_bootstraps = done_bootstraps or set()
    tasks: List[ClusterTask] = []
    for i in range(spec.n_inferences):
        if i in done_inferences:
            continue
        tasks.append(ClusterTask(_task_id("inference", (i,)), "inference",
                                 (i,), spec.seed))
    remaining = [r for r in range(spec.n_bootstraps) if r not in done_bootstraps]
    for batch in _batched(remaining, max(1, spec.batch_size)):
        tasks.append(ClusterTask(_task_id("bootstrap", batch), "bootstrap",
                                 batch, spec.seed))
    return tasks


@dataclass
class TaskGraph:
    """The job's dependency structure.

    The workload is embarrassingly parallel, so the DAG is flat: every
    task is immediately ready, and all of them feed one terminal
    aggregation node (:data:`AGGREGATE_NODE`) - the streaming consensus
    barrier that :mod:`repro.cluster.aggregate` services incrementally.
    """

    tasks: List[ClusterTask]
    dependencies: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def from_spec(cls, spec: JobSpec, **done) -> "TaskGraph":
        tasks = expand_job(spec, **done)
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate task ids in expansion: {ids}")
        return cls(tasks=tasks, dependencies={AGGREGATE_NODE: tuple(ids)})

    def ready(self) -> List[ClusterTask]:
        """Tasks with no unmet dependencies (all of them, by design)."""
        blocked = set(self.dependencies)
        return [t for t in self.tasks if t.task_id not in blocked]

    @property
    def n_replicates(self) -> int:
        return sum(t.grain for t in self.tasks)
