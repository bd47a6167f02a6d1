"""Job specifications and their expansion into an idempotent task DAG.

A *job* is the paper's section-3.1 workload: ``n`` independent
inferences plus ``n`` bootstrap replicates over one alignment.  Each
schedulable *task* covers one or more replicates of one kind; every
replicate's result is a pure function of ``(seed, kind, replicate)`` -
the same derivation as the serial
:func:`repro.phylo.inference.run_full_analysis` - so any task can be
re-run (after a crash, a timeout, or a resume) and produce
bit-identical output.  That is what makes the DAG idempotent: task
identity, not execution history, determines results.

Bootstrap tasks may be *coarse* (several replicates per task, the EDTLP
grain) and are split into single-replicate *fine* tasks by the
multigrain scheduler when workers go idle (the LLP grain) - see
:mod:`repro.cluster.scheduler`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..phylo.inference import MODEL_NAMES
from ..phylo.search import SearchConfig
from .bootstop import BootstopConfig

__all__ = [
    "JOB_FIELDS",
    "JobSpec",
    "JobSpecError",
    "ClusterTask",
    "PendingTask",
    "expand_job",
    "validate_payload",
]

#: Removed ``SearchConfig`` options an older run header still carries,
#: each with the one value the kept search reproduces; a header holding
#: that value drops the field.
_RETIRED_CONFIG_FIELDS = {
    "batch_spr": False,
    "gradient_smoothing": False,
    "move_set": "spr",
}

_MODEL_CHOICES = MODEL_NAMES + ("default",)


class JobSpecError(ValueError):
    """A job field holds a value no run accepts."""


@dataclass(frozen=True)
class JobField:
    """One client-settable job field: type (a ``float`` takes an ``int``,
    a number never a ``bool``), rule, help, and ``infer`` / ``cluster
    run`` flags (none: HTTP only).  A ``search`` field belongs to the
    spec's ``SearchConfig`` (command line only).  The default is the
    owning dataclass's; ``nullable`` lets ``None`` stand for it."""

    name: str
    kind: type
    check: Callable[[object], bool]
    rule: str
    help: str
    flags: Tuple[str, ...] = ()
    nullable: bool = False
    search: bool = False

    @property
    def default(self) -> object:
        owner = SearchConfig if self.search else JobSpec
        return owner.__dataclass_fields__[self.name].default


#: The job's client fields, declared once: :class:`JobSpec` validates
#: them, and the HTTP ``model`` block (:mod:`repro.serve.api`) and the
#: ``infer`` / ``cluster run`` flags (:mod:`repro.phylo.cli`) read them.
JOB_FIELDS: Tuple[JobField, ...] = (
    JobField("n_inferences", int, lambda v: v >= 1, "at least one "
             "inference to pick a best tree", "independent inferences",
             ("-n", "--runs")),
    JobField("n_bootstraps", int, lambda v: v >= 0, "an integer >= 0",
             "bootstrap replicates (the budget, with bootstopping)",
             ("-b", "--bootstraps")),
    JobField("seed", int, lambda v: True, "an integer", "RNG seed",
             ("--seed",)),
    JobField("batch_size", int, lambda v: v >= 1, "an integer >= 1",
             "bootstraps per coarse task before the multigrain scheduler "
             "splits them", ("--batch-size",)),
    JobField("aa", bool, lambda v: True, "true or false",
             "treat the input as amino-acid sequences", ("--aa",)),
    JobField("model_name", str, lambda v: v in _MODEL_CHOICES,
             f"one of {', '.join(_MODEL_CHOICES)}", "substitution model "
             "(none or default: GTR for DNA, Poisson+F for amino acids, "
             "which take no other)", ("-m", "--model"), nullable=True),
    JobField("alpha", float, lambda v: 0 < v < math.inf, "a finite number "
             "> 0", "Gamma shape (none: the engine's default rates)",
             ("--alpha",), nullable=True),
    JobField("categories", int, lambda v: 1 <= v <= 16, "an integer in "
             "1..16", "Gamma rate categories (ignored while alpha is unset)",
             ("--categories",)),
    JobField("deadline_s", float, lambda v: v > 0, "a number > 0",
             "wall-clock budget in seconds, after which a degraded result "
             "is salvaged from the finished replicates; execution policy, "
             "which the result digest ignores", nullable=True),
    JobField("initial_radius", int, lambda v: v >= 1, "an integer >= 1",
             "initial SPR rearrangement radius", ("--radius",), search=True),
    JobField("max_radius", int, lambda v: v >= 1, "an integer >= 1",
             "maximum SPR radius", ("--max-radius",), search=True),
    JobField("max_rounds", int, lambda v: v >= 0, "an integer >= 0",
             "maximum SPR rounds", ("--rounds",), search=True),
)


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to (re)create a run deterministically.

    The spec is journalled verbatim in the run header, so ``resume``
    can rebuild the exact same task DAG without the original process.
    Construction checks the fields of :data:`JOB_FIELDS`, whose help
    says what each means (:class:`JobSpecError`).  ``bootstop``
    activates the autoMRE-style early-stop policy
    (:mod:`repro.cluster.bootstop`): the run may journal a
    ``bootstop_converged`` decision and finish with fewer replicates.
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

    def __post_init__(self) -> None:
        for f in JOB_FIELDS:
            owner = self.config if f.search else self
            value = getattr(owner, f.name, None)
            if value is None and (owner is None or f.nullable):
                continue
            kinds = (int, float) if f.kind is float else f.kind
            if (isinstance(value, bool) != (f.kind is bool)
                    or not isinstance(value, kinds) or not f.check(value)):
                raise JobSpecError(
                    f"job field {f.name}={value!r}, need {f.rule}")
        if self.aa and self.model_name not in (None, "default"):
            raise JobSpecError(f"job field model_name="
                               f"{self.model_name!r}, need default with aa")

    def to_json(self) -> Dict[str, object]:
        # What dataclasses.asdict gives, key order too, without its
        # recursive deep copy: every field is a scalar or one of two
        # flat dataclasses of scalars.  Runs twice per cache hit (the
        # digest and the record save).
        return {**vars(self),
                "config": None if self.config is None
                else dict(vars(self.config)),
                "bootstop": None if self.bootstop is None
                else self.bootstop.to_json()}

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "JobSpec":
        data = dict(payload)
        config = data.get("config")
        if config is not None:
            config = dict(config)
            for name, kept in _RETIRED_CONFIG_FIELDS.items():
                if config.pop(name, kept) != kept:
                    raise JobSpecError(
                        f"run header sets the retired search option "
                        f"{name!r}: its replicates came from a search "
                        f"this version no longer runs")
            data["config"] = SearchConfig(**config)
        if data.get("bootstop") is not None:
            data["bootstop"] = BootstopConfig.from_json(data["bootstop"])
        return cls(**data)


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
    for batch in _batched(remaining, spec.batch_size):
        tasks.append(ClusterTask(_task_id("bootstrap", batch), "bootstrap",
                                 batch, spec.seed))
    return tasks
