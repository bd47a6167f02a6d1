"""Declarative fault plans: the *what* and *when* of chaos.

A :class:`FaultPlan` is pure data — a seed plus one :class:`FaultSpec`
per injection site — and is JSON round-trippable, so a chaos campaign
can journal the exact adversary it ran against.  The *decision* logic
(deterministic probability draws, trigger budgets) lives in
:mod:`repro.chaos.injector`; this module only names the sites and the
knobs.

Fault-site taxonomy (see DESIGN.md §11):

===========================  ====================================================
site                         meaning
===========================  ====================================================
``engine.clv_poison``        overwrite a stripe of a freshly combined CLV with
                             NaN or Inf before the underflow-rescaling check
``engine.underflow``         force eligible CLV rows below the underflow
                             threshold by an exact power-of-two factor (and
                             pre-decrement their scale counts) so the rescaling
                             path must restore them bit-for-bit
``engine.pmat_corrupt``      overwrite a cached P-matrix stack with NaN in
                             place (the corruption *persists* until the cache
                             is invalidated)
``cluster.worker_crash_ack`` worker calls ``os._exit`` after streaming every
                             replicate but before the task-finished ack
``cluster.worker_hang``      worker stops heartbeating and sleeps forever
``cluster.journal_torn``     journal append writes a truncated record, then
                             the writing process dies (typed
                             :class:`~repro.chaos.injector.InjectedCrash`)
``cluster.journal_oserror``  transient ``OSError`` on journal append
``cluster.checkpoint_torn``  atomic checkpoint write dies after writing part
                             of the *temp* file (the target must stay intact)
``serve.server_kill``        the serving process dies between two journal
                             appends of a running job (typed
                             :class:`~repro.chaos.injector.InjectedCrash`);
                             a restarted server must resume the job to a
                             bit-identical result
``serve.slow_client``        a client trickles its request bytes slower than
                             the server's header/body read timeouts (driven
                             client-side by the resilience campaign); the
                             server must answer with a typed 408, never hold
                             the connection open indefinitely
``serve.client_disconnect_mid_sse``  a client drops its connection in the
                             middle of an SSE journal stream; the server must
                             release the tailing task within one poll interval
``cluster.worker_stall``     worker wedges *while still heartbeating* (a
                             livelock, not a crash); the per-task timeout must
                             requeue the work
``cluster.worker_oom``       worker pins a runaway allocation resident and
                             stalls; the master's RSS watchdog must journal
                             ``worker_rss_exceeded`` and requeue instead of
                             letting the kernel OOM-kill silently
===========================  ====================================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "ENGINE_CLV_POISON",
    "ENGINE_UNDERFLOW",
    "ENGINE_PMAT_CORRUPT",
    "CLUSTER_WORKER_CRASH_ACK",
    "CLUSTER_WORKER_HANG",
    "CLUSTER_JOURNAL_TORN",
    "CLUSTER_JOURNAL_OSERROR",
    "CLUSTER_CHECKPOINT_TORN",
    "CLUSTER_WORKER_STALL",
    "CLUSTER_WORKER_OOM",
    "SERVE_SERVER_KILL",
    "SERVE_SLOW_CLIENT",
    "SERVE_CLIENT_DISCONNECT_MID_SSE",
    "ENGINE_SITES",
    "CLUSTER_SITES",
    "SERVE_SITES",
    "RESILIENCE_SITES",
    "ALL_SITES",
    "RETIRED_SITES",
    "RetiredSiteError",
    "FaultSpec",
    "FaultPlan",
    "SITE_CATALOGUE",
    "default_plan",
]

# -- the site taxonomy --------------------------------------------------------

ENGINE_CLV_POISON = "engine.clv_poison"
ENGINE_UNDERFLOW = "engine.underflow"
ENGINE_PMAT_CORRUPT = "engine.pmat_corrupt"
CLUSTER_WORKER_CRASH_ACK = "cluster.worker_crash_ack"
CLUSTER_WORKER_HANG = "cluster.worker_hang"
CLUSTER_JOURNAL_TORN = "cluster.journal_torn"
CLUSTER_JOURNAL_OSERROR = "cluster.journal_oserror"
CLUSTER_CHECKPOINT_TORN = "cluster.checkpoint_torn"
CLUSTER_WORKER_STALL = "cluster.worker_stall"
CLUSTER_WORKER_OOM = "cluster.worker_oom"
SERVE_SERVER_KILL = "serve.server_kill"
SERVE_SLOW_CLIENT = "serve.slow_client"
SERVE_CLIENT_DISCONNECT_MID_SSE = "serve.client_disconnect_mid_sse"

#: Sites visited inside one likelihood engine (any backend).
ENGINE_SITES: Tuple[str, ...] = (
    ENGINE_CLV_POISON,
    ENGINE_UNDERFLOW,
    ENGINE_PMAT_CORRUPT,
)

#: Sites visited by the cluster master loop and its workers.
CLUSTER_SITES: Tuple[str, ...] = (
    CLUSTER_WORKER_CRASH_ACK,
    CLUSTER_WORKER_HANG,
    CLUSTER_JOURNAL_TORN,
    CLUSTER_JOURNAL_OSERROR,
    CLUSTER_CHECKPOINT_TORN,
)

#: Sites visited by the inference service front-end (repro.serve).
SERVE_SITES: Tuple[str, ...] = (
    SERVE_SERVER_KILL,
)

#: Sites of the resilience campaign (ISSUE 10): hostile clients against
#: a live server plus wedged/ballooning workers underneath it.  Kept
#: out of CLUSTER_SITES/SERVE_SITES so the existing campaigns' draw
#: schedules stay byte-identical (draws are keyed per site).
RESILIENCE_SITES: Tuple[str, ...] = (
    SERVE_SLOW_CLIENT,
    SERVE_CLIENT_DISCONNECT_MID_SSE,
    CLUSTER_WORKER_STALL,
    CLUSTER_WORKER_OOM,
)

ALL_SITES: Tuple[str, ...] = (
    ENGINE_SITES + CLUSTER_SITES + SERVE_SITES + RESILIENCE_SITES
)

#: Sites whose instrumented code was deleted, each with what it went
#: with; a spec naming one is refused.
RETIRED_SITES: Dict[str, str] = {
    "backend.stripe_raise": "the striped engine backends",
    "cluster.shard_torn": "the sharded journal",
    "cluster.steal_race": "the sharded journal's work stealing",
}


class RetiredSiteError(ValueError):
    """A fault spec names a site in :data:`RETIRED_SITES`: no code
    visits it any more, so the plan could never fire it."""


@dataclass(frozen=True)
class FaultSpec:
    """One site's injection policy.

    ``trigger_at`` (0-based visit indices) takes precedence over
    ``probability`` when non-empty; either way a spec never fires more
    than ``max_triggers`` times per process.  ``value`` carries a
    site-specific argument (``engine.clv_poison``: ``"nan"`` or
    ``"inf"``).
    """

    site: str
    probability: float = 0.0
    max_triggers: int = 1
    trigger_at: Tuple[int, ...] = ()
    value: Optional[str] = None

    def __post_init__(self):
        if self.site in RETIRED_SITES:
            raise RetiredSiteError(
                f"fault site {self.site!r} was removed with "
                f"{RETIRED_SITES[self.site]}; no code visits it"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1]: {self}")
        if self.max_triggers < 1:
            raise ValueError(f"max_triggers must be >= 1: {self}")

    def to_json(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["trigger_at"] = list(self.trigger_at)
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "FaultSpec":
        data = dict(payload)
        data["trigger_at"] = tuple(data.get("trigger_at") or ())
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded adversary: which sites fire, how often, and when.

    The plan is inert data; activate it with
    :func:`repro.chaos.injector.inject`.  Two activations of the same
    plan over the same (deterministic) program produce the same
    injection schedule — the determinism contract every chaos test and
    campaign relies on.
    """

    seed: int
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        sites = [s.site for s in self.specs]
        if len(set(sites)) != len(sites):
            raise ValueError(f"duplicate sites in plan: {sites}")

    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(s.site for s in self.specs)

    def spec_for(self, site: str) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "specs": [s.to_json() for s in self.specs],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "FaultPlan":
        return cls(
            seed=int(payload["seed"]),
            specs=tuple(
                FaultSpec.from_json(s) for s in payload.get("specs", [])
            ),
        )


#: The one site catalogue: each site's standard :class:`FaultSpec` as a
#: function of the campaign seed.  Probabilities are tuned per layer:
#:
#: * engine sites are per visit over the campaign's small workloads (tens
#:   of ``newview`` visits): most seeds draw at least one fault, and
#:   ``max_triggers`` bounds the damage so the recompute ladder — not
#:   retry exhaustion — is what gets exercised.  The poison value
#:   alternates NaN/Inf by seed so both non-finite classes are covered;
#: * cluster process faults key their draws on ``task_id:attempt``, so
#:   the schedule is identical regardless of worker count or dispatch
#:   order; per *task attempt* (a campaign job has ~5-7) roughly every
#:   other seed loses a worker, and journal faults stay rare enough that
#:   retry budgets are exercised but not exhausted;
#: * ``serve.server_kill`` is visited once per journal append of the
#:   running job (a few dozen), so most seeds kill the server at least
#:   once mid-job and a second kill may land in the resumed run;
#: * the client-side resilience sites are *scenario* draws, consulted
#:   once per run, so their probabilities are per job; the worker
#:   wedges fire inside forked workers keyed on ``task_id:attempt``,
#:   and roughly half the seeds wedge at least one worker.
SITE_CATALOGUE: Dict[str, Callable[[int], FaultSpec]] = {
    ENGINE_CLV_POISON: lambda seed: FaultSpec(
        ENGINE_CLV_POISON, probability=0.05, max_triggers=2,
        value="inf" if seed % 2 else "nan",
    ),
    ENGINE_UNDERFLOW: lambda seed: FaultSpec(
        ENGINE_UNDERFLOW, probability=0.08, max_triggers=2,
    ),
    ENGINE_PMAT_CORRUPT: lambda seed: FaultSpec(
        ENGINE_PMAT_CORRUPT, probability=0.02, max_triggers=1,
    ),
    CLUSTER_WORKER_CRASH_ACK: lambda seed: FaultSpec(
        CLUSTER_WORKER_CRASH_ACK, probability=0.10, max_triggers=1,
    ),
    CLUSTER_WORKER_HANG: lambda seed: FaultSpec(
        CLUSTER_WORKER_HANG, probability=0.06, max_triggers=1,
    ),
    CLUSTER_JOURNAL_TORN: lambda seed: FaultSpec(
        CLUSTER_JOURNAL_TORN, probability=0.04, max_triggers=1,
    ),
    CLUSTER_JOURNAL_OSERROR: lambda seed: FaultSpec(
        CLUSTER_JOURNAL_OSERROR, probability=0.04, max_triggers=2,
    ),
    CLUSTER_CHECKPOINT_TORN: lambda seed: FaultSpec(
        CLUSTER_CHECKPOINT_TORN, probability=0.05, max_triggers=1,
    ),
    SERVE_SERVER_KILL: lambda seed: FaultSpec(
        SERVE_SERVER_KILL, probability=0.08, max_triggers=2,
    ),
    SERVE_SLOW_CLIENT: lambda seed: FaultSpec(
        SERVE_SLOW_CLIENT, probability=0.5, max_triggers=1,
    ),
    SERVE_CLIENT_DISCONNECT_MID_SSE: lambda seed: FaultSpec(
        SERVE_CLIENT_DISCONNECT_MID_SSE, probability=0.5, max_triggers=1,
    ),
    CLUSTER_WORKER_STALL: lambda seed: FaultSpec(
        CLUSTER_WORKER_STALL, probability=0.08, max_triggers=1,
    ),
    CLUSTER_WORKER_OOM: lambda seed: FaultSpec(
        CLUSTER_WORKER_OOM, probability=0.08, max_triggers=1,
    ),
}


def default_plan(sites: Tuple[str, ...], seed: int) -> FaultPlan:
    """The standard adversary over *sites* for one campaign seed: each
    site's :data:`SITE_CATALOGUE` spec, in the order *sites* names them."""
    return FaultPlan(
        seed=seed, specs=tuple(SITE_CATALOGUE[s](seed) for s in sites)
    )
