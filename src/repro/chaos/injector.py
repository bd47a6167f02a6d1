"""Deterministic fault firing: the *whether* of chaos.

A :class:`FaultInjector` binds a :class:`~repro.chaos.plan.FaultPlan` to
per-site visit counters.  Each :meth:`~FaultInjector.fire` call at a
site counts one visit and decides — deterministically — whether the
fault fires there:

* explicit ``trigger_at`` visit indices win when present;
* otherwise a uniform draw in ``[0, 1)`` is derived from
  ``crc32(f"{seed}:{site}:{key or visit_index}")`` and compared against
  the spec's ``probability``.

No ``random.random()``, no global RNG state: the draw depends only on
the plan seed, the site name, and a caller-supplied key (or, failing
that, the visit index).  Cluster sites key on ``task_id:attempt`` so the
schedule is independent of worker count and dispatch order; engine
sites key on the visit index, which is deterministic because the engine
itself is.

The module-level ``_ACTIVE`` injector is what instrumented code probes.
The probe is designed for a zero-cost disabled path::

    from repro import chaos
    ...
    if chaos.injector._ACTIVE is not None:   # one global load + is-check
        chaos.fire("engine.clv_poison", ...)

Workers spawned by ``fork`` inherit the active injector (and their own
copy of its counters), which is exactly what the cluster sites want:
each worker process decides its own faults from the same plan.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import List, Optional, Tuple
from zlib import crc32

from .plan import FaultPlan, FaultSpec

__all__ = [
    "InjectedCrash",
    "FaultInjector",
    "active_injector",
    "fire",
    "inject",
]


class InjectedCrash(RuntimeError):
    """A synthetic process death.

    Raised where the modelled fault is "the process stops here" (torn
    journal write, torn checkpoint write).  Nothing below the top-level
    harness may catch and absorb it — the chaos campaign treats a run
    that swallows an ``InjectedCrash`` as broken.
    """


def _uniform(seed: int, site: str, token: str) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from (seed, site, token)."""
    return crc32(f"{seed}:{site}:{token}".encode()) / 2**32


class FaultInjector:
    """Per-site visit counting plus deterministic fire decisions.

    Thread-safe: the serve layer runs jobs on executor threads, so a
    site can be visited from several threads at once.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self.visits: Counter = Counter()
        self.fired: Counter = Counter()
        #: chronological (site, visit_index, key) log of every fire.
        self.fire_log: List[Tuple[str, int, Optional[str]]] = []

    def spec(self, site: str) -> Optional[FaultSpec]:
        return self.plan.spec_for(site)

    def fire(self, site: str, key: Optional[str] = None) -> bool:
        """Count one visit to ``site``; return True iff the fault fires."""
        spec = self.plan.spec_for(site)
        if spec is None:
            return False
        with self._lock:
            index = self.visits[site]
            self.visits[site] = index + 1
            if self.fired[site] >= spec.max_triggers:
                return False
            if spec.trigger_at:
                hit = index in spec.trigger_at
            else:
                token = key if key is not None else str(index)
                hit = (
                    spec.probability > 0.0
                    and _uniform(self.plan.seed, site, token)
                    < spec.probability
                )
            if hit:
                self.fired[site] += 1
                self.fire_log.append((site, index, key))
            return hit

    def summary(self) -> dict:
        return {
            "seed": self.plan.seed,
            "visits": dict(self.visits),
            "fired": dict(self.fired),
            "fire_log": [list(entry) for entry in self.fire_log],
        }


#: The injector instrumented code probes.  None == chaos disabled, and
#: the disabled check is a single module-global load.
_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    return _ACTIVE


def fire(site: str, key: Optional[str] = None) -> bool:
    """Visit ``site`` on the active injector; False when chaos is off."""
    injector = _ACTIVE
    if injector is None:
        return False
    return injector.fire(site, key)


@contextmanager
def inject(plan: FaultPlan):
    """Activate ``plan`` for the dynamic extent of the block.

    Yields the :class:`FaultInjector` so callers can read its visit /
    fire counters afterwards.  Nesting is rejected: two overlapping
    plans would make fire decisions order-dependent.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a FaultPlan is already active; cannot nest")
    injector = FaultInjector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
