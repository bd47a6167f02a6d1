"""Preallocated CLV storage: the NumPy analogue of SPE local-store buffers.

The paper's double-buffering optimization (section 5.2.4) works because
the SPE kernels write into *preallocated* local-store buffers instead of
touching the allocator on every ``newview()``.  The reproduction's
likelihood engine used to allocate a fresh CLV array per cached
direction — thousands of heap round trips per hill-climb sweep.
:class:`ClvArena` replaces that churn with a slab allocator:

* CLV slots live in large C-contiguous blocks of shape
  ``(slots, n_cats, n_patterns, n_states)`` — category-major, so each
  category's ``(n_patterns, n_states)`` block is one contiguous operand
  for the kernels' GEMMs (DESIGN 7.6) — plus a matching ``int64`` block
  for the per-pattern scale counters;
* a free list recycles slots released by cache invalidation, so a
  steady-state search performs **zero** new slot allocations — the
  ``grown`` counter stays flat, which the engine benchmark asserts;
* every acquire/release/growth event is counted, and the counters are
  exported through :meth:`LikelihoodEngine.perf_counters` into the
  workload traces.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["ClvArena", "ClvSlot"]


class ClvSlot:
    """One recyclable CLV buffer: a view into an arena block."""

    __slots__ = ("index", "clv", "scale_counts", "free")

    def __init__(self, index: int, clv: np.ndarray, scale_counts: np.ndarray):
        self.index = index
        self.clv = clv  # (n_cats, n_patterns, n_states) view
        self.scale_counts = scale_counts  # (n_patterns,) int64 view
        self.free = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "free" if self.free else "in-use"
        return f"<ClvSlot {self.index} {state} {self.clv.shape}>"


class ClvArena:
    """A growable pool of CLV slots with free-list recycling.

    Parameters
    ----------
    n_patterns, n_cats, n_states:
        Sizes of each slot's ``(n_cats, n_patterns, n_states)`` CLV
        buffer.
    initial_slots:
        Slots preallocated up front.  The pool doubles when exhausted
        (each growth allocates one new contiguous block; existing slot
        views stay valid because blocks are never reallocated).
    """

    def __init__(self, n_patterns: int, n_cats: int, n_states: int,
                 initial_slots: int = 16):
        if min(n_patterns, n_cats, n_states) < 1:
            raise ValueError("arena dimensions must be positive")
        if initial_slots < 1:
            raise ValueError("need at least one initial slot")
        self.n_patterns = n_patterns
        self.n_cats = n_cats
        self.n_states = n_states
        self._blocks: List[np.ndarray] = []
        self._scale_blocks: List[np.ndarray] = []
        self._slots: List[ClvSlot] = []
        self._free: List[int] = []
        #: perf counters (exported via the engine into traces)
        self.acquires = 0
        self.releases = 0
        self.grown = 0  # block allocations, including the initial one
        self.high_water = 0
        self._grow(initial_slots)

    # -- pool management -----------------------------------------------------

    def _grow(self, count: int) -> None:
        block = np.empty(
            (count, self.n_cats, self.n_patterns, self.n_states),
            dtype=np.float64, order="C",
        )
        scales = np.empty((count, self.n_patterns), dtype=np.int64)
        self._blocks.append(block)
        self._scale_blocks.append(scales)
        base = len(self._slots)
        for i in range(count):
            slot = ClvSlot(base + i, block[i], scales[i])
            self._slots.append(slot)
            self._free.append(slot.index)
        self.grown += 1

    @property
    def capacity(self) -> int:
        return len(self._slots)

    @property
    def in_use(self) -> int:
        return len(self._slots) - len(self._free)

    # -- slot lifecycle -------------------------------------------------------

    def acquire(self) -> ClvSlot:
        """Hand out a slot, growing the pool (doubling) if exhausted."""
        if not self._free:
            self._grow(max(len(self._slots), 1))
        slot = self._slots[self._free.pop()]
        slot.free = False
        self.acquires += 1
        self.high_water = max(self.high_water, self.in_use)
        return slot

    def release(self, slot: ClvSlot) -> None:
        """Return a slot to the free list for recycling."""
        if slot is not self._slots[slot.index]:
            raise ValueError("slot does not belong to this arena")
        if slot.free:
            raise ValueError(f"slot {slot.index} released twice")
        slot.free = True
        self._free.append(slot.index)
        self.releases += 1

    def release_all(self) -> None:
        """Reclaim every outstanding slot (cache-wide invalidation)."""
        for slot in self._slots:
            if not slot.free:
                self.release(slot)

    # -- diagnostics ----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "arena_capacity": self.capacity,
            "arena_in_use": self.in_use,
            "arena_acquires": self.acquires,
            "arena_releases": self.releases,
            "arena_grown": self.grown,
            "arena_high_water": self.high_water,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClvArena {self.in_use}/{self.capacity} slots "
            f"({self.n_cats}x{self.n_patterns}x{self.n_states})>"
        )
