"""Memory Flow Controller: the SPE's DMA engine.

Every SPE accesses main memory exclusively through its MFC (paper
section 4): transfers are at most 16 KB each, must be 1, 2, 4, 8 bytes
or a multiple of 16 bytes long, and large moves use DMA *lists* of up to
2,048 elements.  Commands are tagged (tag groups 0-31) and the SPU
blocks on a tag group when it needs the data — unless double buffering
hides the wait (paper section 5.2.4).

The MFC here is a queue of commands served asynchronously over the
shared :class:`~repro.cell.eib.EIB`; completion triggers per-tag-group
events the SPU process can wait on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Sequence

from .devsim import Event, Get, Simulator, Store, Timeout, Wait
from .eib import EIB
from .timing import CellTiming, DEFAULT_TIMING

__all__ = ["MFC", "DMAError", "DMACommand"]

#: Valid tag-group ids.
N_TAG_GROUPS = 32


class DMAError(ValueError):
    """An illegal DMA request (size, alignment, or list length)."""


@dataclass
class DMACommand:
    """One queued DMA transfer."""

    n_bytes: int
    tag: int
    direction: str  # "get" (mem -> LS) or "put" (LS -> mem)
    is_list_element: bool = False


class MFC:
    """One SPE's DMA queue, served over the shared EIB."""

    def __init__(self, sim: Simulator, eib: EIB,
                 timing: CellTiming = DEFAULT_TIMING, name: str = "mfc"):
        self.sim = sim
        self.eib = eib
        self.timing = timing
        self.name = name
        self._queue: Store = sim.store(name=f"{name}-queue")
        self._pending: Dict[int, int] = {tag: 0 for tag in range(N_TAG_GROUPS)}
        self._tag_events: Dict[int, Event] = {}
        self.bytes_moved = 0
        self.commands_served = 0
        sim.spawn(self._server(), name=f"{name}-server", daemon=True)

    # -- validation ---------------------------------------------------------

    def validate_size(self, n_bytes: int) -> None:
        """Apply the MFC's size rules (paper section 4)."""
        if n_bytes <= 0:
            raise DMAError(f"DMA size must be positive, got {n_bytes}")
        if n_bytes > self.timing.dma_max_transfer_bytes:
            raise DMAError(
                f"DMA transfer of {n_bytes} B exceeds the "
                f"{self.timing.dma_max_transfer_bytes} B limit; use a DMA list"
            )
        if n_bytes in self.timing.dma_small_sizes:
            return
        if n_bytes % self.timing.dma_alignment_bytes != 0:
            raise DMAError(
                f"DMA size {n_bytes} is not 1/2/4/8 or a multiple of "
                f"{self.timing.dma_alignment_bytes} bytes"
            )

    def _validate_tag(self, tag: int) -> None:
        if not 0 <= tag < N_TAG_GROUPS:
            raise DMAError(f"tag group must be in [0, {N_TAG_GROUPS}), got {tag}")

    # -- issue API (non-blocking, like mfc_get / mfc_put) ----------------------

    def dma_get(self, n_bytes: int, tag: int = 0) -> None:
        """Queue a main-memory -> local-store transfer."""
        self._issue(DMACommand(n_bytes, tag, "get"))

    def dma_list(self, sizes: Sequence[int], tag: int = 0,
                 direction: str = "get") -> None:
        """Queue a DMA-list transfer (for moves larger than 16 KB)."""
        if not sizes:
            raise DMAError("empty DMA list")
        if len(sizes) > self.timing.dma_list_max_entries:
            raise DMAError(
                f"DMA list of {len(sizes)} entries exceeds the "
                f"{self.timing.dma_list_max_entries}-entry limit"
            )
        for size in sizes:
            self._issue(DMACommand(size, tag, direction, is_list_element=True))

    def _issue(self, command: DMACommand) -> None:
        self.validate_size(command.n_bytes)
        self._validate_tag(command.tag)
        if command.direction not in ("get", "put"):
            raise DMAError(f"unknown DMA direction {command.direction!r}")
        self._pending[command.tag] += 1
        if not self._queue.try_put(command):
            raise DMAError("MFC queue refused command")  # pragma: no cover

    # -- completion waiting -------------------------------------------------------

    def tag_pending(self, tag: int) -> int:
        """Outstanding commands in a tag group."""
        self._validate_tag(tag)
        return self._pending[tag]

    def wait_tag(self, tag: int) -> Generator:
        """Process-generator: block until tag group *tag* drains.

        This is the SPU-side ``mfc_read_tag_status_all()`` stall — the
        11.4 % of ``newview()`` time that double buffering eliminated.
        """
        self._validate_tag(tag)
        while self._pending[tag] > 0:
            event = self._tag_events.get(tag)
            if event is None or event.triggered:
                event = self.sim.event(name=f"{self.name}-tag{tag}")
                self._tag_events[tag] = event
            yield Wait(event)

    # -- server --------------------------------------------------------------------

    def _server(self) -> Generator:
        """Serve queued commands in order over the EIB."""
        while True:
            command = yield Get(self._queue)
            latency = self.timing.dma_latency_s
            if command.is_list_element:
                latency = self.timing.dma_list_element_overhead_s
            yield Timeout(latency)
            yield from self.eib.transfer(command.n_bytes)
            self.bytes_moved += command.n_bytes
            self.commands_served += 1
            self._pending[command.tag] -= 1
            if self._pending[command.tag] == 0:
                event = self._tag_events.pop(command.tag, None)
                if event is not None and not event.triggered:
                    event.succeed(self.sim.now)
