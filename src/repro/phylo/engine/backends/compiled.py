"""Where the ``compiled`` backend used to live.

The ``compiled`` backend (nogil C and numba kernels behind a
pattern-striped dispatcher) and the ``partitioned`` dispatcher it
extended were deleted: neither beat ``einsum`` on the end-to-end
benchmark's engine workloads, and the striped forms took two to three
times as long (DESIGN.md §10.3).  Asking for either name is refused
with :class:`~repro.phylo.engine.protocol.RetiredBackendError`.

This stub remains because the end-to-end benchmark's per-backend sweep
imports :func:`compiled_available` to label the compiled rows, and that
benchmark is frozen.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["compiled_available"]


def compiled_available() -> Optional[str]:
    """Always ``None``: no compiled kernel flavour exists."""
    return None
