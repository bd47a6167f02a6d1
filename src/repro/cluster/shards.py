"""Retired: the sharded WAL journal (DESIGN.md §15).

Only ``ShardWriter`` is left, because the frozen end-to-end harness
(``benchmarks/e2e/layers.py``) imports it to time an append path.  It
now hands back the one journal format there is, a single-file
:class:`~repro.cluster.checkpoint.RunJournal`.  A shard manifest found
at a journal path is refused with
:class:`~repro.cluster.checkpoint.RetiredJournalFormatError`.
"""

from __future__ import annotations

from .checkpoint import RunJournal

__all__ = ["ShardWriter"]


def ShardWriter(path: str, group: int = 0) -> RunJournal:
    """A single-file journal appending to *path*; *group* is ignored."""
    return RunJournal(path, append=True)
