"""Server-sent-events streaming of a job's run journal.

The cluster journal is already an append-only event log, so live
progress streaming is just a tail: :class:`JournalTail` incrementally
reads complete lines from the journal file (tracking a byte offset, so
each poll costs one ``seek`` + the new bytes), CRC-verifies them with
the journal's own :func:`~repro.cluster.checkpoint.decode_record`, and
the HTTP layer frames each record as one SSE event::

    id: 4
    event: replicate_done
    data: {"event": "replicate_done", "time": ..., "payload": {...}}

A line without a trailing newline is a write in progress (or a torn
tail from a killed server) and is never consumed; a line that fails its
CRC is surfaced as a ``journal_corrupt`` event rather than silently
dropped, because a streaming client deserves to know its event ids have
a gap.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from ..cluster.checkpoint import decode_record

__all__ = ["JournalTail", "format_sse"]


def format_sse(record: Dict[str, object], event_id: int) -> str:
    """Frame one journal record as an SSE event block."""
    data = json.dumps(record, sort_keys=True)
    event = record.get("event", "message")
    return f"id: {event_id}\nevent: {event}\ndata: {data}\n\n"


class JournalTail:
    """Incremental reader over one journal file.

    The tail is resilient to the file not existing yet (the job may
    still be queued when a client connects to its event stream) and to
    the writer being killed mid-line; it simply yields nothing until
    complete records appear.
    """

    def __init__(self, path: str, start_id: int = 0):
        self.path = os.fspath(path)
        self._offset = 0
        self._partial = b""
        self.next_id = start_id
        self.corrupt = 0

    def poll(self) -> List[Dict[str, object]]:
        """Return all complete, CRC-valid records appended since last poll."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        self._offset += len(chunk)
        data = self._partial + chunk
        lines = data.split(b"\n")
        # The final element is either empty (chunk ended on a newline)
        # or a half-written record: keep it buffered, never decode it.
        self._partial = lines.pop()
        records: List[Dict[str, object]] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                record = decode_record(line.decode("utf-8", "replace"))
            except ValueError:
                self.corrupt += 1
                record = {"event": "journal_corrupt",
                          "detail": "skipped a record that failed decode/CRC"}
            records.append(record)
        return records

    def events(self) -> List[str]:
        """Poll and frame the new records as SSE blocks."""
        blocks = []
        for record in self.poll():
            blocks.append(format_sse(record, self.next_id))
            self.next_id += 1
        return blocks

    @staticmethod
    def is_terminal(record: Dict[str, object]) -> bool:
        """True for events after which no more journal lines will come."""
        return record.get("event") == "run_finished"
