"""Content-addressed result cache keyed by a canonical job digest.

Duplicate submissions are the common case for a popular service (the
same alignment pasted by many users, the same course dataset submitted
every semester), and a finished phylogenetic analysis is a pure
function of ``(alignment patterns, model config, seed)`` — so results
are cached under a digest of exactly that triple and duplicate jobs
return instantly without scheduling a single cluster task.

The canonicalizer is the pattern-compression step the engine already
runs (:meth:`repro.phylo.alignment.Alignment.compress`), pushed to its
identity-free fixed point.  It reads a parsed alignment or its
compressed patterns alike (both hold the same set of distinct
columns), so a submission is digested before, and on a cache hit
without, being compressed:

* taxa are sorted by name (row order in the submitted file is
  presentation, not content);
* pattern columns are re-read under the sorted taxon order and
  deduplicated + lexicographically sorted (site order and duplicated
  sites are presentation too — resubmitting an alignment with a column
  repeated collapses to the same distinct-pattern set, which is the
  demand-shedding behaviour a service wants for near-identical spam).

The equivalence class a digest names is therefore the *distinct
pattern set*: a one-character edit that introduces a pattern column not
already present (the overwhelmingly common case) changes the digest,
while an edit or duplication that merely re-weights existing patterns
lands in the same class and is served the class's cached result — the
deliberate flip side of collapsing duplicated sites.

The model/search half of the key comes from the canonical JSON of the
:class:`~repro.cluster.jobs.JobSpec` minus its execution details
(``alignment_path``, ``batch_size``, ``deadline_s``): worker count,
batching, scheduling, and deadlines are invisible in the result by the
cluster's determinism contract (a *degraded* deadline salvage is never
cached at all), so they must be invisible in the cache key too.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Union

import numpy as np

from ..cluster.checkpoint import atomic_write
from ..cluster.jobs import JobSpec
from ..phylo.alignment import Alignment, PatternAlignment, unique_columns

__all__ = [
    "canonical_alignment_key",
    "job_digest",
    "ResultCache",
]

#: Spec fields that never influence the result (scheduling knobs, the
#: submission-local file path, and the wall-clock deadline — execution
#: *policy*, not content) and are excluded from the digest.  A job
#: submitted with a deadline therefore hits the cache entry of the same
#: job without one; the reverse only holds when the deadlined run
#: finished un-degraded, because degraded results are never cached.
_EXECUTION_ONLY_FIELDS = ("alignment_path", "batch_size", "deadline_s")


def canonical_alignment_key(
        alignment: Union[Alignment, PatternAlignment]) -> bytes:
    """Canonical bytes for an alignment's identity-free content.

    Taxon order, site order, and site multiplicity are all normalized
    away; what remains is the sorted taxon list plus the sorted set of
    distinct pattern columns — the content that determines which trees
    the search space contains.  An :class:`Alignment` and its
    :meth:`~Alignment.compress` give the same bytes.
    """
    codes = (alignment.patterns if isinstance(alignment, PatternAlignment)
             else alignment.data)
    order = np.argsort(np.array(alignment.taxa))
    rows = codes[order]  # (n_taxa, n_columns), sorted taxa
    # Distinct columns, lexicographically sorted under the canonical
    # taxon order (one pass sorts and dedups).
    columns = np.ascontiguousarray(unique_columns(rows)[0].T)
    taxa = sorted(alignment.taxa)
    header = f"{len(taxa)}:{columns.shape[0]}:".encode()
    names = "\x00".join(taxa).encode()
    return header + names + b"\x00" + columns.tobytes()


def job_digest(alignment: Union[Alignment, PatternAlignment],
               spec: JobSpec) -> str:
    """The content address of one job's result (hex SHA-256), from the
    parsed alignment or its compressed patterns."""
    spec_payload = spec.to_json()
    for field in _EXECUTION_ONLY_FIELDS:
        spec_payload.pop(field, None)
    digest = hashlib.sha256()
    digest.update(canonical_alignment_key(alignment))
    digest.update(b"\x00")
    digest.update(json.dumps(spec_payload, sort_keys=True).encode())
    return digest.hexdigest()


class ResultCache:
    """One JSON result file per digest, written atomically.

    ``get``/``put`` are crash-safe by construction: a result file either
    exists in full (the :func:`~repro.cluster.checkpoint.atomic_write`
    temp+fsync+rename dance) or not at all, so a server killed mid-write
    can never serve a torn result after restart.
    """

    def __init__(self, root: str):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    def contains(self, digest: str) -> bool:
        """Existence probe that leaves the hit/miss counters untouched.

        Used by admission control to decide whether a submission will
        be served from cache (and may therefore bypass the queue-depth
        watermarks) without double-counting the later authoritative
        :meth:`get`.
        """
        return os.path.exists(self.path(digest))

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        try:
            with open(self.path(digest)) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except ValueError:
            # A corrupt cache entry is a miss, never an error: the job
            # simply recomputes and overwrites it.
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, digest: str, payload: Dict[str, object]) -> str:
        path = self.path(digest)
        atomic_write(path, json.dumps(payload, sort_keys=True) + "\n")
        return path

    def counters(self) -> Dict[str, int]:
        return {"cache_hits": self.hits, "cache_misses": self.misses}
