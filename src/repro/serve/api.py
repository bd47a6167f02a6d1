"""Request parsing / validation for the job API (transport-agnostic).

The asyncio front-end (:mod:`repro.serve.app`) does sockets and HTTP
framing; everything about *what a request means* lives here so tests
can exercise validation without a server.  All client errors surface as
:class:`ApiError` with an HTTP status and a stable machine-readable
``code`` — a service's error contract is part of its API.

A submission body looks like::

    {
      "alignment": ">t1\\nACGT...\\n>t2\\n...",   # FASTA or PHYLIP text
      "model": {
        "n_inferences": 1, "n_bootstraps": 20, "seed": 42,
        "aa": false, "model_name": null, "alpha": null,
        "categories": 4, "batch_size": 2, "deadline_s": null
      },
      "bootstop": true | {"check_every": 10, "threshold": 0.03, ...},
      "client": "alice",
      "priority": 10
    }

The ``model`` keys, types and rules are the job table's
(:data:`repro.cluster.jobs.JOB_FIELDS`, all but its search options).
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..cluster.bootstop import BootstopConfig
from ..cluster.jobs import JOB_FIELDS, JobSpec, JobSpecError

__all__ = ["ApiError", "parse_submission", "spec_from_request"]

#: The ``model`` keys a client may set; the rest of a ``JobSpec`` is
#: an execution detail the service chooses, not the client.
_MODEL_KEYS = {f.name: f for f in JOB_FIELDS if not f.search}

_MAX_ALIGNMENT_BYTES = 4 * 1024 * 1024


class ApiError(Exception):
    """A client-visible request failure (maps to an HTTP error).

    ``retry_after`` (seconds) marks transient rejections — backpressure
    429s — and becomes both a ``retry_after_s`` payload field and a
    ``Retry-After`` response header.
    """

    def __init__(self, status: int, code: str, message: str,
                 retry_after: Optional[float] = None,
                 extra: Optional[Dict[str, object]] = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after
        self.extra = extra

    def payload(self) -> Dict[str, object]:
        body: Dict[str, object] = {"error": self.code,
                                   "message": self.message}
        if self.retry_after is not None:
            body["retry_after_s"] = self.retry_after
        if self.extra:
            body.update(self.extra)
        return body


def _bad(code: str, message: str) -> ApiError:
    return ApiError(400, code, message)


def spec_from_request(model: object, bootstop: object = None) -> JobSpec:
    """Build a :class:`JobSpec` from a submission's ``model`` block."""
    if not isinstance(model, dict):
        raise _bad("model_invalid", "'model' must be an object")
    unknown = sorted(set(model) - set(_MODEL_KEYS))
    if unknown:
        raise _bad("model_unknown_field",
                   f"unknown model field(s): {', '.join(unknown)}")
    fields: Dict[str, object] = {}
    for name, value in model.items():
        if _MODEL_KEYS[name].kind is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                raise _bad("model_invalid", f"model field {name!r} is "
                           "too large for a float") from None
        fields[name] = value
    for required in ("n_inferences", "n_bootstraps", "seed"):
        if required not in fields:
            raise _bad("model_missing_field",
                       f"model field {required!r} is required")
    try:
        spec = JobSpec(**fields)
    except JobSpecError as exc:
        raise _bad("model_invalid", str(exc)) from exc
    if bootstop in (None, False):
        return spec
    if bootstop is not True and not isinstance(bootstop, dict):
        raise _bad("bootstop_invalid",
                   "'bootstop' must be true or a config object")
    try:
        config = BootstopConfig.from_json({} if bootstop is True else bootstop)
    except (TypeError, ValueError) as exc:
        raise _bad("bootstop_invalid", f"bad bootstop config: {exc}") from exc
    return replace(spec, bootstop=config)


def parse_submission(body: bytes) -> Tuple[str, JobSpec, str, int]:
    """Validate a ``POST /jobs`` body.

    Returns ``(alignment_text, spec, client, priority)``.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise _bad("body_not_json", f"request body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _bad("body_not_object", "request body must be a JSON object")
    alignment = payload.get("alignment")
    if not isinstance(alignment, str) or not alignment.strip():
        raise _bad("alignment_missing",
                   "'alignment' must be non-empty FASTA or PHYLIP text")
    if len(alignment) > _MAX_ALIGNMENT_BYTES:
        raise ApiError(413, "alignment_too_large",
                       f"alignment exceeds {_MAX_ALIGNMENT_BYTES} bytes")
    if "model" not in payload:
        raise _bad("model_missing", "'model' is required")
    spec = spec_from_request(payload["model"], payload.get("bootstop"))
    client = payload.get("client", "anonymous")
    if not isinstance(client, str) or not client or len(client) > 128:
        raise _bad("client_invalid", "'client' must be a short string")
    priority = payload.get("priority", 10)
    if isinstance(priority, bool) or not isinstance(priority, int) \
            or not 0 <= priority <= 100:
        raise _bad("priority_invalid",
                   "'priority' must be an integer in [0, 100]")
    return alignment, spec, client, priority
