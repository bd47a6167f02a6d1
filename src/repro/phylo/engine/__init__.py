"""Layered likelihood engine: structural core + pluggable kernel backends.

Public surface:

* :func:`create_engine` — the one construction path (factory honouring
  the ``REPRO_ENGINE_BACKEND`` environment override).
* :class:`LikelihoodEngine` — the engine core (CLV cache/arena,
  P-matrix LRU, traversal, Newton, SPR batching).
* :class:`KernelBackend` / :func:`register_backend` /
  :func:`available_backends` / :func:`resolve_backend` — the backend
  protocol and registry (``einsum``, ``reference``).
"""

from .protocol import (
    BACKEND_COUNTER_KEYS,
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    KernelBackend,
    RetiredBackendError,
    available_backends,
    create_engine,
    register_backend,
    resolve_backend,
)
from .core import LikelihoodEngine, NewviewCase, estimate_site_rates

__all__ = [
    "BACKEND_COUNTER_KEYS",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "LikelihoodEngine",
    "NewviewCase",
    "RetiredBackendError",
    "available_backends",
    "create_engine",
    "estimate_site_rates",
    "register_backend",
    "resolve_backend",
]
