"""Built-in kernel backends.

Importing this package registers every built-in backend with the
protocol registry (each module's ``@register_backend`` decorator runs at
import time).  Third-party backends can register themselves the same
way before calling :func:`repro.phylo.engine.create_engine`.
"""

from .einsum import EinsumBackend
from .reference import ReferenceBackend

__all__ = [
    "EinsumBackend",
    "ReferenceBackend",
]
