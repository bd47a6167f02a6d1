"""The kernel-backend protocol: the engine's offload boundary.

The paper's central restructuring is an *interface*: RAxML's three hot
functions (``newview``, ``makenewz``, ``evaluate``) were cut at a seam so
their compute bodies could run on SPE workers while the PPE kept the
tree, the caches, and the search logic.  :class:`KernelBackend` is that
seam in the reproduction: everything numerical that the likelihood
engine does per site pattern flows through one of its methods, and the
engine core (:mod:`repro.phylo.engine.core`) holds everything else —
CLV cache and arena, P-matrix LRU, dirty tracking, traversal order,
Newton iteration.  The ``makenewz`` sumtable is
implemented on the protocol itself, so every backend shares it (the
per-iteration probe on it is the engine's prepared
:class:`~repro.phylo.kernels.SumtableProbe`, which takes a stack of
tables: one for ``makenewz``, one per candidate for insertion scoring),
and so is ``newview`` —
one whole CLV per call, by default the composition of the backend's own
propagate/combine/rescale kernels.

Two backends register here:

``einsum``
    The vectorized NumPy kernels of :mod:`repro.phylo.kernels` — the
    fast default (the "SIMD-vectorized SPE kernel" analogue).
``reference``
    Deliberately slow plain-Python loops sharing **no** vectorized code
    with ``einsum`` (it even projects its own transition matrices
    element-wise, bypassing the engine's P-matrix cache).  Backing the
    differential oracle: same core, two backends, so the oracle can no
    longer drift from the engine surface.

Select a backend with :func:`create_engine`'s ``backend=`` argument, the
``REPRO_ENGINE_BACKEND`` environment variable (a registry name), or by
passing an already-built :class:`KernelBackend` instance.  A name in
:data:`RETIRED_BACKENDS` is refused with :class:`RetiredBackendError`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import kernels

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "EngineNumericalError",
    "KernelBackend",
    "RETIRED_BACKENDS",
    "RetiredBackendError",
    "available_backends",
    "create_engine",
    "register_backend",
    "resolve_backend",
]


class EngineNumericalError(RuntimeError):
    """The engine exhausted its degradation ladder (recompute, then
    per-evaluation fallback to the ``reference`` backend) and still hit
    numerical faults.  The typed end state: a caller seeing this knows
    the result was *not* silently wrong — there is no result."""


class RetiredBackendError(ValueError):
    """A backend spec names a backend that was deleted (see
    :data:`RETIRED_BACKENDS`).  The message names the retired backend
    and what to use instead."""


#: Environment variable overriding the default backend for every engine
#: built without an explicit ``backend=``: ``einsum`` or ``reference``.
BACKEND_ENV_VAR = "REPRO_ENGINE_BACKEND"

#: Backend used when neither the caller nor the environment chooses.
DEFAULT_BACKEND = "einsum"

#: Deleted backends: the pattern-striped thread dispatcher and the
#: nogil C/numba kernels behind it, neither of which beat ``einsum`` on
#: the benchmark's engine workloads.  Naming one, with or without the
#: old ``:N`` stripe suffix, raises :class:`RetiredBackendError`.
RETIRED_BACKENDS = ("compiled", "partitioned")

#: Counter keys every backend must report (satellite contract: golden
#: perf-counter checks and the benchmark harness never special-case the
#: backend).  Values are cumulative since backend construction.
BACKEND_COUNTER_KEYS = (
    "backend_kernel_calls",
    "backend_warmup_us",
)


class KernelBackend:
    """Abstract numerical backend behind :class:`LikelihoodEngine`.

    Array-shape conventions (``s`` patterns, ``c`` rate categories,
    ``n`` states):

    * CLVs and propagated terms: ``(c, s, n)``, category-major with
      the states innermost (the arena's storage).
    * Transition matrices: ``(K, n, n)``, one per rate category.  Under
      CAT the CLV keeps one category axis over ``K`` equal
      category-sorted pattern blocks, ``(1, K*m, n)``; the propagations
      and the derivative probe read it as ``(K, m, n)``, block ``b``
      against matrix ``b`` (the engine's layout, DESIGN §7).
    * Scale counts: ``(s,)`` ``int64``.

    Implementations must be *deterministic*: two calls on the same
    inputs return bit-identical results.  Scale counts must be
    bit-identical **across** backends — the underflow threshold
    comparison is exact, so loop order must not change which patterns
    rescale.
    """

    #: Registry name (overridden per subclass).
    name: str = "abstract"

    #: When True the engine core serves transition matrices from its
    #: quantized-length :class:`~repro.phylo.models.PMatrixCache`.  The
    #: reference backend sets this False and projects its own matrices
    #: element-wise, keeping the oracle independent of the vectorized
    #: eigenbasis projection *and* of the cache's quantization.
    uses_pmat_cache: bool = True

    #: Cumulative kernel invocations (``backend_kernel_calls``); the
    #: protocol-level default kernels below count themselves here.  The
    #: unit is one call through this interface that does arithmetic, so
    #: it is backend-specific per ``newview``: the default
    #: :meth:`newview` is a composition and counts its four constituent
    #: kernels (two propagations, combine, rescale — ``reference``),
    #: while ``einsum``'s fused override counts **one** per ``newview``.
    kernel_calls: int = 0

    #: Scratch for the second child term of :meth:`newview` (lazily
    #: sized to the CLV it is asked to fill).
    _newview_work: Optional[np.ndarray] = None

    # -- newview kernels -----------------------------------------------------

    def newview(
        self,
        left,
        p_left: np.ndarray,
        right,
        p_right: np.ndarray,
        out_clv: np.ndarray,
        out_scale: np.ndarray,
        code_table: Optional[np.ndarray],
        hook: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
    ) -> int:
        """One whole ``newview()`` — the paper's offloaded unit: both
        child propagations, the combine and the section 5.2.3 rescaling
        conditional — on resolved operands.  The engine makes exactly
        one such call per CLV it computes.

        ``left`` / ``right`` are each a ``(s,)`` vector of tip state
        codes or an inner ``(clv, scale_counts)`` pair, with ``p_left``
        / ``p_right`` the transition stacks of the two child branches.
        The parent CLV is written into ``out_clv`` ``(c, s, n)`` and the
        summed child scale counts (plus this operation's rescaling) into
        ``out_scale`` ``(s,)``; returns how many patterns were rescaled.

        ``hook(out_clv, out_scale)``, when given, runs between the
        combine and the rescaling check, so whatever it does to the
        fresh CLV meets this same operation's non-finite guard (the
        engine's fault-injection sites live there).

        This default composes the four kernels below — left term into
        ``out_clv``, right term into a scratch buffer, in-place combine
        — so a backend that implements those needs no ``newview`` code,
        and the result is by construction what composing them by hand
        gives.  ``einsum`` overrides it with one fused kernel.
        """
        work = self._newview_scratch(out_clv)
        left_scale = self._child_term(left, p_left, code_table, out_clv)
        right_scale = self._child_term(right, p_right, code_table, work)
        self.newview_combine(out_clv, work, out=out_clv)
        kernels.add_scale_counts(left_scale, right_scale, out_scale)
        if hook is not None:
            hook(out_clv, out_scale)
        return self.scale_clv(out_clv, out_scale)

    def _newview_scratch(self, like: np.ndarray) -> np.ndarray:
        work = self._newview_work
        if work is None or work.shape != like.shape:
            work = self._newview_work = np.empty_like(like)
        return work

    def _child_term(self, side, p, code_table, out):
        """Propagate one :meth:`newview` child into ``out``; returns its
        scale counts (``None`` for a tip side)."""
        if type(side) is tuple:
            clv, scale_counts = side
            self.inner_terms(p, clv, out=out)
            return scale_counts
        self.tip_terms(p, side, code_table, out=out)
        return None

    def tip_terms(
        self,
        p: np.ndarray,
        masks: np.ndarray,
        code_table: Optional[np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Propagate tip states across a branch: ``sum_j P[c,i,j]
        tip[s,j]`` (under CAT ``out`` is required: it carries the
        layout)."""
        raise NotImplementedError

    def inner_terms(
        self,
        p: np.ndarray,
        clv: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Propagate an inner CLV across a branch: ``sum_j P[c,i,j]
        clv[c,s,j]``."""
        raise NotImplementedError

    def newview_combine(
        self,
        left_term: np.ndarray,
        right_term: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Combine two propagated child terms into the parent CLV."""
        raise NotImplementedError

    def scale_clv(self, clv: np.ndarray, scale_counts: np.ndarray) -> int:
        """Rescale underflowing patterns in place; returns how many scaled."""
        raise NotImplementedError

    # -- evaluate kernels ----------------------------------------------------

    def evaluate_loglik(
        self,
        pi: np.ndarray,
        cat_weights: np.ndarray,
        pattern_weights: np.ndarray,
        u_term: np.ndarray,
        v_term: np.ndarray,
        scale_counts: np.ndarray,
    ) -> float:
        """Weighted log likelihood at a branch.  ``v_term`` (the side
        propagated across the branch) is the caller's scratch: a backend
        may overwrite it."""
        raise NotImplementedError

    # -- makenewz kernels ----------------------------------------------------
    #
    # The Newton loop runs on the sumtable — protocol-level, one small
    # dense GEMM per branch that every backend inherits unmodified — and
    # on the engine's prepared probe over it, which counts one
    # ``kernel_calls`` per evaluation.  The ``(P, dP, d2P)`` kernel after
    # it serves the one-shot derivative probe and the whole Newton loop
    # of a backend that owns its projection (``uses_pmat_cache = False``,
    # the oracle).

    def branch_sumtable(
        self,
        right: np.ndarray,
        left: np.ndarray,
        pi: np.ndarray,
        n_cats: int,
        u_side: np.ndarray,
        v_side: np.ndarray,
        code_table: Optional[np.ndarray],
        out: Optional[np.ndarray] = None,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Project both sides of a branch into the eigenbasis, once per
        ``makenewz``: the ``(c*k, s)`` table of
        :func:`repro.phylo.kernels.branch_sumtable`.  A side is an inner
        CLV ``(c, s, n)`` or a ``(s,)`` vector of tip state codes.  Not
        counted in ``kernel_calls``: the accounting unit of ``makenewz``
        is the derivative evaluation."""
        return kernels.branch_sumtable(
            right, left, pi, n_cats, u_side, v_side, code_table,
            out=out, work=work,
        )

    def branch_derivatives(
        self,
        model_terms: Tuple[np.ndarray, np.ndarray, np.ndarray],
        pi: np.ndarray,
        cat_weights: np.ndarray,
        pattern_weights: np.ndarray,
        u_clv: np.ndarray,
        v_clv: np.ndarray,
        scale_counts: np.ndarray,
    ) -> Tuple[float, float, float]:
        """``(lnL, d lnL/dt, d2 lnL/dt2)`` at one branch length from an
        explicit ``(P, dP/dt, d2P/dt2)`` stack."""
        raise NotImplementedError

    # -- transition-matrix seam (only when uses_pmat_cache is False) ---------

    def transition_matrices(self, model, rates: np.ndarray,
                            branch_length: float) -> np.ndarray:
        """Backend-owned ``P(r t)`` projection (oracle independence)."""
        raise NotImplementedError

    def transition_derivatives(
        self, model, rates: np.ndarray, branch_length: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backend-owned ``(P, dP/dt, d2P/dt2)`` projection."""
        raise NotImplementedError

    # -- instrumentation -----------------------------------------------------

    def perf_counters(self) -> Dict[str, int]:
        """Backend counters.  Every backend reports the exact key set
        :data:`BACKEND_COUNTER_KEYS` so downstream perf-counter
        consumers (golden corpus, benchmark gates, traces) never
        special-case the backend."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# -- registry -----------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[], KernelBackend]] = {}


def register_backend(name: str):
    """Class/factory decorator adding a backend to the registry."""

    def decorate(factory: Callable[[], KernelBackend]):
        _REGISTRY[name] = factory
        return factory

    return decorate


def _ensure_registered() -> None:
    # The built-in backends register on import; deferred so that
    # protocol.py itself stays import-cycle free.
    if "einsum" not in _REGISTRY:
        from . import backends  # noqa: F401  (import side effect)


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    _ensure_registered()
    return sorted(_REGISTRY)


def resolve_backend(
    spec: Union[None, str, KernelBackend] = None
) -> KernelBackend:
    """Turn a backend spec into a live :class:`KernelBackend`.

    ``spec`` may be an instance (returned as-is), a registry name, or
    ``None`` — which consults :data:`BACKEND_ENV_VAR` and finally falls
    back to :data:`DEFAULT_BACKEND`.  A name in :data:`RETIRED_BACKENDS`
    (bare or with its old ``:N`` suffix) raises
    :class:`RetiredBackendError`; any other unknown name ``ValueError``.
    """
    if isinstance(spec, KernelBackend):
        return spec
    _ensure_registered()
    source = "backend"
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
        source = BACKEND_ENV_VAR
    name = spec.partition(":")[0]
    if name in RETIRED_BACKENDS:
        raise RetiredBackendError(
            f"{source}={spec!r}: the {name!r} engine backend was removed; "
            f"use one of: {', '.join(available_backends())}"
        )
    factory = _REGISTRY.get(spec)
    if factory is None:
        raise ValueError(
            f"unknown engine backend {spec!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return factory()


def create_engine(
    patterns,
    model,
    rate_model=None,
    tree=None,
    tracer=None,
    backend: Union[None, str, KernelBackend] = None,
):
    """Build a :class:`~repro.phylo.engine.core.LikelihoodEngine` on the
    chosen kernel backend.

    This is the one construction path every caller (search, inference,
    cluster workers, verification, CLI) goes through; ``backend=None``
    honours the ``REPRO_ENGINE_BACKEND`` environment override, so a
    whole test suite or cluster run can be re-pointed at another
    backend without touching call sites.
    """
    from .core import LikelihoodEngine

    return LikelihoodEngine(
        patterns, model, rate_model, tree, tracer=tracer, backend=backend
    )
