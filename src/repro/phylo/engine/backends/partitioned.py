"""The pattern-striped thread-parallel backend.

This is the reproduction of the paper's PPE→SPE work partitioning
(section 5.2): the alignment's site patterns are cut into contiguous
stripes, every kernel call fans the stripes out to a thread pool, and
partial results are reduced in a **fixed order** — the same fixed-order
reduction the PPE performs over SPE partial results.

The dispatcher is split from the arithmetic: every stripe executes
through a pluggable *inner* striped-kernels implementation
(:class:`StripedKernels`).  The default inner is
:class:`EinsumStripedKernels` — the NumPy kernels of
:mod:`repro.phylo.kernels` on array views — and the ``compiled``
backend substitutes nogil machine-code kernels while inheriting every
dispatch/reduction/chaos behaviour in this module.

Determinism discipline:

* **Elementwise kernels** (tip/inner propagation, combine, the rescale
  check) stripe freely by ``n_stripes``: each pattern's result is
  independent of the striping, so the outputs are bit-identical for
  every stripe/thread count (and — with the einsum inner — to the flat
  ``einsum`` backend).
* **Reduction kernels** (evaluate, branch derivatives) accumulate into
  fixed ``REPRO_ENGINE_BLOCK``-pattern blocks (default 512) whose
  within-block summation order never depends on the stripe count;
  thread stripes are whole-block runs, and the per-block partials are
  combined by an ordered pairwise sum.  The reduction tree is therefore
  a function of the pattern count and block size **only**: ``:1``,
  ``:2`` and ``:4`` report bit-identical log likelihoods, and repeated
  runs are bit-identical whatever the thread scheduling.
* **Scale counts are bit-identical to every other backend**: the
  underflow test is an exact per-pattern comparison; striping only
  changes which loop visits a pattern, never the comparison itself.

Thread count only sets pool width (speed); one thread dispatches every
stripe inline with no pool handoff.  Both stripe and thread counts
default to ``REPRO_ENGINE_THREADS`` or ``min(4, os.cpu_count())``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ....chaos import injector as _chaos
from ....chaos.plan import BACKEND_STRIPE_RAISE
from ... import kernels
from ..protocol import KernelBackend, KernelExecutionError, register_backend

__all__ = [
    "BLOCK_ENV_VAR",
    "EinsumStripedKernels",
    "PartitionedBackend",
    "StripedKernels",
    "default_block_size",
    "default_thread_count",
]

#: Environment override for the default worker/stripe count.
THREADS_ENV_VAR = "REPRO_ENGINE_THREADS"

#: Environment override for the reduction block size (bits-affecting:
#: the block grouping *is* the summation order of the log-likelihood
#: reduction, so runs comparing bits must share it).
BLOCK_ENV_VAR = "REPRO_ENGINE_BLOCK"

#: Fixed reduction block: 512 patterns per partial sum.  Large enough
#: that the einsum inner kernels amortize their per-block dispatch,
#: small enough that multi-thousand-pattern alignments still spread
#: reduction blocks across stripes.
DEFAULT_REDUCTION_BLOCK = 512


def default_thread_count() -> int:
    """Pool width when the caller does not choose: ``REPRO_ENGINE_THREADS``
    if set, else ``min(4, os.cpu_count())``."""
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if env:
        return max(1, int(env))
    return max(1, min(4, os.cpu_count() or 1))


def default_block_size() -> int:
    """Reduction block size: ``REPRO_ENGINE_BLOCK`` if set, else 512."""
    env = os.environ.get(BLOCK_ENV_VAR, "").strip()
    if env:
        return max(1, int(env))
    return DEFAULT_REDUCTION_BLOCK


def _pairwise_sum(parts: List):
    """Ordered pairwise reduction: ``((p0+p1)+(p2+p3))+...``.

    The association depends only on ``len(parts)``, so for a fixed
    block count the result is bit-identical however the parts were
    computed (inline, 2 threads, 4 threads).  Works on floats and on
    numpy arrays (the derivative triple)."""
    while len(parts) > 1:
        parts = [
            parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
    return parts[0]


def _partition(n: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` runs splitting ``n`` items into at
    most ``parts`` pieces; the first ``n % parts`` runs carry one extra
    item and empty runs are dropped."""
    base, extra = divmod(n, parts)
    bounds = []
    start = 0
    for k in range(parts):
        stop = start + base + (1 if k < extra else 0)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    return bounds


class StripedKernels:
    """The inner-kernel seam of the partitioned dispatcher.

    Implementations are *call builders*: each method validates and
    converts its arguments once per kernel call and returns a closure
    the dispatcher invokes per stripe (elementwise kernels, pattern
    ranges) or per block run (reduction kernels, block-index ranges) —
    possibly concurrently from pool threads, so closures must be
    thread-safe for disjoint ranges.

    Reduction closures fill ``partials`` — per-block partial sums over
    fixed ``block``-pattern blocks — and the dispatcher owns the
    ordered pairwise combination, so every inner implementation
    automatically inherits the thread-count-invariance guarantee.
    """

    #: Implementation name, surfaced in ``repr`` and diagnostics.
    flavor: str = "abstract"

    def warmup_us(self) -> int:
        """One-time build/JIT cost in microseconds (0 for pure NumPy)."""
        return 0

    def tip_terms(self, p, masks, code_table, out, per_site
                  ) -> Callable[[int, int], None]:
        raise NotImplementedError

    def inner_terms(self, p, clv, out, per_site
                    ) -> Callable[[int, int], None]:
        raise NotImplementedError

    def newview_combine(self, left, right, out
                        ) -> Callable[[int, int], None]:
        raise NotImplementedError

    def scale_clv(self, clv, scale_counts) -> Callable[[int, int], int]:
        raise NotImplementedError

    def evaluate(self, pi, cat_weights, pattern_weights, u, v,
                 scale_counts, block, partials
                 ) -> Callable[[int, int], None]:
        raise NotImplementedError

    def derivatives(self, model_terms, pi, cat_weights, pattern_weights,
                    u, v, scale_counts, block, partials, per_site
                    ) -> Callable[[int, int], None]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} flavor={self.flavor!r}>"


class EinsumStripedKernels(StripedKernels):
    """The default inner: :mod:`repro.phylo.kernels` on array views.

    NumPy releases the GIL inside the einsum contractions, so stripes
    overlap partially on multi-core hosts; the python-level dispatch
    around each contraction still serialises, which is exactly the
    bottleneck the compiled inner kernels remove.
    """

    flavor = "einsum"

    def tip_terms(self, p, masks, code_table, out, per_site):
        if per_site:
            def task(start, stop):
                kernels.tip_terms_persite(
                    p[start:stop], masks[start:stop], code_table,
                    out=out[start:stop],
                )
        else:
            def task(start, stop):
                kernels.tip_terms(
                    p, masks[start:stop], code_table, out=out[start:stop]
                )
        return task

    def inner_terms(self, p, clv, out, per_site):
        if per_site:
            def task(start, stop):
                kernels.inner_terms_persite(
                    p[start:stop], clv[start:stop], out=out[start:stop]
                )
        else:
            def task(start, stop):
                kernels.inner_terms(
                    p, clv[start:stop], out=out[start:stop]
                )
        return task

    def newview_combine(self, left, right, out):
        def task(start, stop):
            kernels.newview_combine(
                left[start:stop], right[start:stop], out=out[start:stop]
            )
        return task

    def scale_clv(self, clv, scale_counts):
        def task(start, stop):
            return kernels.scale_clv(
                clv[start:stop], scale_counts[start:stop]
            )
        return task

    def evaluate(self, pi, cat_weights, pattern_weights, u, v,
                 scale_counts, block, partials):
        total = scale_counts.shape[0]

        def task(b0, b1):
            for b in range(b0, b1):
                lo = b * block
                hi = min(lo + block, total)
                partials[b] = kernels.evaluate_loglik(
                    pi, cat_weights, pattern_weights[lo:hi],
                    u[lo:hi], v[lo:hi], scale_counts[lo:hi],
                )
        return task

    def derivatives(self, model_terms, pi, cat_weights, pattern_weights,
                    u, v, scale_counts, block, partials, per_site):
        p, dp, d2p = model_terms
        total = scale_counts.shape[0]

        def task(b0, b1):
            for b in range(b0, b1):
                lo = b * block
                hi = min(lo + block, total)
                if per_site:
                    partials[b] = kernels.branch_derivatives_persite(
                        (p[lo:hi], dp[lo:hi], d2p[lo:hi]),
                        pi, pattern_weights[lo:hi], u[lo:hi], v[lo:hi],
                        scale_counts[lo:hi],
                    )
                else:
                    partials[b] = kernels.branch_derivatives(
                        (p, dp, d2p), pi, cat_weights,
                        pattern_weights[lo:hi], u[lo:hi], v[lo:hi],
                        scale_counts[lo:hi],
                    )
        return task


def _resolve_inner(
    inner: Union[None, str, StripedKernels]
) -> StripedKernels:
    """Turn the ``inner=`` option (``name:N:inner`` third token or a
    live object) into a striped-kernels implementation."""
    if inner is None or inner == "einsum":
        return EinsumStripedKernels()
    if inner == "compiled":
        from .compiled import load_compiled_kernels

        return load_compiled_kernels()
    if isinstance(inner, str):
        raise ValueError(
            f"unknown inner kernels {inner!r}; expected einsum or compiled"
        )
    return inner


@register_backend("partitioned")
class PartitionedBackend(KernelBackend):
    """Contiguous pattern stripes on a ``ThreadPoolExecutor``, with a
    pluggable inner striped-kernels implementation."""

    name = "partitioned"
    uses_pmat_cache = True

    def __init__(self, n_stripes: Optional[int] = None,
                 n_threads: Optional[int] = None,
                 inner: Union[None, str, StripedKernels] = None,
                 block: Optional[int] = None) -> None:
        if n_threads is None:
            n_threads = n_stripes if n_stripes is not None \
                else default_thread_count()
        if n_stripes is None:
            n_stripes = n_threads
        if n_stripes < 1 or n_threads < 1:
            raise ValueError("n_stripes and n_threads must be >= 1")
        self.n_stripes = int(n_stripes)
        self.n_threads = int(n_threads)
        self.block = int(block) if block is not None else default_block_size()
        if self.block < 1:
            raise ValueError("reduction block size must be >= 1")
        self._inner = _resolve_inner(inner)
        self.kernel_calls = 0
        self.stripe_tasks = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._bounds: Dict[int, List[Tuple[int, int]]] = {}
        self._block_bounds: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def inner_kernels(self) -> StripedKernels:
        """The live inner striped-kernels implementation (read-only)."""
        return self._inner

    # -- striping machinery --------------------------------------------------

    def _stripes(self, n_patterns: int) -> List[Tuple[int, int]]:
        """Fixed contiguous ``[start, stop)`` stripe bounds for a pattern
        count; the first ``n_patterns % n_stripes`` stripes carry one
        extra pattern.  Empty stripes are dropped so tiny instances do
        not spawn no-op tasks.  Elementwise kernels only — reductions
        stripe over whole blocks (:meth:`_block_spans`)."""
        bounds = self._bounds.get(n_patterns)
        if bounds is None:
            bounds = _partition(n_patterns, self.n_stripes)
            self._bounds[n_patterns] = bounds
        return bounds

    def _block_spans(self, n_patterns: int) -> List[Tuple[int, int]]:
        """Contiguous runs of *reduction-block indices* for a pattern
        count: ``ceil(n_patterns / block)`` blocks split across at most
        ``n_stripes`` tasks.  Thread stripes are whole-block runs, so
        which thread computes a block never changes the block's bits."""
        spans = self._block_bounds.get(n_patterns)
        if spans is None:
            n_blocks = -(-n_patterns // self.block)
            spans = _partition(n_blocks, self.n_stripes)
            self._block_bounds[n_patterns] = spans
        return spans

    def _n_blocks(self, n_patterns: int) -> int:
        return -(-n_patterns // self.block)

    def _run(self, task, spans):
        """Run ``task(start, stop)`` over every span, returning results
        in span order.  One thread (or one span) runs inline with no
        pool handoff; otherwise the lazily-built pool executes the
        spans and ``Executor.map`` preserves submission order.

        Any span failure — organic or a ``backend.stripe_raise`` chaos
        injection — surfaces as the typed :class:`KernelExecutionError`
        so the engine's degradation ladder can treat it like a detected
        numerical fault.
        """
        self.stripe_tasks += len(spans)
        # Decide the injected stripe failure once per kernel call (one
        # visit regardless of span count); the *middle* span raises,
        # modelling a worker dying mid-reduction with earlier partials
        # already produced.
        raise_at = -1
        if _chaos._ACTIVE is not None and _chaos.fire(BACKEND_STRIPE_RAISE):
            raise_at = len(spans) // 2

        def stripe(index, start, stop):
            if index == raise_at:
                raise _chaos.InjectedFault(
                    f"injected stripe failure at stripe {index} "
                    f"[{start}:{stop}]"
                )
            return task(start, stop)

        try:
            if self.n_threads == 1 or len(spans) == 1:
                return [
                    stripe(i, start, stop)
                    for i, (start, stop) in enumerate(spans)
                ]
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_threads,
                    thread_name_prefix="repro-stripe",
                )
            return list(
                self._pool.map(
                    lambda ib: stripe(ib[0], *ib[1]), enumerate(spans)
                )
            )
        except (FloatingPointError, KernelExecutionError):
            # scale_clv's non-finite guard must keep its type: the
            # engine distinguishes nothing, but tests and reports do.
            raise
        except Exception as exc:
            raise KernelExecutionError(
                f"stripe task failed on backend {self.name!r}: {exc}"
            ) from exc

    # -- newview -------------------------------------------------------------

    def tip_terms(self, p, masks, code_table, out=None, per_site=False):
        self.kernel_calls += 1
        n_patterns = len(masks)
        if out is None:
            n_cats = 1 if per_site else p.shape[0]
            n = p.shape[-1]
            out = np.empty((n_patterns, n_cats, n), dtype=np.float64)
        task = self._inner.tip_terms(p, masks, code_table, out, per_site)
        self._run(task, self._stripes(n_patterns))
        return out

    def inner_terms(self, p, clv, out=None, per_site=False):
        self.kernel_calls += 1
        if out is None:
            out = np.empty_like(clv)
        task = self._inner.inner_terms(p, clv, out, per_site)
        self._run(task, self._stripes(clv.shape[0]))
        return out

    def newview_combine(self, left_term, right_term, out=None):
        self.kernel_calls += 1
        if out is None:
            out = np.empty_like(left_term)
        task = self._inner.newview_combine(left_term, right_term, out)
        self._run(task, self._stripes(left_term.shape[0]))
        return out

    def scale_clv(self, clv, scale_counts) -> int:
        self.kernel_calls += 1
        task = self._inner.scale_clv(clv, scale_counts)
        # Per-pattern exact comparisons: stripe-local counts sum to the
        # same total (and the same per-pattern counters) as one flat call.
        return sum(self._run(task, self._stripes(clv.shape[0])))

    # -- evaluate ------------------------------------------------------------

    def evaluate_loglik(self, pi, cat_weights, pattern_weights, u_term,
                        v_term, scale_counts) -> float:
        self.kernel_calls += 1
        n_patterns = u_term.shape[0]
        partials = np.empty(self._n_blocks(n_patterns), dtype=np.float64)
        task = self._inner.evaluate(
            pi, cat_weights, pattern_weights, u_term, v_term,
            scale_counts, self.block, partials,
        )
        self._run(task, self._block_spans(n_patterns))
        return float(_pairwise_sum(list(partials)))

    # -- makenewz ------------------------------------------------------------

    def branch_derivatives(self, model_terms, pi, cat_weights,
                           pattern_weights, u_clv, v_clv, scale_counts,
                           per_site=False) -> Tuple[float, float, float]:
        self.kernel_calls += 1
        n_patterns = u_clv.shape[0]
        n_blocks = self._n_blocks(n_patterns)
        partials = np.empty((n_blocks, 3), dtype=np.float64)
        task = self._inner.derivatives(
            model_terms, pi, cat_weights, pattern_weights, u_clv, v_clv,
            scale_counts, self.block, partials, per_site,
        )
        self._run(task, self._block_spans(n_patterns))
        total = _pairwise_sum([partials[b] for b in range(n_blocks)])
        return float(total[0]), float(total[1]), float(total[2])

    # -- instrumentation -----------------------------------------------------

    def perf_counters(self) -> Dict[str, int]:
        return {
            "backend_kernel_calls": self.kernel_calls,
            "backend_stripe_tasks": self.stripe_tasks,
            "backend_stripes": self.n_stripes,
            "backend_threads": self.n_threads,
            "backend_warmup_us": self._inner.warmup_us(),
        }

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} name={self.name!r} "
            f"stripes={self.n_stripes} threads={self.n_threads} "
            f"inner={self._inner.flavor!r}>"
        )
