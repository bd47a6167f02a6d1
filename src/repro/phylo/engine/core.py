"""The likelihood engine core: ``newview()``, ``evaluate()``, ``makenewz()``.

This module reimplements the three functions that consume 98.77 % of
RAxML's runtime (76.8 % / 19.16 % / 2.37 % per the paper's gprof profile):

* :meth:`LikelihoodEngine.newview` computes the conditional likelihood
  vector (CLV) at an inner node by Felsenstein's pruning algorithm, with
  the four specialized cases the paper describes (both children tips, one
  child a tip, none) and numerical rescaling of underflowing patterns.
* :meth:`LikelihoodEngine.evaluate` computes the log likelihood of the
  tree at a branch by summing over the two CLVs facing it.  For a
  time-reversible model the value is identical at every branch — a
  property the test suite checks.
* :meth:`LikelihoodEngine.makenewz` optimizes one branch length by
  Newton-Raphson with analytic first and second derivatives, projecting
  the two CLVs facing the branch into the eigenbasis once (the
  "sumtable") so each iteration is ``O(patterns * cats * states)``.
  Its Newton loop, :func:`masked_newton`, is the only one: ``makenewz``
  runs it on one branch, insertion scoring
  (:mod:`~repro.phylo.engine.insertion`) on a stack of candidates.

The core holds everything *structural* — CLV cache and arena, quantized
P-matrix LRU, dirty tracking through the tree's observer protocol,
post-order traversal, Newton iteration — and routes
every numerical kernel through a pluggable
:class:`~repro.phylo.engine.protocol.KernelBackend` (the reproduction of
the paper's PPE/SPE offload seam).  Swapping the backend swaps the
arithmetic, never the search behaviour.

CLVs are cached per *direction* ``(node, entry_branch)`` and invalidated
through the tree's branch-dirtying observer protocol, reproducing
RAxML's lazy recomputation (and hence realistic ``newview()`` call
counts in the workload traces fed to the Cell simulator).

Both rate-heterogeneity treatments are supported: Gamma (every site
integrates over all categories; shared per-category transition matrices)
and CAT (one category per site).  A CAT engine sorts its patterns by
category once (:func:`_category_layout`): its CLVs keep one category axis
over ``K`` equal pattern blocks, and the kernels propagate block ``b``
with category ``b``'s matrix — the same ``(K, n, n)`` stacks Gamma uses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ...chaos import injector as _chaos
from ...chaos import plan as _chaos_plan
from .. import kernels
from ..alignment import PatternAlignment, check_tip_codes
from ..arena import ClvArena, ClvSlot
from ..models import PMatrixCache, SubstitutionModel
from ..rates import RateModel, UniformRate
from ..tree import Branch, Node, Tree, MAX_BRANCH_LENGTH, MIN_BRANCH_LENGTH
from .protocol import EngineNumericalError, KernelBackend, resolve_backend

__all__ = [
    "LikelihoodEngine",
    "NewviewCase",
    "estimate_site_rates",
    "masked_newton",
]


#: Two Newton iterates whose ``lnL`` differ by at most this many ulps
#: are a tie (summation round-off over the patterns is a few ulps).
LNL_TIE_ULPS = 8
_LNL_TIE = LNL_TIE_ULPS * np.finfo(float).eps
#: Newton's stop rule: a derivative or a step below it ends the loop
NEWTON_TOLERANCE = 1e-8


def masked_newton(
    derivatives: Callable[[List[float], List[int]],
                          List[Tuple[float, float, float]]],
    lnl_at: Callable[[List[float], List[int]], List[float]],
    start: Sequence[float],
    max_iterations: int = 32,
    tolerance: float = NEWTON_TOLERANCE,
    arrange: Optional[Callable[[List[int]], List[int]]] = None,
) -> Tuple[List[float], List[float], List[int]]:
    """Safeguarded Newton-Raphson on ``K`` independent branch lengths at
    once (``makenewz`` is ``K = 1``).

    ``derivatives(t, rows)`` returns one ``(lnL, d lnL/dt, d2 lnL/dt2)``
    per branch of ``rows`` (a list of indices) at the lengths ``t`` (a
    list); ``lnl_at(t, rows)`` their ``lnL`` alone, for the final
    re-score; ``arrange(rows)`` may reorder the rows before each call
    (into the order the probe's stack holds them in), and no branch's
    arithmetic depends on it.  One probe call per iteration serves every
    branch still active.  Each branch steps where its likelihood is
    locally concave and doubles / halves uphill otherwise, every iterate
    clamped to ``[MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH]``, and leaves the
    active set on a derivative or a step below *tolerance*.  Returns
    ``(best_t, best_lnl, iterations)`` lists — each branch's best point
    *scored*, including its final iterate — so a step that loses
    likelihood is never kept.

    Two rules keep the returned length independent of which kernel's
    round-off scored the iterates.  A later iterate that ties the best
    within :data:`LNL_TIE_ULPS` ulps wins: converged iterates agree in
    ``lnL`` to the last bit while still one Newton step (~1e-7) apart,
    and the later one is the converged one.
    And a result within *tolerance* of its start returns the start
    itself: a branch already converged to the step tolerance is not
    moved (a sub-tolerance move gains nothing measurable but dirties
    every CLV behind the branch).
    """
    t = list(map(float, start))
    count = len(t)
    start, best_t = t[:], t[:]
    best_lnl = [-np.inf] * count
    iterations = [max_iterations] * count
    # Each final point is scored too (a loop may end right after a
    # step), unless it is the point just scored: same t, same bits.
    rescore: List[int] = []
    rows, lengths = list(range(count)), t[:]  # the active rows, their t
    for iteration in range(1, max_iterations + 1):
        if arrange is not None:
            rows = arrange(rows)
            lengths = [t[r] for r in rows]
        active, ahead = [], []
        for r, at, (lnl, d1, d2) in zip(rows, lengths,
                                        derivatives(lengths, rows)):
            if lnl >= best_lnl[r] - _LNL_TIE * abs(lnl):  # the tie rule
                best_lnl[r], best_t[r] = lnl, at
            step = at
            if abs(d1) >= tolerance:
                if d2 < 0.0:
                    step = at - d1 / d2
                else:  # not locally concave: move uphill
                    step = at * 2.0 if d1 > 0 else at * 0.5
                step = min(max(step, MIN_BRANCH_LENGTH), MAX_BRANCH_LENGTH)
            t[r] = step
            if abs(step - at) >= tolerance:
                active.append(r)
                ahead.append(step)
            else:
                iterations[r] = iteration
                if step != at:
                    rescore.append(r)
        if not active:
            break
        rows, lengths = active, ahead
    else:
        rescore += rows
    if rescore:
        if arrange is not None:
            rescore = arrange(rescore)
        for r, lnl in zip(rescore, lnl_at([t[r] for r in rescore],
                                          rescore)):
            if lnl >= best_lnl[r] - _LNL_TIE * abs(lnl):
                best_lnl[r], best_t[r] = lnl, t[r]
    for r in range(count):
        if abs(best_t[r] - start[r]) < tolerance:
            best_t[r] = start[r]
    return best_t, best_lnl, iterations


class NewviewCase:
    """The four execution paths of ``newview()`` (paper section 5.2.3)."""

    TIP_TIP = "tip_tip"
    TIP_INNER = "tip_inner"
    INNER_TIP = "inner_tip"
    INNER_INNER = "inner_inner"


#: Retired CLVs kept for content-keyed reuse.  Fixed: hits over three
#: ``search_sc`` searches at 4/8/16/32/64 entries were
#: 505/717/901/950/965.
_PARKED_CLVS = 16


@dataclass
class _CachedCLV:
    clv: np.ndarray  # (n_cats, n_patterns, n) — a view into an arena slot
    scale_counts: np.ndarray  # (n_patterns,) int64 — same slot
    deps: FrozenSet[int]  # branch ids this CLV depends on
    slot: ClvSlot  # arena slot backing the views
    #: what the value is a function of: the two children as ``(child
    #: ident, branch length)``, sorted (a tip's ident is ``~`` its
    #: alignment row)
    content: Tuple[Tuple[int, float], Tuple[int, float]]
    ident: int  # serial of the ``newview`` that computed it


class LikelihoodEngine:
    """Maximum-likelihood scoring of a tree on a pattern alignment.

    Parameters
    ----------
    patterns:
        The compressed alignment.
    model:
        Substitution model.
    rate_model:
        Among-site rate model (uniform, Gamma, or CAT).  For CAT the
        ``site_categories`` assignment must cover every pattern.
    tree:
        The tree to score; the engine registers itself as an observer and
        must remain attached while the tree is edited.
    tracer:
        Optional object receiving ``record_newview`` /
        ``record_evaluate`` / ``record_makenewz`` calls; used by
        :mod:`repro.port.trace` to build platform-simulation workloads.
    backend:
        Kernel backend: a registry name (``"einsum"``, ``"reference"``),
        a live :class:`KernelBackend`, or ``None`` to honour the
        ``REPRO_ENGINE_BACKEND`` environment override (default
        ``einsum``).  Prefer :func:`repro.phylo.engine.create_engine`
        for construction.
    degrade_after:
        Degradation ladder budget: a detected numerical fault (a
        ``FloatingPointError`` from the kernels' non-finite guards)
        first triggers cache invalidation and a recompute —
        bit-identical when the fault was transient.  After
        ``degrade_after`` recomputes inside one guarded operation still
        fault, the engine walks the ladder ``einsum → reference`` (a
        third-party backend falls to ``einsum`` first; ``reference`` has
        nowhere to go), one rung per further fault (sticky, counted by
        the ``degraded`` perf counter and recorded in
        ``degradation_path``) instead of crashing the search; when the
        ladder is exhausted and the fault persists, the typed
        :class:`EngineNumericalError` is raised.
    """

    def __init__(
        self,
        patterns: PatternAlignment,
        model: SubstitutionModel,
        rate_model: Optional[RateModel] = None,
        tree: Optional[Tree] = None,
        tracer=None,
        backend: Union[None, str, KernelBackend] = None,
        degrade_after: int = 3,
    ):
        if tree is None:
            raise ValueError("a tree is required")
        _check_state_count(patterns, model)
        self.patterns = patterns
        self.model = model
        self.rate_model = rate_model or UniformRate()
        self.tree = tree
        self.tracer = tracer
        #: the numerical kernel backend behind every hot-path call
        self._backend = resolve_backend(backend)
        #: state-space size (4 for DNA, 20 for amino acids)
        self._n_states = model.n_states
        #: per-code tip indicator rows of the patterns' alphabet
        self._tip_table = patterns.alphabet.code_table
        check_tip_codes(patterns.patterns, self._tip_table)
        self._use_rate_model(self.rate_model)

        self._tip_index: Dict[int, int] = {}
        for node in tree.tips:
            self._tip_index[node.index] = patterns.taxon_index(node.name)

        self._clv_cache: Dict[Tuple[int, int], _CachedCLV] = {}
        #: CLVs of retired directions by content key, oldest first
        self._parked: Dict[tuple, _CachedCLV] = {}
        self._clv_serial = 0
        #: quantized-branch-length P-matrix cache.  Always constructed —
        #: even for backends that project their own matrices — so
        #: ``perf_counters()`` reports the identical key set for every
        #: backend (a backend with ``uses_pmat_cache=False`` simply
        #: leaves the hit/miss counters at zero).
        self._pmats = PMatrixCache(model, self._rates)
        #: the prepared makenewz probe and its one-row work (same
        #: lifetime as the P-matrices)
        self._prepare_probe()
        self._arena: Optional[ClvArena] = None
        self._ensure_buffers()
        tree.add_observer(self._on_branch_dirty)

        #: running counters (cheap, always on) — used for sanity checks
        self.newview_calls = 0
        self.evaluate_calls = 0
        self.makenewz_calls = 0
        #: graceful-degradation state (see the class docstring)
        self._degrade_after = degrade_after
        self._in_guard = False
        self._original_backend: Optional[KernelBackend] = None
        self._fallback_chain = self._fallback_chain_for(self._backend.name)
        #: backend names the ladder has fallen through, in order
        self.degradation_path: List[str] = []
        self.numerical_faults = 0
        self.fault_recoveries = 0
        self.degraded_evaluations = 0
        #: optional cooperative cancellation token (any object with a
        #: ``check()`` method); polled at the top of every guarded
        #: kernel dispatch so a deadline trips between operations, not
        #: inside one.
        self.cancel = None

        if tracer is not None and hasattr(tracer, "add_counter_source"):
            tracer.add_counter_source(self.perf_counters)

    # -- lifecycle ----------------------------------------------------------

    @property
    def backend(self) -> KernelBackend:
        """The live kernel backend (read-only)."""
        return self._backend

    def detach(self) -> None:
        """Unregister from the tree and drop all caches."""
        self.tree.remove_observer(self._on_branch_dirty)
        self._drop_all_clvs()
        self._pmats.invalidate()
        self._insertion_stacks = None

    # -- graceful degradation -------------------------------------------------

    @property
    def is_degraded(self) -> bool:
        """True once the engine has fallen down the backend ladder."""
        return self._original_backend is not None

    @staticmethod
    def _fallback_chain_for(name: str) -> List[str]:
        """The remaining ladder rungs below a backend: ``einsum`` falls to
        the independent ``reference`` implementation, and a third-party
        backend to ``einsum`` first."""
        if name == "reference":
            return []
        if name == "einsum":
            return ["reference"]
        return ["einsum", "reference"]

    def _degrade(self) -> bool:
        """Step one rung down the fallback chain (sticky until detach);
        returns False when the chain is exhausted.

        The first displaced backend is kept so the error message can
        name where the ladder started.  Every cache is dropped: a
        backend owning its own transition-matrix projection (reference)
        must not see cached P-matrices from the failed backend, and CLVs
        computed by the faulting backend must not leak into the
        replacement's results.
        """
        if not self._fallback_chain:
            return False
        next_name = self._fallback_chain.pop(0)
        if self._original_backend is None:
            self._original_backend = self._backend
        self._backend = resolve_backend(next_name)
        self.degradation_path.append(next_name)
        self.invalidate_all()
        return True

    def _guarded(self, label: str, fn):
        """Run ``fn`` under the degradation ladder.

        Detected faults (non-finite kernel guards) invalidate every
        cache and recompute; after ``degrade_after`` faulting
        recomputes, every further fault steps the engine one rung down
        the backend fallback chain (einsum → reference) and tries
        again.  Nested guarded calls (e.g. ``clv`` inside ``evaluate``)
        run bare so one operation has exactly one ladder.
        """
        if self._in_guard:
            return fn()
        if self.cancel is not None:
            self.cancel.check()
        self._in_guard = True
        try:
            attempt = 0
            while True:
                try:
                    result = fn()
                except FloatingPointError as exc:
                    attempt += 1
                    self.numerical_faults += 1
                    self.invalidate_all()
                    if attempt <= self._degrade_after:
                        continue
                    if self._degrade():
                        continue
                    origin = (self._original_backend or self._backend).name
                    ladder = " -> ".join([origin] + self.degradation_path)
                    raise EngineNumericalError(
                        f"{label}: numerical fault persisted through "
                        f"{attempt - 1} cache-invalidating recomputes and "
                        f"the backend degradation ladder ({ladder}): {exc}"
                    ) from exc
                if attempt:
                    self.fault_recoveries += 1
                if self.is_degraded:
                    self.degraded_evaluations += 1
                return result
        finally:
            self._in_guard = False

    def invalidate_all(self) -> None:
        """Drop every cache (e.g. after a model-parameter change)."""
        self._drop_all_clvs()
        self._reset_pmats()

    def _drop_all_clvs(self) -> None:
        self._clv_cache.clear()
        self._parked.clear()
        self._arena.release_all()

    def _reset_pmats(self) -> None:
        """Re-point the P-matrix cache at the current model/rates.

        Cumulative hit/miss counters survive so whole-run cache
        efficiency stays visible in :meth:`perf_counters`.
        """
        self._pmats.model = self.model
        self._pmats.rates = np.asarray(self._rates, dtype=np.float64)
        self._pmats.invalidate()
        self._prepare_probe()

    def _prepare_probe(self) -> None:
        self._probe = kernels.SumtableProbe(
            self.model._eigenvalues, self._rates, self._patterns.weights,
            self._cat_weights,
        )
        self._probe_work = self._probe.stack_work(1)

    def set_model(self, model: SubstitutionModel) -> None:
        """Swap the substitution model and drop caches."""
        _check_state_count(self.patterns, model)
        self.model = model
        self.invalidate_all()

    def set_rate_model(self, rate_model: RateModel) -> None:
        """Swap the rate model (same mode/category layout) and drop caches."""
        if (rate_model.site_categories is None) != (
                self.rate_model.site_categories is None):
            raise ValueError("cannot switch between integrated and CAT modes")
        self.rate_model = rate_model
        self._use_rate_model(rate_model)
        self._ensure_buffers()
        self.invalidate_all()

    def _use_rate_model(self, rate_model: RateModel) -> None:
        """The category weights and P-matrix rates of *rate_model* and,
        under CAT, the pattern layout the kernels see."""
        if rate_model.site_categories is not None:
            if len(rate_model.site_categories) != self.patterns.n_patterns:
                raise ValueError(
                    "CAT site_categories must assign every pattern a category"
                )
            self._patterns, self._rates, self._position = _category_layout(
                self.patterns, rate_model)
            self._cat_weights = np.ones(1)
            self._n_cats = 1
        else:
            #: the patterns as the kernels see them (CAT: sorted, padded)
            self._patterns = self.patterns
            #: caller pattern -> layout column (CAT only)
            self._position: Optional[np.ndarray] = None
            #: one rate per matrix of a P stack
            self._rates = rate_model.rates
            self._cat_weights = rate_model.weights
            self._n_cats = rate_model.n_categories

    def _ensure_buffers(self) -> None:
        """(Re)create the arena and scratch buffers when the CLV shape
        changed: at construction, or after a rate model with another
        category count or CAT layout."""
        s, c, n = self._patterns.n_patterns, self._n_cats, self._n_states
        arena = self._arena
        if arena is not None and (arena.n_cats, arena.n_patterns) == (c, s):
            return
        self._clv_cache.clear()  # old entries view the old arena's blocks
        self._parked.clear()
        #: preallocated CLV slot pool with free-list recycling
        self._arena = ClvArena(s, c, n)
        #: scratch for evaluate's propagated term and the sumtable's
        #: second projection (newview's scratch is the backend's)
        self._term_scratch = np.empty((c, s, n))
        #: the makenewz sumtable, ``(c*k, s)`` as the probe reads it,
        #: rebuilt in place once per makenewz call
        self._sumtable = np.empty((c * n, s))
        #: ``score_insertions``' candidate stacks, made at first use
        self._insertion_stacks = None
        #: shared zero scale-count vector handed out for tip sides
        self._zero_scale = np.zeros(s, dtype=np.int64)
        self._zero_scale.setflags(write=False)

    def _push_context(self, name: str):
        """Tell the tracer (if any) that nested kernel calls follow."""
        if self.tracer is not None and hasattr(self.tracer, "push_context"):
            return self.tracer.push_context(name)
        return None

    def _pop_context(self, token) -> None:
        if token is not None:
            self.tracer.pop_context(token)

    def _on_branch_dirty(self, branch_id: int) -> None:
        """A CLV is dropped only when its value changes.

        A *length* change stales the CLVs whose subtree contains the
        branch (``deps``) — not the two facing it, whose value does not
        depend on that length.  A *retired* branch also takes the two
        directions keyed by it; whatever it drops is still the right
        CLV for its content key, so it is parked where
        :meth:`_clv_fill` looks before computing.  (The P-matrix cache
        is keyed by length, not branch id: nothing to do there.)
        """
        retired = not self.tree.has_branch(branch_id)
        stale = [
            key
            for key, entry in self._clv_cache.items()
            if branch_id in entry.deps or (retired and key[1] == branch_id)
        ]
        for key in stale:
            entry = self._clv_cache.pop(key)
            if retired:
                self._parked[entry.content] = entry
            else:
                self._arena.release(entry.slot)
        while len(self._parked) > _PARKED_CLVS:
            oldest = self._parked.pop(next(iter(self._parked)))
            self._arena.release(oldest.slot)

    # -- transition matrices -------------------------------------------------

    def _transition_matrices(self, length: float) -> np.ndarray:
        """Transition matrices at *length*, ``(K, n, n)``: one per rate
        category (under CAT, per pattern block).  Served from
        the quantized-length :class:`PMatrixCache` (branches sharing a
        length share one stack) — unless the backend opts out of the
        cache to own its projection end to end (the reference oracle)."""
        if self._backend.uses_pmat_cache:
            mats = self._pmats.matrices(length)
            if _chaos._ACTIVE is not None and _chaos.fire(
                _chaos_plan.ENGINE_PMAT_CORRUPT
            ):
                # Corrupt the cached entry *in place*: the damage
                # persists across lookups until invalidate_all() drops
                # the cache — exactly the recovery path under test.
                mats.setflags(write=True)
                mats[...] = np.nan
                mats.setflags(write=False)
            return mats
        return self._backend.transition_matrices(
            self.model, self._rates, length
        )

    def _transition_derivatives(
        self, length: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(P, dP/dt, d2P/dt2)`` stacks at *length* (uncached: only the
        one-shot derivative probe and the oracle's Newton loop ask)."""
        if self._backend.uses_pmat_cache:
            return self.model.transition_derivatives(length, self._rates)
        return self._backend.transition_derivatives(
            self.model, self._rates, length
        )

    def _pmat(self, branch: Branch) -> np.ndarray:
        return self._transition_matrices(branch.length)

    # -- CLV computation -----------------------------------------------------

    def _tip_masks(self, node: Node) -> np.ndarray:
        return self._patterns.patterns[self._tip_index[node.index]]

    def _tip_clv(self, node: Node) -> np.ndarray:
        """Tip CLV expanded to ``(n_cats, n_patterns, n_states)``."""
        rows = self._patterns.tip_partials(self._tip_index[node.index])
        return np.broadcast_to(rows, (self._n_cats,) + rows.shape)

    def _propagated(
        self, node: Node, via: Branch, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CLV of the subtree at *node* away from *via*, propagated across
        *via*.  Returns ``(term, scale_counts)``; with ``out`` the term is
        written into the caller's buffer.  A tip side returns the shared
        read-only zero scale-count vector (callers only ever add it)."""
        p = self._pmat(via)
        if node.is_tip:
            term = self._backend.tip_terms(
                p, self._tip_masks(node), self._tip_table, out=out,
            )
            return term, self._zero_scale
        entry = self.clv(node, via)
        term = self._backend.inner_terms(p, entry.clv, out=out)
        return term, entry.scale_counts

    def _operand(self, node: Node, via: Branch):
        """The subtree at *node* away from *via* as a kernel operand: a
        tip's ``(s,)`` state codes, or the inner ``(clv, scale_counts)``
        pair (filled on demand)."""
        if node.is_tip:
            return self._tip_masks(node)
        entry = self.clv(node, via)
        return entry.clv, entry.scale_counts

    def clv(self, node: Node, entry: Branch) -> _CachedCLV:
        """The cached CLV at inner *node* for the subtree away from *entry*.

        Missing CLVs (including any missing descendants) are computed
        bottom-up; each computation is one ``newview()`` invocation.
        Only a miss enters the ladder: a detected numerical fault drops
        every cache and recomputes (see ``degrade_after``).
        """
        cached = self._clv_cache.get((node.index, entry.index))
        if cached is not None:
            return cached
        return self._guarded("clv", lambda: self._clv_fill(node, entry))

    def _clv_fill(self, node: Node, entry: Branch) -> _CachedCLV:
        if node.is_tip:
            raise ValueError("tips have no stored CLV; use _propagated")
        cached = self._clv_cache.get((node.index, entry.index))
        if cached is not None:
            return cached
        # Gather the missing directions below (node, entry) in post-order.
        order: List[Tuple[Node, Branch]] = []
        stack: List[Tuple[Node, Branch, bool]] = [(node, entry, False)]
        while stack:
            current, came_from, expanded = stack.pop()
            if expanded:
                order.append((current, came_from))
                continue
            if current.is_tip or (current.index, came_from.index) in self._clv_cache:
                continue
            stack.append((current, came_from, True))
            for branch in current.branches:
                if branch is not came_from:
                    stack.append((branch.other(current), branch, False))
        for current, came_from in order:
            operands = self._child_operands(current, came_from)
            _, _, deps, content = operands
            parked = self._parked.pop(content, None)
            if parked is None:
                self._newview(current, came_from, operands)
            else:  # same children, same lengths: same bits, no kernel
                parked.deps = deps
                self._clv_cache[(current.index, came_from.index)] = parked
        return self._clv_cache[(node.index, entry.index)]

    def _child_operands(self, node: Node, entry: Branch):
        """The two children of direction ``(node, entry)``: their
        branches, their kernel operands (a tip's state codes or the
        child's cached ``(clv, scale_counts)``, filled on demand), the
        subtree's branch set and the content key.  The key is sorted:
        the parent is the element-wise product of the two propagated
        children, which commutes exactly, so which child a regraft
        lists first does not change a bit of it."""
        branches = [b for b in node.branches if b is not entry]
        if len(branches) != 2:
            raise ValueError("newview requires an inner node of degree 3")
        deps = {branches[0].index, branches[1].index}
        sides, content = [], []
        for via in branches:
            child = via.other(node)
            if child.is_tip:
                sides.append(self._tip_masks(child))
                content.append((~self._tip_index[child.index], via.length))
            else:
                below = self.clv(child, via)
                deps.update(below.deps)
                sides.append((below.clv, below.scale_counts))
                content.append((below.ident, via.length))
        content.sort()
        return branches, sides, frozenset(deps), tuple(content)

    def newview(self, node: Node, entry: Branch) -> Tuple[np.ndarray, np.ndarray]:
        """Public ``newview()``: ``(clv, scale_counts)`` copies at a
        direction.  The differential harness calls this on the oracle
        engine; copies keep the caller isolated from arena recycling."""
        cached = self.clv(node, entry)
        return cached.clv.copy(), cached.scale_counts.copy()

    def _newview(self, node: Node, entry: Branch,
                 operands=None) -> _CachedCLV:
        """Compute and cache one CLV: a single ``newview()`` invocation,
        a single backend kernel call on resolved operands (those of
        :meth:`_child_operands`, when the caller already has them)."""
        (b1, b2), sides, deps, content = (
            operands or self._child_operands(node, entry))
        q1, q2 = b1.other(node), b2.other(node)
        p1, p2 = self._pmat(b1), self._pmat(b2)
        chaos = _chaos._ACTIVE is not None
        slot = self._arena.acquire()
        try:
            scaled = self._backend.newview(
                sides[0], p1, sides[1], p2, slot.clv, slot.scale_counts,
                self._tip_table, self._chaos_newview_hooks if chaos else None,
            )
        except BaseException:
            # The slot is not yet cached: release it or it leaks from
            # the arena's free list (and every retry leaks another).
            self._arena.release(slot)
            raise

        self._clv_serial += 1
        entry_cache = _CachedCLV(
            slot.clv, slot.scale_counts, deps, slot, content,
            self._clv_serial,
        )
        self._clv_cache[(node.index, entry.index)] = entry_cache

        self.newview_calls += 1
        # Traces count the alignment's patterns, the loop length of the
        # paper's kernels, not the CAT layout's weight-0 padding.
        if self.tracer is not None:
            if q1.is_tip and q2.is_tip:
                case = NewviewCase.TIP_TIP
            elif q1.is_tip:
                case = NewviewCase.TIP_INNER
            elif q2.is_tip:
                case = NewviewCase.INNER_TIP
            else:
                case = NewviewCase.INNER_INNER
            self.tracer.record_newview(
                case=case, n_patterns=self.patterns.n_patterns,
                n_cats=self._n_cats, scaled=scaled,
            )
        return entry_cache

    # -- chaos injection hooks ------------------------------------------------
    #
    # Active only under repro.chaos.inject(); the disabled path is the
    # single module-global is-None check at each call site.

    def _chaos_newview_hooks(
        self, clv: np.ndarray, scale_counts: np.ndarray
    ) -> None:
        """Visit the engine-numerics fault sites for one fresh CLV: the
        backend ``newview``'s ``hook``, run just before its rescale guard."""
        injector = _chaos._ACTIVE
        if injector is None:  # pragma: no cover - racy deactivation
            return
        if injector.fire(_chaos_plan.ENGINE_CLV_POISON):
            spec = injector.spec(_chaos_plan.ENGINE_CLV_POISON)
            value = np.inf if spec is not None and spec.value == "inf" \
                else np.nan
            # Poison the first stripe (a quarter of the patterns, in
            # every category): the non-finite guard in scale_clv must
            # catch it.
            stripe = max(1, clv.shape[1] // 4)
            clv[:, :stripe] = value
        if injector.fire(_chaos_plan.ENGINE_UNDERFLOW):
            self._force_underflow(clv, scale_counts)

    @staticmethod
    def _force_underflow(clv: np.ndarray, scale_counts: np.ndarray) -> None:
        """Push eligible patterns below the rescaling threshold.

        Bit-transparent by construction: eligible patterns are scaled by
        exactly ``2**-256`` with their scale counts pre-decremented, so
        ``scale_clv``'s mandatory rescale (an exact power-of-two
        multiply) restores both to the original bits.  Eligibility keeps
        the round trip exact: the pattern max must already be at or
        above the rescale threshold (a pattern the fault-free run would
        have rescaled here must keep its organic scaling, not the
        injected round trip) and strictly below 1.0 (so the pushed-down
        max lands strictly below the threshold), and every nonzero
        entry at least ``2**-700`` (so no entry goes subnormal and loses
        mantissa bits on the way down).
        """
        pattern_max = clv.max(axis=(0, 2))
        nonzero_min = np.where(clv > 0.0, clv, np.inf).min(axis=(0, 2))
        eligible = (
            (pattern_max >= kernels.SCALE_THRESHOLD)
            & (pattern_max < 1.0)
            & (nonzero_min >= 2.0**-700)
        )
        if not eligible.any():
            return
        clv[:, eligible] *= 2.0**-256
        scale_counts[eligible] -= 1

    # -- evaluate ------------------------------------------------------------

    def _side(self, node: Node, branch: Branch) -> Tuple[np.ndarray, np.ndarray]:
        """Unpropagated CLV facing *branch* from *node*'s side (tips
        share the read-only zero scale-count vector, as in
        :meth:`_term_across`)."""
        if node.is_tip:
            return self._tip_clv(node), self._zero_scale
        return self._operand(node, branch)

    def evaluate(self, branch: Optional[Branch] = None) -> float:
        """Log likelihood of the tree, computed at *branch*.

        For a reversible model the result is branch-independent; the
        default uses an arbitrary branch.  Guarded: a non-finite result
        walks the degradation ladder (recompute, then reference
        fallback) before surfacing a typed :class:`EngineNumericalError`.
        """
        return self._guarded("evaluate", lambda: self._evaluate_impl(branch))

    def _evaluate_impl(self, branch: Optional[Branch] = None) -> float:
        if branch is None:
            branch = self.tree.branches[0]
        u, v = branch.nodes
        # Keep the tip (if any) on the un-propagated side: RAxML's cheap case.
        if v.is_tip and not u.is_tip:
            u, v = v, u
        # CLV refreshes triggered from here are nested inside this offload
        # unit (no PPE<->SPE communication once evaluate lives on the SPE).
        context = self._push_context("evaluate")
        try:
            u_clv, u_sc = self._side(u, branch)
            v_term, v_sc = self._propagated(
                v, branch, out=self._term_scratch
            )
        finally:
            self._pop_context(context)
        result = self._backend.evaluate_loglik(
            self.model.pi,
            self._cat_weights,
            self._patterns.weights,
            u_clv,
            v_term,
            u_sc + v_sc,
        )
        if not np.isfinite(result):
            raise FloatingPointError(
                f"non-finite log likelihood: {result!r}"
            )
        self.evaluate_calls += 1
        if self.tracer is not None:
            self.tracer.record_evaluate(
                n_patterns=self.patterns.n_patterns, n_cats=self._n_cats
            )
        return result

    def log_likelihood(self) -> float:
        """Alias for :meth:`evaluate` at a default branch."""
        return self.evaluate()

    #: oracle-compat alias (the pre-refactor ReferenceEngine called it
    #: ``loglik``); keeps old verification call sites working unchanged.
    loglik = evaluate

    def site_log_likelihoods(self, branch: Optional[Branch] = None) -> np.ndarray:
        """Per-pattern log likelihoods (diagnostics; CAT rate estimation),
        in the caller's pattern order."""
        if branch is None:
            branch = self.tree.branches[0]
        u, v = branch.nodes
        if v.is_tip and not u.is_tip:
            u, v = v, u
        u_clv, u_sc = self._side(u, branch)
        v_term, v_sc = self._propagated(v, branch, out=self._term_scratch)
        per_cat = np.einsum(
            "csi,i->cs", u_clv * v_term, self.model.pi, optimize=True
        )
        site_lik = per_cat.T @ self._cat_weights
        logs = np.log(site_lik) - (u_sc + v_sc) * kernels.LOG_SCALE_FACTOR
        return logs if self._position is None else logs[self._position]

    # -- makenewz ------------------------------------------------------------

    def branch_derivatives(
        self, branch: Branch, length: Optional[float] = None
    ) -> Tuple[float, float, float]:
        """``(lnL, d lnL/dt, d2 lnL/dt2)`` at *branch*, evaluated at
        ``length`` (default: the branch's current length) without
        touching the tree.  One ``makenewz`` derivative probe — exposed
        so the differential harness compares Newton inputs across
        backends instead of groping at engine internals.  Guarded."""
        return self._guarded(
            "branch_derivatives",
            lambda: self._branch_derivatives_impl(branch, length),
        )

    def _branch_derivatives_impl(
        self, branch: Branch, length: Optional[float] = None
    ) -> Tuple[float, float, float]:
        u, v = branch.nodes
        u_clv, u_sc = self._side(u, branch)
        v_clv, v_sc = self._side(v, branch)
        t = branch.length if length is None else length
        return self._derivatives_at(t, u_clv, v_clv, u_sc + v_sc)

    def _derivatives_at(
        self, length: float, u_clv, v_clv, scale
    ) -> Tuple[float, float, float]:
        return kernels.finite_derivatives(*self._backend.branch_derivatives(
            self._transition_derivatives(length),
            self.model.pi,
            self._cat_weights,
            self._patterns.weights,
            u_clv,
            v_clv,
            scale,
        ))

    def makenewz(
        self,
        branch: Branch,
        max_iterations: int = 32,
        tolerance: float = NEWTON_TOLERANCE,
    ) -> Tuple[float, float]:
        """Optimize one branch length by Newton-Raphson.

        Returns ``(new_length, log_likelihood)``.  The tree is updated in
        place (which dirties dependent CLVs through the observer
        protocol).  Mirrors RAxML's ``makenewz()``: it first ensures the
        CLVs facing the branch exist (calling ``newview()`` as needed),
        then iterates Newton steps with safeguards.  Guarded: the tree
        is only mutated on success (the final ``set_length``), so a
        ladder retry restarts from an unmodified tree.
        """
        return self._guarded(
            "makenewz",
            lambda: self._makenewz_impl(branch, max_iterations, tolerance),
        )

    def _makenewz_impl(
        self,
        branch: Branch,
        max_iterations: int = 32,
        tolerance: float = NEWTON_TOLERANCE,
    ) -> Tuple[float, float]:
        context = self._push_context("makenewz")
        try:
            probe = self._newton_probe(branch)
        finally:
            self._pop_context(context)
        (best_t,), (best_lnl,) = self._newton(
            probe, [branch.length], max_iterations, tolerance)
        self.tree.set_length(branch, best_t)
        return best_t, best_lnl

    def _newton(self, probe, start: Sequence[float], max_iterations: int,
                tolerance: float = NEWTON_TOLERANCE,
                arrange: Optional[Callable[[List[int]], List[int]]] = None,
                ) -> Tuple[List[float], List[float]]:
        """:func:`masked_newton` on ``probe``'s ``(derivatives, lnl_at)``
        rows, counted: one ``makenewz`` per row, and one backend kernel
        call per sumtable probe evaluation (the oracle's explicit ``(P,
        dP, d2P)`` probes count themselves in the backend).  Returns
        ``(best_t, best_lnl)`` lists."""
        evaluations = self._probe.calls
        best_t, best_lnl, iterations = masked_newton(
            *probe, start, max_iterations, tolerance, arrange)
        self._backend.kernel_calls += self._probe.calls - evaluations
        self.makenewz_calls += len(iterations)
        if self.tracer is not None:
            for count in iterations:
                self.tracer.record_makenewz(
                    n_patterns=self.patterns.n_patterns,
                    n_cats=self._n_cats,
                    iterations=count,
                )
        return best_t, best_lnl

    def _newton_probe(self, branch: Branch):
        """The Newton loop's ``(derivatives, lnl_at)`` row callables at
        *branch*, one row, with the CLVs facing the branch filled
        (calling ``newview()`` as needed) and everything
        length-independent done.

        Both sides are projected into the eigenbasis once (the backend's
        ``branch_sumtable``, into the engine's scratch table; a tip side
        goes in as its state codes), the summed scale counts fold into
        one scalar, and the rows are the engine's prepared
        :class:`~repro.phylo.kernels.SumtableProbe` on that table as a
        one-row stack — good until the next ``_newton_probe`` call.  A
        backend that owns its projection (the reference oracle) keeps
        the per-iteration ``(P, dP, d2P)`` probe.
        """
        u, v = branch.nodes
        if not self._backend.uses_pmat_cache:
            u_clv, u_sc = self._side(u, branch)
            v_clv, v_sc = self._side(v, branch)
            return self._explicit_rows([(u_clv, v_clv, u_sc + v_sc)])
        u_side, u_sc = self._sumtable_side(u, branch)
        v_side, v_sc = self._sumtable_side(v, branch)
        model = self.model
        # Nested newviews are done: the term scratch is free to lend.
        table = self._backend.branch_sumtable(
            model._right, model._left, model.pi, self._n_cats,
            u_side, v_side, self._tip_table,
            out=self._sumtable, work=self._term_scratch,
        )
        offset = float(self._patterns.weights @ (u_sc + v_sc))
        return self._probe.rows(table[None],
                                [offset * kernels.LOG_SCALE_FACTOR],
                                self._probe_work)

    def _explicit_rows(self, pairs):
        """The Newton loop's row callables on the explicit ``(P, dP,
        d2P)`` probe: row ``r`` is ``pairs[r]``, the ``(u_clv, v_clv,
        scale_counts)`` facing its branch."""
        def derivatives(t, rows):
            return [self._derivatives_at(length, *pairs[r])
                    for length, r in zip(t, rows)]
        return derivatives, lambda t, rows: [d[0] for d in
                                             derivatives(t, rows)]

    def score_insertions(self, subtree_root: Node, targets: List[Branch],
                         connect_length: float, max_iterations: int = 32):
        """Score regrafting the pruned subtree at *subtree_root* into the
        leading *targets*, as many as one candidate stack holds: the bits
        of regraft → ``makenewz`` ×3 → ``evaluate``, with no tree edit
        (:mod:`repro.phylo.engine.insertion`).  Guarded."""
        from .insertion import score_insertions
        return self._guarded("score_insertions", lambda: score_insertions(
            self, subtree_root, targets, connect_length, max_iterations))

    def _sumtable_side(
        self, node: Node, branch: Branch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_side` for the sumtable: a tip contributes its state
        codes (the kernel gathers them), not the broadcast tip CLV."""
        side = self._operand(node, branch)
        return (side, self._zero_scale) if node.is_tip else side

    # -- diagnostics ----------------------------------------------------------

    def perf_counters(self) -> Dict[str, int]:
        """Hot-path performance counters (cache, arena, backend).

        Exposed to tracers through ``add_counter_source`` so workload
        traces carry the engine-efficiency numbers alongside the kernel
        mix.  The key set is identical for every backend: engine
        counters, ``pmat_*`` cache counters, ``arena_*`` counters, and
        the five fixed ``backend_*`` keys of ``BACKEND_COUNTER_KEYS``.
        """
        counters = {
            "newview_calls": self.newview_calls,
            "evaluate_calls": self.evaluate_calls,
            "makenewz_calls": self.makenewz_calls,
            "clv_cache_entries": len(self._clv_cache),
            "numerical_faults": self.numerical_faults,
            "fault_recoveries": self.fault_recoveries,
            "degraded": self.degraded_evaluations,
        }
        counters.update(self._pmats.counters())
        counters.update(self._arena.counters())
        counters.update(self._backend.perf_counters())
        return counters

    def optimize_all_branches(
        self, passes: int = 3, tolerance: float = 1e-6
    ) -> float:
        """Smooth every branch length (RAxML 'smoothings'): one
        per-branch :meth:`makenewz` per branch per pass.

        Stops early when a pass improves the likelihood by less than
        *tolerance*.  Returns the final log likelihood.
        """
        last = -np.inf
        lnl = last
        for _ in range(passes):
            for branch in self.tree.branches:
                _, lnl = self.makenewz(branch)
            if lnl - last < tolerance:
                break
            last = lnl
        return lnl


def _check_state_count(patterns: PatternAlignment,
                       model: SubstitutionModel) -> None:
    """Refuse a model whose state space is not the patterns' alphabet's."""
    alphabet = patterns.alphabet
    if model.n_states != alphabet.n_states:
        raise ValueError(
            f"a {model.n_states}-state model cannot score "
            f"{alphabet.n_states}-state {alphabet.noun} patterns")


def _category_layout(patterns: PatternAlignment, rate_model: RateModel
                     ) -> Tuple[PatternAlignment, np.ndarray, np.ndarray]:
    """CAT's pattern layout: ``(layout, rates, position)``.

    ``layout`` holds the patterns sorted by category into one block per
    category that has any, each padded to the longest block with
    weight-0 copies of its own first pattern (equal-population bins
    differ by at most one).  ``rates`` are those categories' rates, block
    by block; ``position[p]`` is caller pattern ``p``'s column.
    """
    categories = np.asarray(rate_model.site_categories)
    counts = np.bincount(categories)
    used = np.flatnonzero(counts)
    width = int(counts.max())
    order = np.argsort(categories, kind="stable")
    columns = np.empty((len(used), width), dtype=np.intp)
    weights = np.zeros((len(used), width))
    position = np.empty(len(categories), dtype=np.intp)
    start = 0
    for block, count in enumerate(counts[used]):
        members = order[start:start + count]
        start += count
        columns[block] = members[0]
        columns[block, :count] = members
        weights[block, :count] = patterns.weights[members]
        position[members] = block * width + np.arange(count)
    layout = dataclasses.replace(
        patterns, patterns=patterns.patterns[:, columns.ravel()],
        weights=weights.ravel(),
        site_to_pattern=position[patterns.site_to_pattern],
        _tip_partial_cache={},
    )
    return layout, rate_model.rates[used], position


def estimate_site_rates(
    patterns: PatternAlignment,
    model: SubstitutionModel,
    tree: Tree,
    rate_grid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-pattern ML rate estimates over a grid (for building CAT models).

    For each candidate rate the whole tree is scored with a single
    rate category, and each pattern picks the rate maximizing its own
    likelihood — a simplified version of RAxML's per-site rate
    optimization that feeds :func:`repro.phylo.rates.CatRates`.
    """
    if rate_grid is None:
        rate_grid = np.geomspace(1.0 / 16.0, 16.0, 25)
    per_rate = np.empty((len(rate_grid), patterns.n_patterns))
    for k, rate in enumerate(rate_grid):
        rate_model = RateModel(np.array([rate]), np.ones(1), name=f"fixed({rate:g})")
        engine = LikelihoodEngine(patterns, model, rate_model, tree)
        per_rate[k] = engine.site_log_likelihoods()
        engine.detach()
    best = rate_grid[np.argmax(per_rate, axis=0)]
    return np.asarray(best, dtype=np.float64)
