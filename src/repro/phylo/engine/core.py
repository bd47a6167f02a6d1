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
and CAT (one category per site; per-pattern transition matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

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
    "newton_branch_length",
]


#: Two Newton iterates whose ``lnL`` differ by at most this many ulps
#: are a tie (summation round-off over the patterns is a few ulps).
LNL_TIE_ULPS = 8
_LNL_TIE = LNL_TIE_ULPS * np.finfo(float).eps


def newton_branch_length(
    derivatives_at: Callable[[float], Tuple[float, float, float]],
    start: float,
    max_iterations: int = 32,
    tolerance: float = 1e-8,
    lnl_at: Optional[Callable[[float], float]] = None,
) -> Tuple[float, float, int]:
    """Safeguarded Newton-Raphson on one branch length.

    ``derivatives_at(t)`` returns ``(lnL, d lnL/dt, d2 lnL/dt2)``;
    ``lnl_at(t)``, when given, is a cheaper ``lnL`` alone for the final
    re-score.  Newton steps where the likelihood is locally concave,
    doubling / halving uphill otherwise, every iterate clamped to
    ``[MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH]``; stops on a derivative or
    a step below *tolerance*.  Returns ``(best_t, best_lnl,
    iterations)`` — the best point *scored*, including the final
    iterate — so a step that loses likelihood is never kept.

    Two rules keep the returned length independent of which kernel's
    round-off scored the iterates.  A later iterate that ties the best
    within :data:`LNL_TIE_ULPS` ulps wins: converged iterates agree in
    ``lnL`` to the last bit while still one Newton step (~1e-7) apart,
    and the later one is the converged one.  And a result within
    *tolerance* of *start* returns *start* itself: a branch already
    converged to the step tolerance is not moved (a sub-tolerance move
    gains nothing measurable but dirties every CLV behind the branch).
    """
    t, scored = start, None
    best_t, best_lnl = t, -np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        lnl, d1, d2 = derivatives_at(t)
        scored = t
        if lnl >= best_lnl - _LNL_TIE * abs(lnl):
            best_lnl, best_t = lnl, t
        if abs(d1) < tolerance:
            break
        if d2 < 0.0:
            new_t = t - d1 / d2
        else:
            # Not locally concave: move in the uphill direction.
            new_t = t * 2.0 if d1 > 0 else t * 0.5
        new_t = min(max(new_t, MIN_BRANCH_LENGTH), MAX_BRANCH_LENGTH)
        if abs(new_t - t) < tolerance:
            t = new_t
            break
        t = new_t

    # Score the final point too (the loop may end right after a step),
    # unless it is the point just scored: same t, same bits, same best.
    if t != scored:
        lnl = derivatives_at(t)[0] if lnl_at is None else lnl_at(t)
        if lnl >= best_lnl - _LNL_TIE * abs(lnl):
            best_lnl, best_t = lnl, t
    if abs(best_t - start) < tolerance:
        best_t = start
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
    clv: np.ndarray  # (n_patterns, n_cats, n) — a view into an arena slot
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
        self.patterns = patterns
        self.model = model
        self.rate_model = rate_model or UniformRate()
        self.tree = tree
        self.tracer = tracer
        #: the numerical kernel backend behind every hot-path call
        self._backend = resolve_backend(backend)
        #: state-space size (4 for DNA, 20 for amino acids)
        self._n_states = model.n_states
        #: per-code tip indicator rows (None = the DNA mask table)
        self._tip_table = getattr(patterns, "tip_code_table", None)
        check_tip_codes(patterns.patterns, self._tip_table)

        if self.rate_model.is_per_site:
            if len(self.rate_model.site_categories) != patterns.n_patterns:
                raise ValueError(
                    "CAT site_categories must assign every pattern a category"
                )
            #: per-pattern rate multipliers (CAT mode)
            self._site_rates = self.rate_model.rates[self.rate_model.site_categories]
            self._cat_weights = np.ones(1)
            self._n_cats = 1
        else:
            self._site_rates = None
            self._cat_weights = self.rate_model.weights
            self._n_cats = self.rate_model.n_categories

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
        self._pmats = PMatrixCache(model, self._rates_for_pmat())
        #: the prepared makenewz probe (same lifetime as the P-matrices)
        self._probe = self._prepared_probe()
        #: preallocated CLV slot pool with free-list recycling
        self._arena = ClvArena(
            patterns.n_patterns, self._n_cats, self._n_states
        )
        #: scratch for evaluate's propagated term and the sumtable's
        #: second projection (newview's scratch is the backend's)
        self._term_scratch = np.empty(
            (patterns.n_patterns, self._n_cats, self._n_states)
        )
        #: the makenewz sumtable, ``(c*k, s)`` as the probe reads it,
        #: rebuilt in place once per makenewz call
        self._sumtable = np.empty(
            (self._n_cats * self._n_states, patterns.n_patterns)
        )
        #: shared zero scale-count vector handed out for tip sides
        self._zero_scale = np.zeros(patterns.n_patterns, dtype=np.int64)
        self._zero_scale.setflags(write=False)
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
        self._pmats.rates = np.asarray(
            self._rates_for_pmat(), dtype=np.float64
        )
        self._pmats.invalidate()
        self._probe = self._prepared_probe()

    def _prepared_probe(self) -> kernels.SumtableProbe:
        return kernels.SumtableProbe(
            self.model._eigenvalues, self._rates_for_pmat(),
            self.patterns.weights, self._cat_weights,
            per_site=self._site_rates is not None,
        )

    def set_model(self, model: SubstitutionModel) -> None:
        """Swap the substitution model and drop caches."""
        self.model = model
        self.invalidate_all()

    def set_rate_model(self, rate_model: RateModel) -> None:
        """Swap the rate model (same mode/category layout) and drop caches."""
        if rate_model.is_per_site != self.rate_model.is_per_site:
            raise ValueError("cannot switch between integrated and CAT modes")
        self.rate_model = rate_model
        if rate_model.is_per_site:
            self._site_rates = rate_model.rates[rate_model.site_categories]
        else:
            self._cat_weights = rate_model.weights
            self._n_cats = rate_model.n_categories
        self._ensure_buffers()
        self.invalidate_all()

    def _ensure_buffers(self) -> None:
        """Recreate arena/scratch buffers if the CLV shape changed
        (e.g. a rate model with a different category count)."""
        if self._arena.n_cats == self._n_cats:
            return
        shape = (self.patterns.n_patterns, self._n_cats, self._n_states)
        self._clv_cache.clear()  # old entries view the old arena's blocks
        self._parked.clear()
        self._arena = ClvArena(*shape)
        self._term_scratch = np.empty(shape)
        self._sumtable = np.empty((shape[1] * shape[2], shape[0]))

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

    def _rates_for_pmat(self) -> np.ndarray:
        if self._site_rates is not None:
            return self._site_rates
        return self.rate_model.rates

    def _transition_matrices(self, length: float) -> np.ndarray:
        """Transition matrices at *length*: ``(n_cats, n, n)`` for the
        integrated modes, ``(n_patterns, n, n)`` for CAT.  Served from
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
            self.model, self._rates_for_pmat(), length
        )

    def _transition_derivatives(
        self, length: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(P, dP/dt, d2P/dt2)`` stacks at *length* (uncached: only the
        one-shot derivative probe and the oracle's Newton loop ask)."""
        if self._backend.uses_pmat_cache:
            return self.model.transition_derivatives(
                length, self._rates_for_pmat()
            )
        return self._backend.transition_derivatives(
            self.model, self._rates_for_pmat(), length
        )

    def _pmat(self, branch: Branch) -> np.ndarray:
        return self._transition_matrices(branch.length)

    # -- CLV computation -----------------------------------------------------

    def _tip_masks(self, node: Node) -> np.ndarray:
        return self.patterns.patterns[self._tip_index[node.index]]

    def _tip_clv(self, node: Node) -> np.ndarray:
        """Tip CLV expanded to ``(n_patterns, n_cats, n_states)``."""
        rows = self.patterns.tip_partials(self._tip_index[node.index])
        return np.broadcast_to(
            rows[:, None, :],
            (self.patterns.n_patterns, self._n_cats, self._n_states),
        )

    def _propagated(
        self, node: Node, via: Branch, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CLV of the subtree at *node* away from *via*, propagated across
        *via*.  Returns ``(term, scale_counts)``; with ``out`` the term is
        written into the caller's buffer.  A tip side returns the shared
        read-only zero scale-count vector (callers only ever add it)."""
        p = self._pmat(via)
        per_site = self._site_rates is not None
        if node.is_tip:
            term = self._backend.tip_terms(
                p, self._tip_masks(node), self._tip_table,
                out=out, per_site=per_site,
            )
            return term, self._zero_scale
        entry = self.clv(node, via)
        term = self._backend.inner_terms(
            p, entry.clv, out=out, per_site=per_site
        )
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
                self._tip_table, self._site_rates is not None,
                self._chaos_newview_hooks if chaos else None,
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
            # Poison the first stripe (a quarter of the patterns): the
            # non-finite guard in scale_clv must catch it.
            stripe = max(1, clv.shape[0] // 4)
            clv[:stripe] = value
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
        flat = clv.reshape(clv.shape[0], -1)
        pattern_max = flat.max(axis=1)
        nonzero_min = np.where(flat > 0.0, flat, np.inf).min(axis=1)
        eligible = (
            (pattern_max >= kernels.SCALE_THRESHOLD)
            & (pattern_max < 1.0)
            & (nonzero_min >= 2.0**-700)
        )
        if not eligible.any():
            return
        clv[eligible] *= 2.0**-256
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
            self.patterns.weights,
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
        """Per-pattern log likelihoods (diagnostics; CAT rate estimation)."""
        if branch is None:
            branch = self.tree.branches[0]
        u, v = branch.nodes
        if v.is_tip and not u.is_tip:
            u, v = v, u
        u_clv, u_sc = self._side(u, branch)
        v_term, v_sc = self._propagated(v, branch)
        per_cat = np.einsum(
            "sci,i->sc", u_clv * v_term, self.model.pi, optimize=True
        )
        site_lik = per_cat @ self._cat_weights
        return np.log(site_lik) - (u_sc + v_sc) * kernels.LOG_SCALE_FACTOR

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
            self.patterns.weights,
            u_clv,
            v_clv,
            scale,
            per_site=self._site_rates is not None,
        ))

    def makenewz(
        self,
        branch: Branch,
        max_iterations: int = 32,
        tolerance: float = 1e-8,
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
        tolerance: float = 1e-8,
    ) -> Tuple[float, float]:
        context = self._push_context("makenewz")
        try:
            probe = self._newton_probe(branch)
        finally:
            self._pop_context(context)
        evaluations = self._probe.calls
        best_t, best_lnl, iterations = newton_branch_length(
            probe, branch.length, max_iterations, tolerance,
            lnl_at=probe.lnl if probe is self._probe else None,
        )
        # One kernel call per sumtable probe (the oracle's explicit
        # (P, dP, d2P) probes count themselves in the backend).
        self._backend.kernel_calls += self._probe.calls - evaluations
        self.tree.set_length(branch, best_t)
        self.makenewz_calls += 1
        if self.tracer is not None:
            self.tracer.record_makenewz(
                n_patterns=self.patterns.n_patterns,
                n_cats=self._n_cats,
                iterations=iterations,
            )
        return best_t, best_lnl

    def _newton_probe(
        self, branch: Branch
    ) -> Callable[[float], Tuple[float, float, float]]:
        """``t -> (lnL, d lnL/dt, d2 lnL/dt2)`` at *branch* for the
        Newton loop, with the CLVs facing the branch filled (calling
        ``newview()`` as needed) and everything length-independent done.

        Both sides are projected into the eigenbasis once (the backend's
        ``branch_sumtable``, into the engine's scratch table; a tip side
        goes in as its state codes), the summed scale counts fold into
        one scalar, and the engine's prepared
        :class:`~repro.phylo.kernels.SumtableProbe` is pointed at the
        pair — it reads the one scratch table, so it is good until the
        next ``_newton_probe`` call.  A backend that owns its projection
        (the reference oracle) keeps the per-iteration ``(P, dP, d2P)`` path.
        """
        u, v = branch.nodes
        if not self._backend.uses_pmat_cache:
            u_clv, u_sc = self._side(u, branch)
            v_clv, v_sc = self._side(v, branch)
            scale = u_sc + v_sc
            return lambda t: self._derivatives_at(t, u_clv, v_clv, scale)
        u_side, u_sc = self._sumtable_side(u, branch)
        v_side, v_sc = self._sumtable_side(v, branch)
        model = self.model
        # Nested newviews are done: the term scratch is free to lend.
        table = self._backend.branch_sumtable(
            model._right, model._left, model.pi, self._n_cats,
            u_side, v_side, self._tip_table,
            out=self._sumtable, work=self._term_scratch,
        )
        offset = float(self.patterns.weights @ (u_sc + v_sc))
        return self._probe.load(table, offset * kernels.LOG_SCALE_FACTOR)

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
