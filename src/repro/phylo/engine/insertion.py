"""Prune-once insertion scoring: RAxML's lazy SPR as one engine operation.

RAxML's rapid hill climbing prunes a subtree once, slides it across every
insertion branch within the rearrangement radius and, at each insertion,
optimises only the three branches around the new junction before it
scores the tree there.  :func:`score_insertions` is that step, run while
the subtree is pruned: for each target it scores it returns the bits
that ``regraft_subtree`` → ``makenewz`` on the three junction branches →
``evaluate`` at the connecting branch would give, without editing the
tree.

A target ``(a, b)`` of length ``T`` is split into ``(a, j)`` and
``(j, b)`` of ``h = max(T / 2, MIN_BRANCH_LENGTH)`` each, and ``(j, r)``
connects the subtree root ``r`` at the connect length ``L``
(:meth:`Tree.regraft_subtree`).  Three stages follow, in the order the
regraft creates those branches:

1. **a-side** — junction CLV ``b·h ⊙ r·L``, sumtable ``(a, J)``, Newton
   from ``h`` → ``t_a``;
2. **b-side** — junction CLV ``a·t_a ⊙ r·L``, sumtable ``(J, b)``,
   Newton from ``h`` → ``t_b``;
3. **connect** — junction CLV ``a·t_a ⊙ b·t_b``, sumtable ``(J, r)``,
   Newton from ``L`` → ``t_connect``;

then the log likelihood at ``(j, r)`` with ``evaluate``'s operand order
(a tip subtree root stays unpropagated).  The subtree's term across
``L`` is propagated once per call and shared by stages 1–2; each
candidate's a-side term across ``t_a`` is shared by stages 2–3 and
becomes, in place, its stage-3 junction CLV, which ``evaluate`` reads.
Every junction CLV is built from the backend's propagate / combine /
rescale kernels with the chaos hook between combine and rescale,
exactly as ``newview`` does.

Each stage runs the engine's one Newton loop
(:func:`~repro.phylo.engine.core.masked_newton`, the loop ``makenewz``
runs on one branch) over all candidates: on ``einsum`` the probe is the
engine's :class:`~repro.phylo.kernels.SumtableProbe` on a ``(K, c·k,
s)`` stack of sumtables; on ``reference`` (which owns its projection) it
is the per-candidate explicit ``(P, dP, d2P)`` probe.
:data:`STACK_BUDGET_BYTES` bounds the
stacks: one call scores the leading targets that fit them, at least
one, and the caller asks again, at its next prune, for the rest it
still needs — so a search that accepts a target early in a long
neighbourhood scores at most one stack's worth past it.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ...chaos import injector as _chaos
from .. import kernels
from ..tree import MIN_BRANCH_LENGTH, Branch, Node
from .core import NewviewCase

__all__ = [
    "InsertionScore",
    "STACK_BUDGET_BYTES",
    "score_insertions",
    "stack_bytes",
    "stack_capacity",
]

#: Memory budget of the candidate stacks: per candidate a ``(c·k, s)``
#: sumtable and a ``(c, s, n)`` term (``2 * c * s * n`` doubles), a
#: scale-count row and the probe's work rows (:func:`_candidate_bytes`).
#: At ``search_sc``'s 207 patterns (Γ4, DNA) that is 21 candidates, more
#: than the largest radius-6 neighbourhood of a 12-taxon tree (18);
#: larger alignments get fewer per stack, never fewer than one.
STACK_BUDGET_BYTES = 1280 * 1024


class InsertionScore(NamedTuple):
    """One scored insertion: the lazily optimised log likelihood and the
    three junction branch lengths in creation order."""

    lnl: float
    t_a: float
    t_b: float
    t_connect: float


def _candidate_bytes(n_patterns: int, n_cats: int, n_states: int) -> int:
    """One candidate's rows: sumtable and term, scale counts, and the
    probe's exponentials and basis (one per exponent, ``c·k``), sums and
    square (:meth:`SumtableProbe.stack_work`).  CAT's ``K·k`` exponents
    on its one category axis are ``4·(K-1)·k`` doubles more than this
    counts: 384 bytes for DNA in four categories."""
    return 8 * (2 * n_cats * n_patterns * n_states + 5 * n_patterns
                + 4 * n_cats * n_states)


def stack_capacity(n_patterns: int, n_cats: int, n_states: int) -> int:
    """Candidates one stack holds within :data:`STACK_BUDGET_BYTES`."""
    per = _candidate_bytes(n_patterns, n_cats, n_states)
    return max(1, STACK_BUDGET_BYTES // per)


def stack_bytes(n_patterns: int, n_cats: int, n_states: int) -> int:
    """Largest stack footprint of one call (the memory estimate's term)."""
    return (stack_capacity(n_patterns, n_cats, n_states)
            * _candidate_bytes(n_patterns, n_cats, n_states))


class _Side(NamedTuple):
    """One side of a junction: a tip's state codes, or an inner CLV."""

    operand: np.ndarray  # (s,) tip codes or (c, s, n) CLV
    scale: Optional[np.ndarray]  # (s,) scale counts; None for a tip
    node: Optional[Node]
    #: whether any scale count is nonzero
    scaled: bool = False

    @property
    def is_tip(self) -> bool:
        return self.scale is None


def _case(left_tip: bool, right_tip: bool) -> str:
    if left_tip:
        return NewviewCase.TIP_TIP if right_tip else NewviewCase.TIP_INNER
    return NewviewCase.INNER_TIP if right_tip else NewviewCase.INNER_INNER


class _Stacks:
    """The candidate stacks of :func:`score_insertions`: the sumtables,
    the a-side terms (stage 3's junctions, in place) with their scale
    counts, the probe's work rows, and the subtree's term.  The engine
    owns them (``_insertion_stacks``, made at first use, dropped with its
    other buffers on a shape change or ``detach``) and every call reuses
    them.  They are allocated once at :func:`stack_capacity` candidates —
    pages become resident only as a call that large writes them — so
    they are never reallocated as neighbourhoods grow, and a search's
    peak memory holds one set.  The scratch CLVs are the engine's own
    term scratch and sumtable, which no other operation uses while this
    one runs."""

    def __init__(self, engine):
        c, s, n = self.shape = (engine._n_cats, engine._patterns.n_patterns,
                                engine._n_states)
        self.capacity = stack_capacity(s, c, n)
        self.tables = np.empty((self.capacity, c * n, s))
        self.terms = np.empty((self.capacity, c, s, n))
        self.scales = np.empty((self.capacity, s), dtype=np.int64)
        self.work = engine._probe.stack_work(self.capacity)
        self.subtree_term = np.empty((c, s, n))
        self.scale = np.empty(s, dtype=np.int64)

    @classmethod
    def of(cls, engine) -> "_Stacks":
        if engine._insertion_stacks is None:
            engine._insertion_stacks = cls(engine)
        return engine._insertion_stacks


class _Scorer:
    """The state of one :func:`score_insertions` call."""

    def __init__(self, engine, subtree_root: Node, connect_length: float,
                 max_iterations: int):
        self.engine = engine
        self.backend = engine.backend
        self.stacked = self.backend.uses_pmat_cache
        self.shape = (engine._n_cats, engine._patterns.n_patterns,
                      engine._n_states)
        self.weights = engine._patterns.weights
        self.connect = connect_length
        self.max_iterations = max_iterations
        self.stacks = _Stacks.of(engine)
        self.work = engine._term_scratch
        #: the junction scratch, and the Newton's row-swap buffer once a
        #: stage's sumtables are built
        self.spare = engine._sumtable
        self.clv = self.spare.reshape(self.shape)
        self.subtree = self._subtree(subtree_root)
        self.subtree_term = self._propagate(self.subtree, connect_length,
                                            self.stacks.subtree_term)

    # -- operands ------------------------------------------------------------

    def _side(self, node: Node, branch: Branch) -> _Side:
        if node.is_tip:
            return _Side(self.engine._tip_masks(node), None, node)
        entry = self.engine.clv(node, branch)
        return _Side(entry.clv, entry.scale_counts, node,
                     bool(entry.scale_counts.any()))

    def _subtree(self, root: Node) -> _Side:
        """The pruned subtree's CLV at its dangling root: the retired
        direction parked under the same content key when the subtree was
        pruned, or one fresh ``newview`` of its two children."""
        engine = self.engine
        if root.is_tip:
            return _Side(engine._tip_masks(root), None, root)
        (b1, b2), sides, _, content = engine._child_operands(root, None)
        parked = engine._parked.get(content)
        if parked is not None:
            return _Side(parked.clv, parked.scale_counts, root,
                         bool(parked.scale_counts.any()))
        clv = np.empty(self.shape)
        scale = np.empty(self.shape[1], dtype=np.int64)
        scaled = self.backend.newview(
            sides[0], engine._pmat(b1), sides[1], engine._pmat(b2), clv,
            scale, engine._tip_table, self._hook(),
        )
        self._record_newview(
            _case(b1.other(root).is_tip, b2.other(root).is_tip), scaled)
        return _Side(clv, scale, root, bool(scale.any()))

    def _propagate(self, side: _Side, length: float,
                   out: np.ndarray) -> np.ndarray:
        """``side`` across a branch of ``length`` into ``out``."""
        p = self.engine._transition_matrices(length)
        if side.is_tip:
            return self.backend.tip_terms(p, side.operand,
                                          self.engine._tip_table, out=out)
        return self.backend.inner_terms(p, side.operand, out=out)

    def _hook(self):
        return (self.engine._chaos_newview_hooks
                if _chaos._ACTIVE is not None else None)

    def _junction(self, left: _Side, left_term: np.ndarray, right: _Side,
                  right_term: np.ndarray, out: np.ndarray,
                  out_scale: np.ndarray) -> _Side:
        """One junction ``newview`` from two propagated terms: combine,
        summed scale counts, the chaos hook, rescale."""
        self.backend.newview_combine(left_term, right_term, out=out)
        kernels.add_scale_counts(left.scale, right.scale, out_scale)
        hook = self._hook()
        if hook is not None:
            hook(out, out_scale)
        scaled = self.backend.scale_clv(out, out_scale)
        self._record_newview(_case(left.is_tip, right.is_tip), scaled)
        return _Side(out, out_scale, None,
                     left.scaled or right.scaled or scaled > 0)

    # -- accounting ------------------------------------------------------------

    def _record_newview(self, case: str, scaled: int) -> None:
        engine = self.engine
        engine.newview_calls += 1
        if engine.tracer is not None:
            engine.tracer.record_newview(
                case=case, n_patterns=engine.patterns.n_patterns,
                n_cats=self.shape[0], scaled=scaled,
            )

    # -- one stage ---------------------------------------------------------------

    def _stage(self, build: Callable[[int, np.ndarray, np.ndarray],
                                     Tuple[_Side, _Side]],
               count: int, start: Sequence[float]) -> List[float]:
        """Build ``count`` junction probes and run one Newton loop over
        them; returns the optimised lengths.

        ``build(k, clv, scale)`` computes candidate ``k``'s junction CLV
        (into ``clv`` / ``scale`` unless it keeps its own) and returns the
        Newton branch's ``(u, v)`` sides in ``branch.nodes`` order.  On
        the stacked path ``clv`` is one scratch, consumed by the sumtable
        before the next candidate; ``reference`` keeps every candidate's
        pair for its per-iteration probe.
        """
        engine = self.engine
        c, s, n = self.shape
        if self.stacked:
            model = engine.model
            stacks = self.stacks
            tables = stacks.tables[:count]
            offsets = [0.0] * count
            for k in range(count):
                u, v = build(k, self.clv, stacks.scale)
                self.backend.branch_sumtable(
                    model._right, model._left, model.pi, c, u.operand,
                    v.operand, engine._tip_table, out=tables[k],
                    work=self.work,
                )
                # makenewz's offset; all-zero counts give 0.0 exactly
                offsets[k] = 0.0 if not (u.scaled or v.scaled) else (
                    float(self.weights @ (self._scale(u) + self._scale(v)))
                    * kernels.LOG_SCALE_FACTOR)
            held = list(range(count))  # slot -> candidate
            slot = list(range(count))  # candidate -> slot

            def arrange(rows):
                # Swap the tables of ``rows`` into the leading slots — one
                # swap per row found behind them, no gathered copy, every
                # table kept for the final re-score — and evaluate them in
                # the order the stack now holds them.
                count_rows = len(rows)
                behind = [r for r in rows if slot[r] >= count_rows]
                if behind:
                    wanted = set(rows)
                    ahead = [i for i in range(count_rows)
                             if held[i] not in wanted]
                    for candidate, i in zip(behind, ahead):
                        j, other = slot[candidate], held[i]
                        self.spare[...] = tables[i]
                        tables[i] = tables[j]
                        tables[j] = self.spare
                        held[i], held[j] = candidate, other
                        slot[candidate], slot[other] = i, j
                return held[:count_rows]

            probe = engine._probe.rows(tables, offsets, stacks.work)
        else:
            pairs = []
            for k in range(count):
                u, v = build(k, np.empty(self.shape),
                             np.empty(s, dtype=np.int64))
                pairs.append((self._unpropagated(u), self._unpropagated(v),
                              self._scale(u) + self._scale(v)))

            probe, arrange = engine._explicit_rows(pairs), None
        best_t, _ = engine._newton(probe, start, self.max_iterations,
                                   arrange=arrange)
        return best_t

    def _scale(self, side: _Side) -> np.ndarray:
        return self.engine._zero_scale if side.is_tip else side.scale

    def _unpropagated(self, side: _Side) -> np.ndarray:
        """A side as the explicit-derivative probe reads it (a tip as its
        broadcast indicator CLV)."""
        return self.engine._tip_clv(side.node) if side.is_tip \
            else side.operand

    # -- one stack ---------------------------------------------------------------

    def score(self, targets: Sequence[Branch]) -> List[InsertionScore]:
        count = len(targets)
        a_sides = [self._side(t.nodes[0], t) for t in targets]
        b_sides = [self._side(t.nodes[1], t) for t in targets]
        halves = [max(t.length / 2.0, MIN_BRANCH_LENGTH) for t in targets]
        sub, sub_term = self.subtree, self.subtree_term
        work, terms, scales = self.work, self.stacks.terms, self.stacks.scales

        def a_side(k, clv, scale):
            b = b_sides[k]
            return a_sides[k], self._junction(
                b, self._propagate(b, halves[k], work), sub, sub_term, clv,
                scale)

        t_a = self._stage(a_side, count, halves)

        def b_side(k, clv, scale):
            a = a_sides[k]
            return self._junction(
                a, self._propagate(a, t_a[k], terms[k]), sub, sub_term, clv,
                scale), b_sides[k]

        t_b = self._stage(b_side, count, halves)

        def connect(k, clv, scale):
            # The a-side term is stage 2's; the junction replaces it.
            b = b_sides[k]
            return self._junction(
                a_sides[k], terms[k], b, self._propagate(b, t_b[k], work),
                terms[k], scales[k]), sub

        t_c = self._stage(connect, count, [self.connect] * count)
        return [
            InsertionScore(self._evaluate(terms[k], scales[k], lengths[2]),
                           *lengths)
            for k, lengths in enumerate(zip(t_a, t_b, t_c))
        ]

    def _evaluate(self, junction: np.ndarray, junction_scale: np.ndarray,
                  t_connect: float) -> float:
        """``evaluate`` at the connect branch ``(j, r)``: a tip root is
        the unpropagated side, otherwise the junction is."""
        engine, sub = self.engine, self.subtree
        if sub.is_tip:
            u_clv, u_sc = engine._tip_clv(sub.node), engine._zero_scale
            v_term = self._propagate(
                _Side(junction, junction_scale, sub.node), t_connect,
                self.work)
            v_sc = junction_scale
        else:
            u_clv, u_sc = junction, junction_scale
            v_term = self._propagate(sub, t_connect, self.work)
            v_sc = sub.scale
        result = self.backend.evaluate_loglik(
            engine.model.pi, engine._cat_weights, self.weights, u_clv,
            v_term, u_sc + v_sc,
        )
        if not np.isfinite(result):
            raise FloatingPointError(
                f"non-finite log likelihood: {result!r}")
        engine.evaluate_calls += 1
        if engine.tracer is not None:
            engine.tracer.record_evaluate(
                n_patterns=engine.patterns.n_patterns, n_cats=self.shape[0])
        return result


def score_insertions(
    engine,
    subtree_root: Node,
    targets: Sequence[Branch],
    connect_length: float,
    max_iterations: int = 32,
) -> List[InsertionScore]:
    """Score regrafting the pruned subtree at ``subtree_root`` into the
    leading ``targets`` (branches of the pruned tree), as many as one
    candidate stack holds and at least one: one :class:`InsertionScore`
    per target scored, in order.  The caller guards it
    (:meth:`LikelihoodEngine.score_insertions`)."""
    context = engine._push_context("makenewz")
    try:
        scorer = _Scorer(engine, subtree_root, connect_length,
                         max_iterations)
        return scorer.score(targets[:scorer.stacks.capacity])
    finally:
        engine._pop_context(context)
