"""Rapid hill-climbing tree search (lazy SPR), after RAxML-VI-HPC.

The search loop mirrors the structure of RAxML's rapid hill climbing:

1. Smooth all branch lengths on the starting tree (``makenewz`` passes).
2. Repeatedly sweep over every subtree: prune it, try re-insertions into
   all branches within a *rearrangement radius* of the pruning point,
   and score each insertion **lazily** — only the three branches around
   the insertion junction are Newton-optimized before evaluating.  The
   neighbourhood is scored while the subtree is pruned, as many targets
   per engine call as one candidate stack holds — all of them on small
   alignments (:meth:`LikelihoodEngine.score_insertions`, DESIGN §7.7).
3. Walk the scored targets in order, applying and reverting each SPR as
   if it had been scored there: commit the first move that improves the
   best log likelihood (first improvement, continuing the sweep on the
   improved tree) with its three optimized lengths, otherwise revert it
   exactly (topology and branch lengths).  The walk does no kernel work
   beyond asking, at the prune of a target not yet scored, for the next
   stack of scores; it keeps the branch ids and orders a per-candidate
   search would leave,
   because those decide the next neighbourhoods and every smoothing order.
4. After a sweep with no improvement, enlarge the radius once; stop when
   the maximal radius also yields nothing.

Every likelihood operation flows through the
:class:`~repro.phylo.engine.LikelihoodEngine`, so an attached tracer
observes the realistic ``newview``/``makenewz``/``evaluate`` mix that the
Cell-platform simulation replays (per scored insertion: three junction
CLVs by ``newview``, three ``makenewz`` and one ``evaluate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .engine import LikelihoodEngine
from .tree import Branch, Node, Tree

__all__ = ["SearchConfig", "SearchResult", "hill_climb", "spr_neighborhood"]


@dataclass(frozen=True)
class SearchConfig:
    """Tunable effort knobs of the hill-climbing search.

    The defaults are sized for the reproduction's synthetic ``42_SC``
    runs; tests use smaller values.  ``epsilon`` is the minimum log
    likelihood gain for a move to be accepted (RAxML's likelihood
    epsilon).
    """

    initial_radius: int = 3
    max_radius: int = 6
    max_rounds: int = 10
    smoothing_passes: int = 2
    final_smoothing_passes: int = 4
    epsilon: float = 0.01
    local_branch_iterations: int = 8


@dataclass
class SearchResult:
    """Outcome of one hill-climbing search."""

    log_likelihood: float
    newick: str
    rounds: int
    accepted_moves: int
    evaluated_moves: int


def spr_neighborhood(
    tree: Tree, prune_branch: Branch, keep_side: Node, radius: int
) -> List[Branch]:
    """Regraft targets within *radius* branches of the pruning point.

    Breadth-first over the kept part of the tree, excluding the pruned
    subtree, the pruned branch itself, and the two branches incident to
    the junction (re-inserting there is a no-op).
    """
    moved_root = prune_branch.other(keep_side)
    excluded = tree.subtree_branches(moved_root, prune_branch)
    excluded.add(prune_branch.index)

    targets: List[Branch] = []
    seen = {b.index for b in keep_side.branches} | {prune_branch.index}
    frontier: List[Tuple[Branch, int]] = []
    for b in keep_side.branches:
        if b is prune_branch:
            continue
        far = b.other(keep_side)
        for nxt in far.branches:
            if nxt.index not in seen and nxt.index not in excluded:
                seen.add(nxt.index)
                frontier.append((nxt, 1))
    while frontier:
        branch, depth = frontier.pop(0)
        targets.append(branch)
        if depth >= radius:
            continue
        for endpoint in branch.nodes:
            for nxt in endpoint.branches:
                if nxt.index not in seen and nxt.index not in excluded:
                    seen.add(nxt.index)
                    frontier.append((nxt, depth + 1))
    return targets


@dataclass
class _AppliedMove:
    """Bookkeeping to exactly undo one SPR move.

    ``connect_branch`` is the branch the regraft created; by construction
    (:meth:`Tree.regraft_subtree`) its ``nodes[0]`` is the fresh junction
    and ``nodes[1]`` the moved subtree's root.
    """

    connect_branch: Branch
    origin_x: Node
    origin_y: Node
    length_x: float
    length_y: float
    length_sub: float
    target_x: Node
    target_y: Node
    target_length: float

    @property
    def junction(self) -> Node:
        return self.connect_branch.nodes[0]

    @property
    def subtree_root(self) -> Node:
        return self.connect_branch.nodes[1]


def _apply_spr(tree: Tree, prune_branch: Branch, keep_side: Node,
               target: Branch,
               on_pruned: Optional[Callable[[Node, float], None]] = None,
               ) -> _AppliedMove:
    """Perform an SPR while recording everything needed to revert it.

    ``on_pruned(subtree_root, connect_length)``, when given, runs between
    the prune and the regraft, while the subtree dangles.
    """
    bx, by = [b for b in keep_side.branches if b is not prune_branch]
    tx, ty = target.nodes
    origin_x = bx.other(keep_side)
    origin_y = by.other(keep_side)
    length_x, length_y = bx.length, by.length
    length_sub = prune_branch.length
    target_length = target.length
    subtree_root, _ = tree.prune_subtree(prune_branch, keep_side)
    if on_pruned is not None:
        on_pruned(subtree_root, length_sub)
    connect = tree.regraft_subtree(subtree_root, target, length_sub)
    return _AppliedMove(
        connect_branch=connect,
        origin_x=origin_x,
        origin_y=origin_y,
        length_x=length_x,
        length_y=length_y,
        length_sub=length_sub,
        target_x=tx,
        target_y=ty,
        target_length=target_length,
    )


def _revert_spr(tree: Tree, move: _AppliedMove) -> Branch:
    """Move the subtree back and restore every original branch length.

    Returns the recreated prune branch (geometrically identical to the
    one the move consumed, but with a fresh id): ``nodes[0]`` is the
    recreated junction, ``nodes[1]`` the subtree root.
    """
    subtree_root = move.subtree_root
    tree.prune_subtree(move.connect_branch, keep_side=move.junction)
    # The prune re-merged the split target branch; restore its length
    # (the lazy scoring may have optimized the two halves).
    restored_target = _find_branch(tree, move.target_x, move.target_y)
    tree.set_length(restored_target, move.target_length)
    # Re-insert at the original location and restore the three lengths
    # around the re-created junction.
    merged = _find_branch(tree, move.origin_x, move.origin_y)
    new_connect = tree.regraft_subtree(subtree_root, merged, move.length_sub)
    new_junction = new_connect.nodes[0]
    for branch in new_junction.branches:
        far = branch.other(new_junction)
        if far is subtree_root:
            tree.set_length(branch, move.length_sub)
        elif far is move.origin_x:
            tree.set_length(branch, move.length_x)
        elif far is move.origin_y:
            tree.set_length(branch, move.length_y)
    return new_connect


def _find_branch(tree: Tree, a: Node, b: Node) -> Branch:
    for branch in a.branches:
        if branch.other(a) is b:
            return branch
    raise ValueError("expected a direct branch between the given nodes")


def hill_climb(
    engine: LikelihoodEngine,
    config: Optional[SearchConfig] = None,
    rng: Optional[np.random.Generator] = None,
    cancel=None,
) -> SearchResult:
    """Run lazy-SPR hill climbing on the engine's tree (modified in place).

    ``cancel`` is an optional cooperative cancellation token (any
    object with a ``check()`` method that raises to unwind, e.g.
    :class:`repro.cluster.cancel.CancelToken`).  It is polled at safe
    points — round boundaries and between candidate prune branches —
    so a deadline or drain never interrupts a kernel mid-operation.
    A cancelled search discards the replicate entirely; partial search
    state is never observable upstream.
    """
    config = config or SearchConfig()
    rng = rng or np.random.default_rng()
    tree = engine.tree

    best = engine.optimize_all_branches(passes=config.smoothing_passes)
    radius = config.initial_radius
    rounds = 0
    accepted = 0
    evaluated = 0

    while rounds < config.max_rounds:
        if cancel is not None:
            cancel.check()
        rounds += 1
        improved_this_round = False

        # Snapshot candidate prune branches by id.  The walk below applies
        # and reverts each target up to the first accepted one, and each
        # try retires ids — its prune branch, both origin branches and
        # the split target come back under fresh ones — so a listed
        # branch that any try has touched is skipped, and most of the
        # list is gone after the first few neighbourhoods.  Those ids,
        # and the order of ``tree.branches`` they leave behind, decide
        # the next snapshot and every smoothing order: the walk must
        # replay them even though the scores come from the pruned tree
        # (ROADMAP, search-quality open item).
        candidate_ids = [b.index for b in tree.branches]
        rng.shuffle(candidate_ids)
        for branch_id in candidate_ids:
            if cancel is not None:
                cancel.check()
            try:
                prune_branch = tree.branch_by_id(branch_id)
            except KeyError:
                continue  # retired by an earlier try, accepted or not
            accepted_here = False
            for side in (0, 1):
                keep_side = prune_branch.nodes[side]
                if keep_side.is_tip:
                    continue
                targets = spr_neighborhood(tree, prune_branch, keep_side, radius)
                scores = []

                def score(subtree_root: Node, connect_length: float) -> None:
                    # Lazy scoring while the subtree is pruned: only the
                    # three branches at each new junction are optimized
                    # before evaluating there.  One call scores as many
                    # of the targets left as one candidate stack holds.
                    scores.extend(engine.score_insertions(
                        subtree_root, targets[len(scores):], connect_length,
                        max_iterations=config.local_branch_iterations,
                    ))

                for index, target in enumerate(targets):
                    unscored = index == len(scores)
                    move = _apply_spr(tree, prune_branch, keep_side, target,
                                      on_pruned=score if unscored else None)
                    lnl, *lengths = scores[index]
                    evaluated += 1
                    if lnl > best + config.epsilon:
                        for branch, length in zip(
                                list(move.junction.branches), lengths):
                            tree.set_length(branch, length)
                        best = lnl
                        accepted += 1
                        improved_this_round = True
                        accepted_here = True
                        break
                    # Rejected: restore the tree; the prune branch comes
                    # back under a fresh id with swapped node order
                    # (junction first), so re-anchor keep_side by index.
                    prune_branch = _revert_spr(tree, move)
                    keep_side = prune_branch.nodes[0]
                if accepted_here:
                    break  # this prune branch was retired by the commit

        best = engine.optimize_all_branches(passes=config.smoothing_passes)
        if not improved_this_round:
            if radius < config.max_radius:
                radius = config.max_radius
            else:
                break

    best = engine.optimize_all_branches(passes=config.final_smoothing_passes)
    return SearchResult(
        log_likelihood=best,
        newick=tree.to_newick(),
        rounds=rounds,
        accepted_moves=accepted,
        evaluated_moves=evaluated,
    )
