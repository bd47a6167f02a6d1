"""Unrooted binary phylogenetic trees.

Trees are stored as explicit node/branch graphs: tips have degree one,
inner nodes degree three, so a tree over ``n`` taxa has ``n - 2`` inner
nodes and ``2n - 3`` branches.  Branch objects carry a never-reused
integer id; topology edits *retire* old branches and create new ones, and
registered observers are told about every retirement or length change.
The likelihood engine uses that protocol to invalidate exactly the
conditional-likelihood vectors whose subtree was touched — the same lazy
recomputation discipline that keeps RAxML's ``newview()`` call count (the
paper reports 230,500 calls for one ``42_SC`` inference) far below a
recompute-everything strategy.

Supported edits are the two used by RAxML's rapid hill climbing: NNI
(nearest-neighbour interchange) and SPR (subtree pruning and regrafting).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = ["Node", "Branch", "Tree", "robinson_foulds"]

#: Smallest / largest branch lengths ever stored (RAxML uses comparable
#: clamps to keep the likelihood finite).
MIN_BRANCH_LENGTH = 1e-8
MAX_BRANCH_LENGTH = 50.0


class Node:
    """A vertex of the tree: a tip (named, degree 1) or inner node."""

    __slots__ = ("index", "name", "branches")

    def __init__(self, index: int, name: Optional[str] = None):
        self.index = index
        self.name = name
        self.branches: List["Branch"] = []

    @property
    def is_tip(self) -> bool:
        return self.name is not None

    @property
    def degree(self) -> int:
        return len(self.branches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name if self.is_tip else f"inner{self.index}"
        return f"<Node {label} deg={self.degree}>"


class Branch:
    """An edge with a length; ids are unique and never reused."""

    __slots__ = ("index", "_nodes", "_length", "retired")

    def __init__(self, index: int, a: Node, b: Node, length: float):
        self.index = index
        self._nodes = (a, b)
        self._length = float(length)
        self.retired = False

    @property
    def nodes(self) -> Tuple[Node, Node]:
        return self._nodes

    @property
    def length(self) -> float:
        return self._length

    def other(self, node: Node) -> Node:
        a, b = self._nodes
        if node is a:
            return b
        if node is b:
            return a
        raise ValueError("node is not an endpoint of this branch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        a, b = self._nodes
        return f"<Branch {self.index} {a.index}-{b.index} len={self._length:.4g}>"


class Tree:
    """A mutable unrooted binary tree over named tips.

    Observers registered via :meth:`add_observer` receive
    ``callback(branch_id)`` whenever a branch is retired (removed from the
    topology) or its length changes; a cached quantity that depends on
    that branch is then stale.
    """

    def __init__(self) -> None:
        self._nodes: List[Node] = []
        self._branches: Dict[int, Branch] = {}
        self._next_node = 0
        self._next_branch = 0
        self._observers: List[Callable[[int], None]] = []
        self.revision = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tip_names(cls, names: Sequence[str], rng: Optional[np.random.Generator] = None,
                       mean_branch_length: float = 0.1) -> "Tree":
        """A random topology by sequential random taxon addition."""
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate taxon names")
        if len(names) < 3:
            raise ValueError("an unrooted tree needs at least 3 taxa")
        rng = rng or np.random.default_rng()

        def draw() -> float:
            return float(rng.exponential(mean_branch_length)) + MIN_BRANCH_LENGTH

        tree = cls()
        order = list(names)
        rng.shuffle(order)
        tips = [tree._new_node(n) for n in order[:3]]
        center = tree._new_node()
        for t in tips:
            tree._new_branch(t, center, draw())
        for name in order[3:]:
            target = tree.branches[rng.integers(len(tree.branches))]
            tree.attach_tip(name, target, draw(), draw())
        tree.validate()
        return tree

    @classmethod
    def from_newick(cls, text: str) -> "Tree":
        """Parse a newick string into an unrooted tree.

        A rooted (bifurcating-root) input is unrooted by suppressing the
        root node and merging its two incident edges.
        """
        parser = _NewickParser(text)
        tree = cls()
        root_children = parser.parse()

        def build(item) -> Tuple[Node, float]:
            name, length, children = item
            if not children:
                if not name:
                    raise ValueError("newick tip without a name")
                return tree._new_node(name), length
            node = tree._new_node()
            if len(children) == 1:
                raise ValueError("unary (degree-2) newick node not supported")
            for child in children:
                child_node, child_len = build(child)
                tree._new_branch(node, child_node, child_len)
            return node, length

        if len(root_children) < 2:
            raise ValueError("newick root must have at least two children")
        if len(root_children) == 2:
            # Rooted input: connect the two root subtrees directly.
            left, llen = build(root_children[0])
            right, rlen = build(root_children[1])
            tree._new_branch(left, right, llen + rlen)
        else:
            root = tree._new_node()
            for child in root_children:
                child_node, child_len = build(child)
                tree._new_branch(root, child_node, child_len)
        tree.validate()
        return tree

    # -- observers ----------------------------------------------------------

    def add_observer(self, callback: Callable[[int], None]) -> None:
        """Register a callback invoked with each dirtied branch id."""
        self._observers.append(callback)

    def remove_observer(self, callback: Callable[[int], None]) -> None:
        self._observers.remove(callback)

    def _notify(self, branch_id: int) -> None:
        for cb in self._observers:
            cb(branch_id)

    # -- primitive graph edits ----------------------------------------------

    def _new_node(self, name: Optional[str] = None) -> Node:
        node = Node(self._next_node, name)
        self._next_node += 1
        self._nodes.append(node)
        return node

    def _new_branch(self, a: Node, b: Node, length: float) -> Branch:
        length = min(max(length, MIN_BRANCH_LENGTH), MAX_BRANCH_LENGTH)
        branch = Branch(self._next_branch, a, b, length)
        self._next_branch += 1
        self._branches[branch.index] = branch
        a.branches.append(branch)
        b.branches.append(branch)
        self.revision += 1
        return branch

    def _retire_branch(self, branch: Branch) -> None:
        if branch.retired:
            raise ValueError("branch already retired")
        branch.retired = True
        del self._branches[branch.index]
        for node in branch.nodes:
            node.branches.remove(branch)
        self.revision += 1
        self._notify(branch.index)

    def _drop_node(self, node: Node) -> None:
        if node.branches:
            raise ValueError("cannot drop a connected node")
        self._nodes.remove(node)

    # -- accessors ------------------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes)

    @property
    def branches(self) -> List[Branch]:
        return list(self._branches.values())

    @property
    def tips(self) -> List[Node]:
        return [n for n in self._nodes if n.is_tip]

    @property
    def inner_nodes(self) -> List[Node]:
        return [n for n in self._nodes if not n.is_tip]

    @property
    def n_tips(self) -> int:
        return sum(1 for n in self._nodes if n.is_tip)

    def tip_names(self) -> List[str]:
        return sorted(n.name for n in self._nodes if n.is_tip)

    def find_tip(self, name: str) -> Node:
        for node in self._nodes:
            if node.name == name:
                return node
        raise KeyError(f"no tip named {name!r}")

    def branch_by_id(self, branch_id: int) -> Branch:
        return self._branches[branch_id]

    def has_branch(self, branch_id: int) -> bool:
        """False once the id is retired: how an observer tells a length
        change from a retirement."""
        return branch_id in self._branches

    def total_length(self) -> float:
        """Sum of all branch lengths (the 'tree length')."""
        return sum(b.length for b in self._branches.values())

    def set_length(self, branch: Branch, length: float) -> None:
        """Change a branch length (clamped), notifying observers."""
        if branch.retired:
            raise ValueError("cannot set length of a retired branch")
        length = min(max(float(length), MIN_BRANCH_LENGTH), MAX_BRANCH_LENGTH)
        if length != branch._length:
            branch._length = length
            self.revision += 1
            self._notify(branch.index)

    # -- traversal -------------------------------------------------------------

    def postorder(self, node: Node, entry: Optional[Branch] = None
                  ) -> List[Tuple[Node, Optional[Branch]]]:
        """Post-order traversal of the subtree at *node* away from *entry*.

        Yields ``(node, entry_branch)`` pairs, children before parents.
        With ``entry=None`` the whole tree is traversed from *node*.
        """
        out: List[Tuple[Node, Optional[Branch]]] = []
        stack: List[Tuple[Node, Optional[Branch], bool]] = [(node, entry, False)]
        while stack:
            current, came_from, expanded = stack.pop()
            if expanded:
                out.append((current, came_from))
                continue
            stack.append((current, came_from, True))
            for branch in current.branches:
                if branch is not came_from:
                    stack.append((branch.other(current), branch, False))
        return out

    def subtree_branches(self, node: Node, entry: Branch) -> Set[int]:
        """Ids of all branches in the subtree at *node* away from *entry*."""
        ids: Set[int] = set()
        stack = [(node, entry)]
        while stack:
            current, came_from = stack.pop()
            for branch in current.branches:
                if branch is not came_from:
                    ids.add(branch.index)
                    stack.append((branch.other(current), branch))
        return ids

    def subtree_tips(self, node: Node, entry: Branch) -> Set[str]:
        """Tip names in the subtree at *node* away from *entry*."""
        names: Set[str] = set()
        stack = [(node, entry)]
        while stack:
            current, came_from = stack.pop()
            if current.is_tip:
                names.add(current.name)
            for branch in current.branches:
                if branch is not came_from:
                    stack.append((branch.other(current), branch))
        return names

    def path_between(self, a: Node, b: Node) -> List[Branch]:
        """The unique branch path from *a* to *b*."""
        parent: Dict[int, Tuple[Node, Branch]] = {}
        stack = [a]
        seen = {a.index}
        while stack:
            current = stack.pop()
            if current is b:
                break
            for branch in current.branches:
                nxt = branch.other(current)
                if nxt.index not in seen:
                    seen.add(nxt.index)
                    parent[nxt.index] = (current, branch)
                    stack.append(nxt)
        if b.index not in parent and a is not b:
            raise ValueError("nodes are not connected")
        path: List[Branch] = []
        current = b
        while current is not a:
            prev, branch = parent[current.index]
            path.append(branch)
            current = prev
        path.reverse()
        return path

    # -- topology edits ----------------------------------------------------------

    def attach_tip(self, name: str, target: Branch, tip_length: float,
                   split_at: Optional[float] = None) -> Node:
        """Attach a new tip in the middle of *target* (stepwise addition).

        The target branch is split by a fresh inner node; its length is
        divided evenly unless *split_at* gives the portion assigned to the
        first endpoint.  Returns the new tip node.
        """
        a, b = target.nodes
        old_len = target.length
        first = old_len / 2.0 if split_at is None else float(split_at)
        first = min(max(first, MIN_BRANCH_LENGTH), max(old_len - MIN_BRANCH_LENGTH, MIN_BRANCH_LENGTH))
        self._retire_branch(target)
        junction = self._new_node()
        tip = self._new_node(name)
        self._new_branch(a, junction, first)
        self._new_branch(junction, b, max(old_len - first, MIN_BRANCH_LENGTH))
        self._new_branch(junction, tip, tip_length)
        return tip

    def remove_tip(self, tip: Node) -> None:
        """Detach a tip and suppress the degree-2 node left behind."""
        if not tip.is_tip:
            raise ValueError("remove_tip needs a tip node")
        if self.n_tips <= 3:
            raise ValueError("cannot shrink below 3 tips")
        (tip_branch,) = tip.branches
        junction = tip_branch.other(tip)
        self._retire_branch(tip_branch)
        self._drop_node(tip)
        self._suppress_degree2(junction)

    def _suppress_degree2(self, node: Node) -> None:
        """Replace a degree-2 inner node by a single merged branch."""
        if node.is_tip or node.degree != 2:
            raise ValueError("can only suppress an inner node of degree 2")
        b1, b2 = node.branches
        a = b1.other(node)
        b = b2.other(node)
        merged_len = b1.length + b2.length
        self._retire_branch(b1)
        self._retire_branch(b2)
        self._drop_node(node)
        self._new_branch(a, b, merged_len)

    def prune_subtree(self, branch: Branch, keep_side: Node) -> Tuple[Node, float]:
        """Cut *branch*, detaching the subtree on the far side of *keep_side*.

        Returns ``(subtree_root, old_branch_length)``.  The degree-2 node
        left on the kept side is suppressed.  The pruned part keeps its
        internal structure and dangles from ``subtree_root``.
        """
        moved_root = branch.other(keep_side)
        old_len = branch.length
        attach_node = keep_side
        if attach_node.is_tip or attach_node.degree - 1 != 2:
            raise ValueError(
                "pruning here would not leave a suppressible junction; "
                "choose a branch whose kept endpoint is an inner node"
            )
        self._retire_branch(branch)
        self._suppress_degree2(attach_node)
        return moved_root, old_len

    def regraft_subtree(self, subtree_root: Node, target: Branch,
                        connect_length: float) -> Branch:
        """Re-insert a dangling subtree into the middle of *target*.

        Returns the new branch connecting the subtree to the tree.
        """
        a, b = target.nodes
        half = target.length / 2.0
        self._retire_branch(target)
        junction = self._new_node()
        self._new_branch(a, junction, max(half, MIN_BRANCH_LENGTH))
        self._new_branch(junction, b, max(half, MIN_BRANCH_LENGTH))
        return self._new_branch(junction, subtree_root, connect_length)

    def spr(self, prune_branch: Branch, keep_side: Node, target: Branch) -> Branch:
        """Subtree-pruning-and-regrafting in one step.

        The subtree on the far side of *keep_side* across *prune_branch*
        is moved into the middle of *target*.  *target* must lie in the
        kept part of the tree and must not be incident to *keep_side*.
        Returns the new connecting branch.
        """
        moved_root = prune_branch.other(keep_side)
        if target is prune_branch:
            raise ValueError("target equals the pruned branch")
        if keep_side in target.nodes:
            raise ValueError("target adjacent to the prune point is a no-op")
        if target.index in self.subtree_branches(moved_root, prune_branch):
            raise ValueError("target lies inside the pruned subtree")
        subtree_root, old_len = self.prune_subtree(prune_branch, keep_side)
        return self.regraft_subtree(subtree_root, target, old_len)

    def nni(self, branch: Branch, variant: int = 0) -> None:
        """Nearest-neighbour interchange around an internal *branch*.

        Each internal branch admits two alternative topologies
        (``variant`` 0 or 1), produced by swapping one subtree of each
        endpoint.
        """
        u, v = branch.nodes
        if u.is_tip or v.is_tip:
            raise ValueError("NNI requires an internal branch")
        u_sides = [b for b in u.branches if b is not branch]
        v_sides = [b for b in v.branches if b is not branch]
        bu = u_sides[0]
        bv = v_sides[variant % 2]
        su, sv = bu.other(u), bv.other(v)
        lu, lv = bu.length, bv.length
        self._retire_branch(bu)
        self._retire_branch(bv)
        self._new_branch(u, sv, lv)
        self._new_branch(v, su, lu)

    # -- bipartitions and distances ------------------------------------------------

    def bipartitions(self) -> Set[FrozenSet[str]]:
        """Non-trivial bipartitions, each as the tip-name side not
        containing the lexicographically smallest taxon (canonical)."""
        all_names = frozenset(self.tip_names())
        anchor = min(all_names)
        splits: Set[FrozenSet[str]] = set()
        for branch in self._branches.values():
            a, b = branch.nodes
            side = frozenset(self.subtree_tips(a, branch))
            if len(side) < 2 or len(side) > len(all_names) - 2:
                continue  # trivial split
            if anchor in side:
                side = all_names - side
            splits.add(side)
        return splits

    # -- serialization ------------------------------------------------------------

    def to_newick(self, include_lengths: bool = True, digits: int = 6) -> str:
        """Serialize as newick with a trifurcating root at an inner node."""
        root = next((n for n in self._nodes if not n.is_tip), None)

        def fmt(length: float) -> str:
            return f":{length:.{digits}g}" if include_lengths else ""

        if root is None:
            # Degenerate 2-tip tree (only via manual construction).
            a, b = self._nodes
            branch = a.branches[0]
            return f"({a.name}{fmt(branch.length)},{b.name}{fmt(branch.length)});"

        def render(node: Node, entry: Branch) -> str:
            if node.is_tip:
                return f"{node.name}{fmt(entry.length)}"
            parts = [render(b.other(node), b) for b in node.branches if b is not entry]
            return f"({','.join(parts)}){fmt(entry.length)}"

        parts = [render(b.other(root), b) for b in root.branches]
        return f"({','.join(parts)});"

    def copy(self) -> "Tree":
        """A structurally independent deep copy (fresh ids, no observers)."""
        return Tree.from_newick(self.to_newick(digits=17))

    # -- validation ------------------------------------------------------------------

    def validate(self) -> None:
        """Assert structural invariants; raises ``ValueError`` on breakage."""
        n_tips = self.n_tips
        if n_tips < 2:
            raise ValueError("tree needs at least 2 tips")
        for node in self._nodes:
            expected = 1 if node.is_tip else 3
            if node.degree != expected:
                raise ValueError(
                    f"node {node!r} has degree {node.degree}, expected {expected}"
                )
        expected_branches = 2 * n_tips - 3 if n_tips >= 3 else 1
        if len(self._branches) != expected_branches:
            raise ValueError(
                f"{len(self._branches)} branches for {n_tips} tips "
                f"(expected {expected_branches})"
            )
        # Connectivity: a traversal from any node must reach every node.
        reached = {n.index for n, _ in self.postorder(self._nodes[0])}
        if len(reached) != len(self._nodes):
            raise ValueError("tree is not connected")
        for branch in self._branches.values():
            if not (MIN_BRANCH_LENGTH <= branch.length <= MAX_BRANCH_LENGTH):
                raise ValueError(f"branch length out of range: {branch!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tree tips={self.n_tips} branches={len(self._branches)}>"


def robinson_foulds(a: Tree, b: Tree, normalized: bool = False) -> float:
    """Robinson-Foulds distance: bipartitions present in exactly one tree.

    With ``normalized=True`` the count is divided by the maximum possible
    ``2 (n - 3)``, giving a value in ``[0, 1]``.
    """
    if a.tip_names() != b.tip_names():
        raise ValueError("trees are over different taxon sets")
    sa, sb = a.bipartitions(), b.bipartitions()
    distance = len(sa ^ sb)
    if not normalized:
        return float(distance)
    denom = 2.0 * (a.n_tips - 3)
    return distance / denom if denom > 0 else 0.0


class _NewickParser:
    """Recursive-descent parser for a practical newick subset.

    Supports nesting, names (unquoted, ``[A-Za-z0-9_.|-]``), branch
    lengths after ``:``, and a trailing semicolon.  Comments in square
    brackets are stripped.
    """

    def __init__(self, text: str):
        self.text = self._strip_comments(text.strip())
        self.pos = 0

    @staticmethod
    def _strip_comments(text: str) -> str:
        out, depth = [], 0
        for ch in text:
            if ch == "[":
                depth += 1
            elif ch == "]":
                if depth == 0:
                    raise ValueError("unbalanced ']' in newick")
                depth -= 1
            elif depth == 0:
                out.append(ch)
        if depth:
            raise ValueError("unbalanced '[' in newick")
        return "".join(out)

    def parse(self):
        if not self.text.startswith("("):
            raise ValueError("newick must start with '('")
        _name, _length, children = self._parse_clade()
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ";":
            self.pos += 1
        self._skip_ws()
        if self.pos != len(self.text):
            raise ValueError(f"trailing characters in newick: {self.text[self.pos:]!r}")
        return children

    def _parse_clade(self):
        self._skip_ws()
        children = []
        if self._peek() == "(":
            self.pos += 1
            while True:
                children.append(self._parse_clade())
                self._skip_ws()
                ch = self._peek()
                if ch == ",":
                    self.pos += 1
                elif ch == ")":
                    self.pos += 1
                    break
                else:
                    raise ValueError(f"expected ',' or ')' at position {self.pos}")
        name = self._parse_name()
        length = self._parse_length()
        return name, length, children

    def _peek(self) -> str:
        if self.pos >= len(self.text):
            raise ValueError("unexpected end of newick input")
        return self.text[self.pos]

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _parse_name(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_.|-+#"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def _parse_length(self) -> float:
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ":":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isdigit() or self.text[self.pos] in ".eE+-"
            ):
                self.pos += 1
            try:
                return float(self.text[start : self.pos])
            except ValueError:
                raise ValueError(
                    f"bad branch length at position {start}: "
                    f"{self.text[start:self.pos]!r}"
                ) from None
        return 0.05  # default length for inputs without lengths
