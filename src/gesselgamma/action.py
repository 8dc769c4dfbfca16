"""A Foata-Strehl style action on Gessel trees.

Call an x-leaf balanced when its vertex also has a y-leaf (and vice
versa).  The local flip psi_i swaps the first and last children of vertex
i when that vertex carries an unbalanced y-leaf, moving the leaf to the
x side; the two-sided variant ``toggle`` flips whenever the vertex has an
unbalanced leaf on either side, and is an involution.

A tree is canonical when no vertex has an unbalanced y-leaf.  Flipping
every unbalanced-y vertex of a tree reaches the unique canonical member
of its orbit; the orbit itself consists of the trees obtained from the
canonical representative by flipping any subset of its unbalanced-x
vertices, hence has size 2^uxleaf.

Pruning a tree removes its x- and y-leaves and remembers what was lost as
a vertex label: nothing for a vertex that had neither, ``y`` when only a
y-leaf was removed, ``v`` when only an x-leaf, and ``u`` when both.  A
canonical tree has no ``y`` labels and carries the weight u^#u * v^#v.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator

from .errors import DomainError, NotCanonicalError, OrbitTooLargeError
from .multiset import Multiset
from .stirling import enumerate_stirling
from .trees import (
    GesselTree,
    Internal,
    Leaf,
    LeafCensus,
    Node,
    gessel_forward,
    leaf_census,
    render_tree,
)

# Members x K: the letters an orbit's members spell.  Building, hashing and
# printing a member each cost O(K), so this bounds the work of ``orbit``.
ORBIT_COST_CAP = 250_000


class BalanceStatus(str, Enum):
    NO_XY = "no-xy-leaf"
    BALANCED = "balanced-pair"
    UNBALANCED_X = "unbalanced-x"
    UNBALANCED_Y = "unbalanced-y"


@dataclass(frozen=True)
class BalanceReport:
    """Per-vertex balance classification with the four summary counts."""

    status: dict[int, BalanceStatus]
    uxleaf: int
    bxleaf: int
    uyleaf: int

    def vertices_with(self, status: BalanceStatus) -> list[int]:
        return sorted(v for v, st in self.status.items() if st is status)


_STATUS_BY_FLAGS = {
    (False, False): BalanceStatus.NO_XY,
    (True, True): BalanceStatus.BALANCED,
    (True, False): BalanceStatus.UNBALANCED_X,
    (False, True): BalanceStatus.UNBALANCED_Y,
}


def balance_report(t: GesselTree) -> BalanceReport:
    return balance_from_census(leaf_census(t))


def balance_from_census(census: LeafCensus) -> BalanceReport:
    """The balance report of the tree whose leaf census this is."""
    status = {
        label: _STATUS_BY_FLAGS[(has_x, has_y)]
        for label, (has_x, has_y, _) in census.per_vertex.items()
    }
    statuses = list(status.values())
    return BalanceReport(
        status=status,
        uxleaf=statuses.count(BalanceStatus.UNBALANCED_X),
        bxleaf=statuses.count(BalanceStatus.BALANCED),
        uyleaf=statuses.count(BalanceStatus.UNBALANCED_Y),
    )


def _swap_ends_at(node: Node, i: int) -> Node:
    """Swap the first and last children of the vertex labelled i.

    Only the path down to vertex i is rebuilt; without a vertex i the
    input is returned as it is.
    """
    stack: list[tuple[Node, tuple | None]] = [(node, None)]
    while stack:
        v, up = stack.pop()  # up: (parent, position in it, parent's up), or None
        if type(v) is Internal:
            if v.label == i:
                break
            stack.extend((c, (v, pos, up)) for pos, c in enumerate(v.children))
    else:
        return node
    ch = list(v.children)
    ch[0], ch[-1] = ch[-1], ch[0]
    new = Internal(i, tuple(ch))
    while up is not None:
        parent, pos, up = up
        ch = list(parent.children)
        ch[pos] = new
        new = Internal(parent.label, tuple(ch))
    return new


def _require_vertex(t: GesselTree, i: int) -> None:
    if not 1 <= i <= t.multiset.n:
        raise DomainError(f"vertex {i} is not in the tree over {{{t.multiset}}}")


def psi(t: GesselTree, i: int) -> GesselTree:
    """Flip vertex i if it has an unbalanced y-leaf; otherwise the identity."""
    _require_vertex(t, i)
    if balance_report(t).status[i] is BalanceStatus.UNBALANCED_Y:
        return GesselTree(_swap_ends_at(t.root, i), t.multiset)
    return t


def toggle(t: GesselTree, i: int) -> GesselTree:
    """Flip vertex i if it has an unbalanced leaf on either side (an involution)."""
    _require_vertex(t, i)
    st = balance_report(t).status[i]
    if st in (BalanceStatus.UNBALANCED_X, BalanceStatus.UNBALANCED_Y):
        return GesselTree(_swap_ends_at(t.root, i), t.multiset)
    return t


def is_canonical(t: GesselTree) -> bool:
    """No vertex has an unbalanced y-leaf (a leaf last child, a vertex first child)."""
    stack = [t.root]
    while stack:
        v = stack.pop()
        if type(v) is Internal:
            children = v.children
            if type(children[-1]) is Leaf and type(children[0]) is not Leaf:
                return False
            stack.extend(children)
    return True


def canonical_representative(t: GesselTree) -> GesselTree:
    """Flip every unbalanced-y vertex, in ascending label order.

    A flip at one vertex never changes another vertex's child list, so the
    result does not depend on the order; ascending order is fixed to make
    runs reproducible.
    """
    report = balance_report(t)
    root = t.root
    for i in report.vertices_with(BalanceStatus.UNBALANCED_Y):
        root = _swap_ends_at(root, i)
    return GesselTree(root, t.multiset)


def orbit(t: GesselTree) -> frozenset[GesselTree]:
    """The orbit of t: all subset-flips of the canonical form's unbalanced-x vertices.

    Raises OrbitTooLargeError, before building any member, when the
    2^len(free) members of K letters exceed ORBIT_COST_CAP letters.
    """
    canon = canonical_representative(t)
    free = balance_report(canon).vertices_with(BalanceStatus.UNBALANCED_X)
    K = t.multiset.K
    if 2 ** len(free) * K > ORBIT_COST_CAP:
        raise OrbitTooLargeError(len(free), K, ORBIT_COST_CAP)
    members = []
    for r in range(len(free) + 1):
        for subset in combinations(free, r):
            root = canon.root
            for i in subset:
                root = _swap_ends_at(root, i)
            members.append(GesselTree(root, canon.multiset))
    return frozenset(members)


def enumerate_canonical(m: Multiset) -> Iterator[GesselTree]:
    """All canonical Gessel trees over m, by filtering the permutation stream."""
    for s in enumerate_stirling(m):
        t = gessel_forward(s)
        if is_canonical(t):
            yield t


def is_canonical_ternary(t: GesselTree) -> bool:
    """For trees over {1^2, ..., n^2}: no vertex has a z-leaf without an x-leaf."""
    if not t.multiset.is_uniform(2):
        raise DomainError(
            f"canonical ternary trees live over 2,2,...,2 multisets, not {{{t.multiset}}}")
    return ternary_from_census(leaf_census(t))


def ternary_from_census(census: LeafCensus) -> bool:
    """Whether the tree whose leaf census this is has no z-leaf without an x-leaf."""
    for has_x, _, z_count in census.per_vertex.values():
        if z_count and not has_x:
            return False
    return True


# Pruned-tree vertex types, keyed by (had_x, had_y).
TYPE_NONE, TYPE_Y, TYPE_V, TYPE_U = 1, 2, 3, 4

_TYPE_BY_FLAGS = {
    (False, False): TYPE_NONE,
    (False, True): TYPE_Y,
    (True, False): TYPE_V,
    (True, True): TYPE_U,
}

_TYPE_SUFFIX = {TYPE_NONE: "", TYPE_Y: ":y", TYPE_V: ":v", TYPE_U: ":u"}


@dataclass(frozen=True)
class PrunedTree:
    """A Gessel tree with its x- and y-leaves removed.

    The remaining leaves are exactly the z-leaves of the original tree.
    ``types`` records, per vertex, which sides were removed; ``weight``
    is only defined when no vertex is of the y-only type.
    """

    root: Node
    multiset: Multiset
    types: dict[int, int]
    zleaf: int

    @property
    def u_count(self) -> int:
        return sum(1 for ty in self.types.values() if ty == TYPE_U)

    @property
    def v_count(self) -> int:
        return sum(1 for ty in self.types.values() if ty == TYPE_V)

    def weight(self) -> tuple[int, int]:
        """(u-exponent, v-exponent); raises NotCanonicalError on a y-type vertex."""
        bad = sorted(v for v, ty in self.types.items() if ty == TYPE_Y)
        if bad:
            raise NotCanonicalError(bad[0])
        return (self.u_count, self.v_count)


def prune(t: GesselTree) -> PrunedTree:
    census = leaf_census(t)
    types = {
        label: _TYPE_BY_FLAGS[(has_x, has_y)]
        for label, (has_x, has_y, _) in census.per_vertex.items()
    }

    # Rebuild bottom-up: in reversed preorder every vertex follows its children.
    preorder: list[Internal] = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if type(v) is Internal:
            preorder.append(v)
            stack.extend(v.children)
    stripped: dict[int, Internal] = {}
    for v in reversed(preorder):
        kept: list[Node] = []
        last = len(v.children) - 1
        for pos, child in enumerate(v.children):
            if type(child) is Internal:
                kept.append(stripped[id(child)])
            elif 0 < pos < last:
                kept.append(child)  # a z-leaf; x- and y-leaves are dropped
        stripped[id(v)] = Internal(v.label, tuple(kept))

    root: Node = stripped[id(t.root)] if preorder else t.root
    return PrunedTree(root=root, multiset=t.multiset, types=types, zleaf=census.zleaf)


def serialize_pruned(p: PrunedTree) -> str:
    """``(label[:tag] child ...)`` with ``*`` for the surviving z-leaves."""
    return render_tree(p.root, lambda label: f"{label}{_TYPE_SUFFIX[p.types[label]]}")
