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
vertices, hence has size 2^uxleaf.  A tree is its slot table
(``trees.Table``), on which a flip swaps the ends of one row, so both are
one pass over the rows.  The flips are written once, on tables:
``psi``, ``toggle``, ``is_canonical``, ``canonical_representative`` and
``orbit`` act on ``t.table`` and wrap any table they return in a
``GesselTree``.  A flip keeps every vertex in its parent's row, so a
flipped Gessel tree is one too, and building it checks that once.

Pruning a tree removes its x- and y-leaves and keeps each vertex's
``BalanceStatus``, which says what was lost; it is written as a tag on the
label: nothing for a vertex that had neither, ``y`` when only a y-leaf was
removed (unbalanced-y), ``v`` when only an x-leaf (unbalanced-x), and ``u``
when both (balanced).  A canonical tree has no ``y`` tags and carries the
weight u^#u * v^#v.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterator

from .errors import DomainError, NotCanonicalError, OrbitTooLargeError
from .multiset import Multiset
from .trees import (
    GesselTree,
    LeafCensus,
    Table,
    leaf_census,
    render_table,
    table_census,
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


def _row(t: GesselTree, i: int) -> tuple[int, ...]:
    """Row i of t's slot table; t must have a vertex i."""
    if not 1 <= i < len(t.table):
        raise DomainError(f"vertex {i} is not in the tree over {{{t.multiset}}}")
    return t.table[i]


def _swap_ends(t: GesselTree, i: int) -> GesselTree:
    """t with the ends of row i swapped."""
    table = t.table
    row = table[i]
    return GesselTree(table[:i] + ((row[-1], *row[1:-1], row[0]),) + table[i + 1:],
                      t.multiset)


def psi(t: GesselTree, i: int) -> GesselTree:
    """Flip vertex i if it has an unbalanced y-leaf; otherwise the identity."""
    row = _row(t, i)
    return _swap_ends(t, i) if row[0] and not row[-1] else t


def toggle(t: GesselTree, i: int) -> GesselTree:
    """Flip vertex i if it has an unbalanced leaf on either side (an involution)."""
    row = _row(t, i)
    return _swap_ends(t, i) if (row[0] == 0) != (row[-1] == 0) else t


def is_canonical(t: GesselTree) -> bool:
    """No vertex has an unbalanced y-leaf (a leaf last child, a vertex first child)."""
    return is_canonical_table(t.table)


def canonical_representative(t: GesselTree) -> GesselTree:
    """Flip every unbalanced-y vertex; t itself when none is.

    A flip at one vertex never changes whether another vertex's first and
    last children are leaves, so the flips are decided on t's slot table
    and their order does not matter.
    """
    canon = canonical_table(t.table)
    return t if canon == t.table else GesselTree(canon, t.multiset)


def is_canonical_table(table: Table) -> bool:
    """No row has an empty last slot and a filled first slot."""
    return all(row[-1] or not row[0] for row in table)


def canonical_table(table: Table) -> Table:
    """The slot table of the canonical representative: every row with an
    empty last slot and a filled first slot has its ends swapped."""
    return tuple(row if row[-1] or not row[0] else (row[-1], *row[1:-1], row[0])
                 for row in table)


def table_orbit(table: Table) -> tuple[Table, ...]:
    """The orbit of a slot table, given as any rows: each row as it is or, when
    exactly one of its ends is empty, with its ends swapped.  Each member is
    listed once, as the choices of distinct rows differ."""
    return tuple(product(*(
        (row, (row[-1], *row[1:-1], row[0])) if (row[0] == 0) != (row[-1] == 0) else (row,)
        for row in map(tuple, table))))


def orbit(t: GesselTree) -> frozenset[GesselTree]:
    """The orbit of t: all subset-flips of the canonical form's unbalanced-x vertices.

    Raises OrbitTooLargeError, before building any member, when the
    2^ux members of K letters exceed ORBIT_COST_CAP letters.  t itself is
    the member with its table, so only the others are built.
    """
    canon = canonical_table(t.table)
    ux = sum(1 for row in canon if not row[0] and row[-1])
    K = t.multiset.K
    if 2 ** ux * K > ORBIT_COST_CAP:
        raise OrbitTooLargeError(ux, K, ORBIT_COST_CAP)
    return frozenset(t if u == t.table else GesselTree(u, t.multiset)
                     for u in table_orbit(canon))


def placements(m: Multiset, watched: int, *,
               all_but_last: bool = False) -> Iterator[list[list[int]]]:
    """Every Gessel tree over m whose vertices all pass the ``watched`` test,
    as a slot table.

    ``table[v][p]`` is the vertex in child slot p of vertex v, or 0 for a
    leaf; row 0 has one slot, which holds the root (0 over the empty
    multiset).  Vertex i = 2..n goes into a free slot of a smaller vertex,
    one of 1 + K_{i-1} choices: the tree reading of the count
    prod(1 + K_{i-1}) of Stirling permutations.

    A vertex is bad while its first slot is filled and its slot
    ``watched`` (an index into its row, -1 for the last) is empty.  Only a
    later vertex can mend a bad one, by filling its watched slot, and each
    mends at most one, so a branch is cut as soon as more vertices are bad
    than are left to place.  The trees yielded are those with no bad vertex.

    With ``all_but_last`` a table is yielded once vertices 1..n-1 are
    placed, each way the cut above lets through: the bound still counts
    vertex n, so a yielded table has at most one bad vertex, and vertex n's
    row is all zeros.  Putting vertex n into each free slot (the root's,
    when n = 1) completes it to the trees it leads to.

    One table is filled and emptied in place and yielded each time: read
    it before asking for the next.
    """
    mults = m.mults
    n = len(mults)
    stop = n - 1 if all_but_last else n  # the last vertex placed
    table = [[1 if stop > 0 else 0]] + [[0] * (k + 1) for k in mults]
    if stop <= 1:
        yield table
        return
    target = [0] + [watched % (k + 1) for k in mults]
    # The slots of vertices 1..n in order; vertex i may take one of the
    # first ``end[i]``, those of the vertices below it.
    slots = [(v, p) for v in range(1, n + 1) for p in range(mults[v - 1] + 1)]
    end = [0, 0]
    for k in mults:
        end.append(end[-1] + k + 1)
    where = [0] * (n + 1)  # 1 + the index into slots of vertex i's slot, 0 if unplaced
    gain = [0] * (n + 1)  # what placing vertex i added to the bad count
    bad = 0
    i = 2
    while i > 1:
        c = where[i]
        if c:  # take vertex i out of its slot
            v, p = slots[c - 1]
            table[v][p] = 0
            bad -= gain[i]
        limit = n - i  # the vertices left to place after vertex i
        while c < end[i]:
            v, p = slots[c]
            c += 1
            row = table[v]
            if row[p]:
                continue
            if p == 0:
                delta = row[target[v]] == 0  # v turns bad
            elif p == target[v]:
                delta = -(row[0] != 0)  # v is mended
            else:
                delta = 0
            if bad + delta <= limit:
                row[p] = i
                break
        else:
            where[i] = 0
            i -= 1
            continue
        where[i] = c
        gain[i] = delta
        bad += delta
        if i == stop:
            yield table
        else:
            i += 1


def enumerate_canonical(m: Multiset) -> Iterator[GesselTree]:
    """All canonical Gessel trees over m."""
    for table in placements(m, -1):
        yield GesselTree(tuple(map(tuple, table)), m)


def is_canonical_ternary(t: GesselTree) -> bool:
    """For trees over {1^2, ..., n^2}: no vertex has a z-leaf without an x-leaf."""
    if not t.multiset.is_uniform(2):
        raise DomainError(
            f"canonical ternary trees live over 2,2,...,2 multisets, not {{{t.multiset}}}")
    return not any(z_count and not has_x
                   for has_x, _, z_count in leaf_census(t).per_vertex.values())


# The tag a pruned vertex is written with: what pruning removed from it.
_PRUNED_TAG = {BalanceStatus.NO_XY: "", BalanceStatus.UNBALANCED_Y: ":y",
               BalanceStatus.UNBALANCED_X: ":v", BalanceStatus.BALANCED: ":u"}


@dataclass(frozen=True)
class PrunedTree:
    """A Gessel tree with its x- and y-leaves removed.

    The remaining leaves are exactly the z-leaves of the original tree.
    ``rows`` is the slot table with those leaves gone, so a row may have
    fewer than 2 slots, or none.  ``types`` holds each vertex's
    ``BalanceStatus`` in the original tree, which says which sides were
    removed; ``weight`` is only defined when no vertex is unbalanced-y.
    """

    rows: Table
    multiset: Multiset
    types: dict[int, BalanceStatus]
    zleaf: int

    @property
    def u_count(self) -> int:
        return sum(1 for ty in self.types.values() if ty is BalanceStatus.BALANCED)

    @property
    def v_count(self) -> int:
        return sum(1 for ty in self.types.values() if ty is BalanceStatus.UNBALANCED_X)

    def weight(self) -> tuple[int, int]:
        """(u-exponent, v-exponent); raises NotCanonicalError on an unbalanced-y vertex."""
        bad = sorted(v for v, ty in self.types.items() if ty is BalanceStatus.UNBALANCED_Y)
        if bad:
            raise NotCanonicalError(bad[0])
        return (self.u_count, self.v_count)


def prune(t: GesselTree) -> PrunedTree:
    table = t.table
    census = table_census(table)
    types = balance_from_census(census).status
    # Each vertex keeps its subtrees and its z-leaves; x- and y-leaves go.
    pruned = (table[0], *(tuple(c for pos, c in enumerate(row) if c or 0 < pos < len(row) - 1)
                          for row in table[1:]))
    return PrunedTree(rows=pruned, multiset=t.multiset, types=types, zleaf=census.zleaf)


def serialize_pruned(p: PrunedTree) -> str:
    """``(label[:tag] child ...)`` with ``*`` for the surviving z-leaves."""
    return render_table(p.rows, lambda label: f"{label}{_PRUNED_TAG[p.types[label]]}")
