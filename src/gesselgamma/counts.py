"""Generating polynomials and gamma tables obtained by direct counting.

Every counting function here tallies a statistic pair over an explicit set
of objects, words or trees, providing counting-side counterparts to the
algebraic routes (grammar derivatives, basis extraction).  None lists the
whole set: each lists the objects built from all but the largest value n,
and weighs the ways n can be put in by their kind.  All tables share the
indexing of the basis (xy)^j (x+y)^(K+1-i-2j) z^i: the first key is the
z-exponent i, the second the xy-exponent j.

The enumerated polynomial and the perms and mma routes read only the
words u of m' = m without its last block n^k, off ``stirling.stirling_words``
(bare word tuples in insertion order, memory O(n K)): each word of m is u
with the block put into one of u's K'+1 gaps, one per step (l, r) of u
scanned over ``(*u, 0)``, the closing step to the boundary zero included.
The block is larger than every letter of u, so the step (l, r) becomes an
ascent, k - 1 plateaux and a descent, and the one other step that changes
is the one after: r is now entered by a descent.  So the words of one u
fall into at most three keys, by the kind of the step replaced, and each
route adds them to its tally weighted; the full ``statistics`` profile of
every word is left to the harness and ``enumerate --stats``.
The trees and ternary routes read no word: ``action.placements(m,
watched)`` places vertices 1..n-1 of the canonical trees slot by slot and
stops, and vertex n, a row of k + 1 empty slots, goes into one free slot
of each partial table.  One slot kernel serves both routes: it reads each
row by its first slot, its watched slot (the last for trees, the middle
for ternary) and its other slots, and the kind of the slot n takes fixes
the tree's key, so each partial table gives at most three weighted keys
too.

``GAMMA_ROUTES`` names every route to a multiset's gamma table, counting
and algebraic alike; the command line, the harness's agreement checks and
the tests all read it.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable

from .action import placements
from .errors import DomainError
from .grammar import gamma_polynomial_grammar
from .multiset import Multiset
from .poly import XYZ, GammaTable, Poly3, gamma_extract, gamma_table_from_uvz
from .stirling import asc_des_plat, stirling_words

Word = tuple[int, ...]
Key = tuple[int, ...]
Weighted = tuple[tuple[Key, int], ...]


def _tally(m: Multiset, keys: Callable[..., Weighted], watched: int | None = None) -> Counter:
    """The total weight of each key over m, where ``keys(u, k)`` gives the
    weighted keys of what u leads to: u is a word of m without its last
    block n^k or, given ``watched``, a slot table of ``placements(m,
    watched)`` with every vertex but n placed, which the slot kernel reads
    with that ``watched``.  A key of weight 0 may hold a negative entry;
    the table or polynomial built from the tally drops it.
    """
    *below, k = m.mults
    if watched is None:
        objects = stirling_words(Multiset(tuple(below)))
    else:
        objects = placements(m, watched, all_but_last=True)
        keys = partial(keys, watched=watched)
    tally: Counter = Counter()
    for u in objects:
        for key, weight in keys(u, k):
            tally[key] += weight
    return tally


def _enum_keys(u: Word, k: int) -> Weighted:
    """The ``(asc, des, plat)`` triples of the words made from u, weighted:
    the block replaces one of u's A ascents, P plateaux or D descents by an
    ascent, k - 1 plateaux and a descent.  The empty word's one step (0, 0)
    is a plateau.
    """
    asc, des, plat = asc_des_plat(u) if u else (0, 0, 1)
    return (((asc, des + 1, plat + k - 1), asc),
            ((asc + 1, des + 1, plat + k - 2), plat),
            ((asc + 1, des, plat + k - 1), des))


def c_polynomial_enum(m: Multiset) -> Poly3:
    """Sum of x^asc y^des z^plat over all Stirling permutations of m.

    For the empty multiset this returns the single term x, the seed the
    derivative chain starts from.
    """
    if m.n == 0:
        return Poly3.variable("x", XYZ)
    return Poly3(XYZ, _tally(m, _enum_keys))


def _nonempty(m: Multiset) -> Multiset:
    """m itself; the empty multiset has no gamma table and is refused."""
    if m.n == 0:
        raise DomainError("gamma tables are defined for nonempty multisets")
    return m


def _slot_keys(table: list[list[int]], k: int, watched: int) -> Weighted:
    """The keys of the canonical trees made from a slot table of
    ``placements(m, watched)`` with vertex n of multiplicity k left out,
    weighted by the free slots of rows 1..n-1 that vertex n can take:
    (z-leaves, y-leaves) for trees, watched -1, and (y-leaves, vertices
    with an x- and a z-leaf) for ternary trees, watched 1.

    A row is bad while its first slot is filled and its watched slot
    empty, and vertex n brings a row of k + 1 empty slots, k - 1 of them
    other slots.  Of O empty slots that are neither a row's first nor its
    watched slot, X rows with both of those empty and F rows with only the
    first empty, one of the O gives (O + k - 2, X + 1), the watched slot of
    an X row (O + k - 1, X) and the first slot of an F row (O + k - 1,
    X + 1); the first slot of an X row makes it bad.  A table with a bad
    row (at most one) is mended only by that row's watched slot, which
    gives (O + k - 1, X + 1).
    """
    rows = table[1:-1]
    if not rows:  # n = 1: vertex 1 goes into the root slot
        return (((k - 1, 1), 1),)
    other = x = f = bad = 0
    for row in rows:
        other += row.count(0)
        if row[0]:
            if not row[watched]:
                bad = 1
        elif row[watched]:
            f += 1
        else:
            x += 1
    other -= 2 * x + f + bad  # the empty first and watched slots
    if bad:
        return (((other + k - 1, x + 1), 1),)
    return (((other + k - 2, x + 1), other),
            ((other + k - 1, x), x),
            ((other + k - 1, x + 1), f))


def gamma_count_trees(m: Multiset) -> GammaTable:
    """gamma_{i,j} = canonical trees with i z-leaves and j y-leaves."""
    m = _nonempty(m)
    return GammaTable(m.K, _tally(m, _slot_keys, -1))


def _perms_keys(u: Word, k: int) -> Weighted:
    """The ``(plat, des)`` keys of the double-fall-free words of u with the
    block n^k put in, weighted.

    A descent at the last copy of a value (the only copy that can descend)
    is a double fall when the value's first copy is entered by a descent.
    The block replaces a step (l, r), and the step into r becomes a descent
    (n, r); no other step changes, and n's first copy is entered by an
    ascent.  So a gap removes at most the one double fall at l, and a gap
    at an ascent into the first copy of a value that descends makes one.
    With one double fall in u only its own gap counts; with none, every
    plateau and descent gap counts, and every ascent gap but the D into a
    value that descends.
    """
    rose: set[int] = set()  # the values whose first copy is entered by an ascent
    asc = des = plat = 0
    dfall = False
    prev = 0
    for cur in (*u, 0):
        if cur > prev:
            asc += 1
            rose.add(cur)
        elif cur < prev:
            des += 1
            if prev not in rose:
                if dfall:
                    return ()
                dfall = True
        else:
            plat += 1
        prev = cur
    if dfall:
        return (((plat + k - 1, des), 1),)
    return (((plat + k - 1, des + 1), asc - des),
            ((plat + k - 2, des + 1), plat),
            ((plat + k - 1, des), des))


def gamma_count_perms(m: Multiset) -> GammaTable:
    """gamma_{i,j} = double-fall-free permutations with i plateaux and j descents."""
    m = _nonempty(m)
    return GammaTable(m.K, _tally(m, _perms_keys))


def _require_doubled(m: Multiset, route: str) -> None:
    if not m.is_uniform(2):
        raise DomainError(
            f"the {route} route needs a doubled multiset 2,2,...,2, got {m.spec()!r}")


def _mma_keys(u: Word, k: int) -> Weighted:
    """The ``(des, aplat)`` keys of the descent-plateau-free words of u with
    the block n n put in, weighted: u is a word of a doubled multiset, k is 2.

    A plateau is an ascent- or descent-plateau by the step that enters it.
    The block's plateau follows an ascent, and the step into r becomes a
    descent (n, r), so a gap at an ascent into a plateau makes that plateau
    a descent-plateau, and a gap at a plateau removes it.  With one
    descent-plateau in u only its own gap counts; with none, every descent
    and plateau gap counts and the A - P ascent gaps not into a plateau.
    """
    if not u:
        return (((1, 1), 1),)
    asc = des = aplat = 0
    dplat = False
    before = prev = 0
    for cur in (*u, 0):
        if cur == prev:
            if before > prev:
                if dplat:
                    return ()
                dplat = True
            else:
                aplat += 1
        elif cur > prev:
            asc += 1
        else:
            des += 1
        before = prev
        prev = cur
    if dplat:
        return (((des + 1, aplat + 1), 1),)
    return (((des + 1, aplat + 1), asc - aplat),
            ((des + 1, aplat), aplat),
            ((des, aplat + 1), des))


def gamma_count_mma(m: Multiset) -> GammaTable:
    """Over a doubled multiset {1^2, ..., n^2}: gamma_{i,j} = descent-plateau-free
    permutations with i descents and j ascent-plateaux.

    Note the key order: on this route the z-exponent is carried by the
    descent count and the xy-exponent by the ascent-plateau count.  The
    doubled pair {1^2, 2^2} cannot tell the two orders apart (its table is
    symmetric in i and j) but {1^2, 2^2, 3^2} can, and fixes this one.
    """
    _require_doubled(m, "mma")
    return GammaTable(m.K, _tally(m, _mma_keys))


def gamma_count_ternary(m: Multiset) -> GammaTable:
    """Over a doubled multiset {1^2, ..., n^2}: gamma_{i,j} = canonical
    ternary trees with i y-leaves and j vertices carrying both an x-leaf
    and a z-leaf.

    Canonical here means no vertex has a z-leaf without an x-leaf; the
    trees counted are plane ternary increasing trees, i.e. exactly the
    Gessel trees of the doubled multiset, placed with the middle slot
    watched.
    """
    _require_doubled(m, "ternary")
    return GammaTable(m.K, _tally(m, _slot_keys, 1))


# Each entry looks its function up in this module when called, and holds
# no function object, so a name rebound here (by a tracer or a test) is
# the one that runs.  The order is the order the command line lists.
GAMMA_ROUTES: dict[str, Callable[[Multiset], GammaTable]] = {
    "extract": lambda m: gamma_extract(c_polynomial_enum(_nonempty(m)), m.K),
    "grammar": lambda m: gamma_table_from_uvz(gamma_polynomial_grammar(_nonempty(m)), m.K),
    "trees": lambda m: gamma_count_trees(m),
    "perms": lambda m: gamma_count_perms(m),
    "mma": lambda m: gamma_count_mma(_nonempty(m)),
    "ternary": lambda m: gamma_count_ternary(_nonempty(m)),
}
