"""Generating polynomials and gamma tables obtained by direct counting.

Every function here enumerates an explicit set of objects and tabulates a
statistic pair, providing counting-side counterparts to the algebraic
routes (grammar derivatives, basis extraction).  All tables share the
indexing of the basis (xy)^j (x+y)^(K+1-i-2j) z^i: the first key is the
z-exponent i, the second the xy-exponent j.

The enumerated polynomial and the perms and mma routes tally straight
off ``stirling.stirling_words``: bare word tuples in insertion order,
the word type of every per-word kernel, not sorted, with memory O(n K)
whatever the number of words.  The enumerated polynomial counts each
word's ``asc_des_plat`` triple; the perms and mma routes read only their
own key off each word, in one pass that stops at the first sign the
word is not counted; the full ``statistics`` profile is left to the
harness and ``enumerate --stats``.
The trees and ternary routes read no word: ``action.placements`` places
the vertices of the canonical trees slot by slot, and each route reads
its key off the slot table.

``GAMMA_ROUTES`` names every route to a multiset's gamma table, counting
and algebraic alike; the command line, the harness's agreement checks and
the tests all read it.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Callable, Iterable

from .action import placements
from .errors import DomainError
from .grammar import gamma_polynomial_grammar
from .multiset import Multiset
from .poly import XYZ, GammaTable, Poly3, gamma_extract, gamma_table_from_uvz
from .stirling import asc_des_plat, stirling_words


def c_polynomial_enum(m: Multiset) -> Poly3:
    """Sum of x^asc y^des z^plat over all Stirling permutations of m.

    For the empty multiset this returns the single term x, the seed the
    derivative chain starts from.
    """
    if m.n == 0:
        return Poly3.variable("x", XYZ)
    return Poly3(XYZ, Counter(map(asc_des_plat, stirling_words(m))))


def _nonempty(m: Multiset) -> Multiset:
    """m itself; the empty multiset has no gamma table and is refused."""
    if m.n == 0:
        raise DomainError("gamma tables are defined for nonempty multisets")
    return m


def _tally(m: Multiset, keys: Iterable[tuple[int, int] | None]) -> GammaTable:
    """The gamma table of m whose entry (i, j) counts the keys equal to (i, j).

    A key of None marks an object the route does not count; every real key
    is a nonempty tuple, so ``filter(None, ...)`` drops exactly the Nones.
    """
    return GammaTable(m.K, Counter(filter(None, keys)))


def _trees_key(table: list[list[int]]) -> tuple[int, int]:
    """(z-leaves, y-leaves) of a slot table: its empty middle and last slots."""
    zleaf = yleaf = 0
    for row in islice(table, 1, None):
        if not row[-1]:
            yleaf += 1
        zleaf += row[1:-1].count(0)
    return zleaf, yleaf


def gamma_count_trees(m: Multiset) -> GammaTable:
    """gamma_{i,j} = canonical trees with i z-leaves and j y-leaves."""
    return _tally(m, map(_trees_key, placements(_nonempty(m), -1)))


def _perms_key(word: tuple[int, ...]) -> tuple[int, int] | None:
    """``(plat, des)`` of a permutation with no double fall, else None.

    As in :func:`asc_des_plat`, each step (sigma_{i-1}, sigma_i), the
    closing step down to the boundary zero included, is an ascent, a plateau
    or a descent at i-1.  That descent is a double fall unless the first
    occurrence of sigma_{i-1} was entered by an ascent; and only a first
    occurrence can be, since no smaller letter sits between two copies.
    """
    rose: set[int] = set()  # the values entered by an ascent so far
    plat = des = 0
    prev = 0
    for cur in word:
        if cur > prev:
            rose.add(cur)
        elif cur < prev:
            if prev not in rose:
                return None
            des += 1
        else:
            plat += 1
        prev = cur
    if prev not in rose:
        return None
    return plat, des + 1


def gamma_count_perms(m: Multiset) -> GammaTable:
    """gamma_{i,j} = double-fall-free permutations with i plateaux and j descents."""
    return _tally(m, map(_perms_key, stirling_words(_nonempty(m))))


def _require_doubled(m: Multiset, route: str) -> None:
    if not m.is_uniform(2):
        raise DomainError(
            f"the {route} route needs a doubled multiset 2,2,...,2, got {m.spec()!r}")


def _mma_key(word: tuple[int, ...]) -> tuple[int, int] | None:
    """``(des, aplat)`` of a permutation with no descent-plateau, else None.

    A plateau sigma_i = sigma_{i+1} is an ascent- or descent-plateau by the
    step (sigma_{i-1}, sigma_i) before it; the last letter is always a
    descent, since the boundary zero follows it.
    """
    des = aplat = 0
    before = prev = 0
    for cur in word:
        if cur == prev:
            if before > prev:
                return None
            if before < prev:
                aplat += 1
        elif cur < prev:
            des += 1
        before = prev
        prev = cur
    return des + 1, aplat


def gamma_count_mma(m: Multiset) -> GammaTable:
    """Over a doubled multiset {1^2, ..., n^2}: gamma_{i,j} = descent-plateau-free
    permutations with i descents and j ascent-plateaux.

    Note the key order: on this route the z-exponent is carried by the
    descent count and the xy-exponent by the ascent-plateau count.  The
    doubled pair {1^2, 2^2} cannot tell the two orders apart (its table is
    symmetric in i and j) but {1^2, 2^2, 3^2} can, and fixes this one.
    """
    _require_doubled(m, "mma")
    return _tally(m, map(_mma_key, stirling_words(m)))


def _ternary_key(table: list[list[int]]) -> tuple[int, int]:
    """(y-leaves, vertices with an x-leaf and a z-leaf) of a ternary slot table:
    its empty last slots, and its vertices with empty first and middle slots."""
    yleaf = both_xz = 0
    for x, z, y in islice(table, 1, None):
        if not y:
            yleaf += 1
        if not x and not z:
            both_xz += 1
    return yleaf, both_xz


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
    return _tally(m, map(_ternary_key, placements(m, 1)))


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
