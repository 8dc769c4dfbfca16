"""Generating polynomials and gamma tables obtained by direct counting.

Every function here enumerates an explicit set of objects and tabulates a
statistic pair, providing counting-side counterparts to the algebraic
routes (grammar derivatives, basis extraction).  All tables share the
indexing of the basis (xy)^j (x+y)^(K+1-i-2j) z^i: the first key is the
z-exponent i, the second the xy-exponent j.
"""

from __future__ import annotations

from typing import Iterable

from .action import enumerate_canonical, is_canonical_ternary
from .errors import DomainError
from .multiset import Multiset
from .poly import XYZ, GammaTable, Poly3
from .stirling import asc_des_plat, enumerate_stirling, statistics
from .trees import gessel_forward, leaf_census


def c_polynomial_enum(m: Multiset) -> Poly3:
    """Sum of x^asc y^des z^plat over all Stirling permutations of m.

    For the empty multiset this returns the single term x, the seed the
    derivative chain starts from.
    """
    if m.n == 0:
        return Poly3.variable("x", XYZ)
    return triple_polynomial(asc_des_plat(s.word) for s in enumerate_stirling(m))


def triple_polynomial(triples: Iterable[tuple[int, int, int]]) -> Poly3:
    """Sum of x^asc y^des z^plat over the given (asc, des, plat) triples."""
    terms: dict[tuple[int, int, int], int] = {}
    for e in triples:
        terms[e] = terms.get(e, 0) + 1
    return Poly3(XYZ, terms)


def gamma_count_trees(m: Multiset) -> GammaTable:
    """gamma_{i,j} = canonical trees with i z-leaves and j y-leaves."""
    if m.n == 0:
        raise DomainError("gamma tables are defined for nonempty multisets")
    entries: dict[tuple[int, int], int] = {}
    for t in enumerate_canonical(m):
        census = leaf_census(t)
        key = (census.zleaf, census.yleaf)
        entries[key] = entries.get(key, 0) + 1
    return GammaTable(m.K, entries, multiset=m)


def gamma_count_perms(m: Multiset) -> GammaTable:
    """gamma_{i,j} = double-fall-free permutations with i plateaux and j descents."""
    if m.n == 0:
        raise DomainError("gamma tables are defined for nonempty multisets")
    entries: dict[tuple[int, int], int] = {}
    for s in enumerate_stirling(m):
        prof = statistics(s)
        if prof.dfall == 0:
            key = (prof.plat, prof.des)
            entries[key] = entries.get(key, 0) + 1
    return GammaTable(m.K, entries, multiset=m)


def _require_doubled(m: Multiset, route: str) -> None:
    if not m.is_uniform(2):
        raise DomainError(
            f"the {route} route needs a doubled multiset 2,2,...,2, got {m.spec()!r}")


def gamma_count_mma(m: Multiset) -> GammaTable:
    """Over a doubled multiset {1^2, ..., n^2}: gamma_{i,j} = descent-plateau-free
    permutations with i descents and j ascent-plateaux.

    Note the key order: on this route the z-exponent is carried by the
    descent count and the xy-exponent by the ascent-plateau count.  The
    doubled pair {1^2, 2^2} cannot tell the two orders apart (its table is
    symmetric in i and j) but {1^2, 2^2, 3^2} can, and fixes this one.
    """
    _require_doubled(m, "mma")
    entries: dict[tuple[int, int], int] = {}
    for s in enumerate_stirling(m):
        prof = statistics(s)
        if prof.dplat == 0:
            key = (prof.des, prof.aplat)
            entries[key] = entries.get(key, 0) + 1
    return GammaTable(m.K, entries, multiset=m)


def gamma_count_ternary(m: Multiset) -> GammaTable:
    """Over a doubled multiset {1^2, ..., n^2}: gamma_{i,j} = canonical
    ternary trees with i y-leaves and j vertices carrying both an x-leaf
    and a z-leaf.

    Canonical here means no vertex has a z-leaf without an x-leaf; the
    trees counted are plane ternary increasing trees, i.e. exactly the
    Gessel trees of the doubled multiset.
    """
    _require_doubled(m, "ternary")
    entries: dict[tuple[int, int], int] = {}
    for s in enumerate_stirling(m):
        t = gessel_forward(s)
        if not is_canonical_ternary(t):
            continue
        census = leaf_census(t)
        both_xz = sum(
            1 for has_x, _, z_count in census.per_vertex.values() if has_x and z_count
        )
        key = (census.yleaf, both_xz)
        entries[key] = entries.get(key, 0) + 1
    return GammaTable(m.K, entries, multiset=m)
