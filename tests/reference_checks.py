"""The per-word checks, ORBIT and T4.3 as the harness ran them one by one,
on object trees.

These are the earlier bodies of ``harness._check_p21``, ``_check_jkp``,
``_check_p22``, ``_check_p51``, ``_check_p63`` and ``_check_t43``: each
per-word check walks every word on its own and rebuilds the statistics,
leaf census and balance report it reads, and T4.3 prunes every canonical
tree.  ORBIT goes class by class, as the harness does, but takes its
canonical trees from the trees of the words, builds each orbit by object
flips and reads each member's word back off it.  The harness's one pass
over the words and its ORBIT from ``placements`` and T4.3, which read slot
tables, must report the same outcomes, first failure included.

Their words are the reference's list-and-sort enumeration, and their
flips (``is_canonical`` and ``orbit``) are the object-tree bodies in
``reference_kernels``, run on the reference's own trees of the words, so
they share no enumeration or flip code with the harness's successor and
slot-table kernels.  For everything else they call the
package's kernels on the package's trees, as the harness does, so a test
can corrupt a census, profile or occurrence kernel under both: P2.2 and
P5.1 read the first and last positions of each value from
``stirling.first_last_positions``, as the harness does.  They never import
``gesselgamma.harness``, so they cannot call the code they are the
reference for.
"""

from __future__ import annotations

from collections import Counter

import reference_kernels
from reference_kernels import is_canonical, orbit

from gesselgamma.action import (
    BalanceStatus,
    balance_report,
    is_canonical_ternary,
    prune,
)
from gesselgamma.multiset import Multiset
from gesselgamma.poly import UVZ, XYZ, Poly3, gamma_extract, gamma_table_to_uvz
from gesselgamma.stirling import (
    asc_des_plat,
    first_last_positions,
    statistics,
)
from gesselgamma.trees import (
    gessel_forward,
    leaf_census,
    serialize,
)

Failure = dict


class Context:
    """The words, trees, triples and polynomial of one multiset: ``trees``
    are the package's trees, ``ref_trees`` the reference's."""

    def __init__(self, m: Multiset):
        self.multiset = m
        self.perms = list(reference_kernels.enumerate_stirling(m))
        self.trees = [gessel_forward(s) for s in self.perms]
        self.ref_trees = [reference_kernels.gessel_forward(s) for s in self.perms]
        self.triples = [asc_des_plat(s.word) for s in self.perms]
        if m.n == 0:
            self.c_polynomial = Poly3.variable("x", XYZ)
        else:
            self.c_polynomial = Poly3(XYZ, Counter(self.triples))


def _fail(m: Multiset, detail: str, **extra) -> Failure:
    payload = {"multiset": m.spec(), "detail": detail}
    payload.update(extra)
    return payload


def _mismatch(m, what, lhs, rhs) -> list[Failure]:
    if lhs == rhs:
        return []
    return [_fail(m, what, lhs=lhs.to_json_dict(), rhs=rhs.to_json_dict())]


def check_p21(m: Multiset, ctx: Context) -> list[Failure]:
    for s, t, triple in zip(ctx.perms, ctx.trees, ctx.triples):
        census = leaf_census(t)
        if triple != census.triple:
            return [_fail(m, "(asc, des, plat) differs from (x, y, z) leaf counts",
                          sigma=str(s), lhs=list(triple), rhs=list(census.triple))]
    return []


def check_jkp(m: Multiset, ctx: Context) -> list[Failure]:
    for s, t in zip(ctx.perms, ctx.trees):
        prof = statistics(s.word, m.n)
        census = leaf_census(t)
        if prof.plat_by_j != census.zleaf_by_j:
            return [_fail(m, "plateaux by occurrence index differ from z-leaves by position",
                          sigma=str(s), lhs=prof.plat_by_j, rhs=census.zleaf_by_j)]
    return []


def occurrence_flags(s, first: list[int], last: list[int], i: int) -> tuple[bool, bool]:
    """(first occurrence of i is an ascent, last occurrence is a descent),
    from the 1-based positions of those occurrences."""
    w = s.word
    before = w[first[i] - 2] if first[i] >= 2 else 0
    after = w[last[i]] if last[i] < len(w) else 0
    return (before < i, i > after)


def check_p22(m: Multiset, ctx: Context) -> list[Failure]:
    for s, t in zip(ctx.perms, ctx.trees):
        census = leaf_census(t)
        first, last = first_last_positions(s.word, m.n)
        for i in range(1, m.n + 1):
            flags = occurrence_flags(s, first, last, i)
            has_x, has_y, _ = census.per_vertex[i]
            if flags != (has_x, has_y):
                return [_fail(m, f"occurrence flags of value {i} differ from leaf flags",
                              sigma=str(s), lhs=list(flags), rhs=[has_x, has_y])]
    return []


def check_p51(m: Multiset, ctx: Context) -> list[Failure]:
    for s, t in zip(ctx.perms, ctx.trees):
        prof = statistics(s.word, m.n)
        report = balance_report(t)
        _, last = first_last_positions(s.word, m.n)
        unbalanced_y = set(report.vertices_with(BalanceStatus.UNBALANCED_Y))
        dfall_values = {s.word[i - 1] for i in prof.dfall_positions}
        if dfall_values != unbalanced_y or len(prof.dfall_positions) != len(unbalanced_y):
            return [_fail(m, "double-fall values differ from unbalanced-y vertices",
                          sigma=str(s), lhs=sorted(dfall_values), rhs=sorted(unbalanced_y))]
        for i in prof.dfall_positions:
            v = s.word[i - 1]
            if i != last[v]:
                return [_fail(m, f"double fall at {i} is not the last occurrence of {v}",
                              sigma=str(s))]
    return []


def check_p63(m: Multiset, ctx: Context) -> list[Failure]:
    for s, t in zip(ctx.perms, ctx.trees):
        prof = statistics(s.word, m.n)
        census = leaf_census(t)
        z_without_x = {v for v, (hx, _, zc) in census.per_vertex.items() if zc and not hx}
        x_with_z = {v for v, (hx, _, zc) in census.per_vertex.items() if zc and hx}
        dplat_values = {s.word[i - 1] for i in prof.dplat_positions}
        aplat_values = {s.word[i - 1] for i in prof.aplat_positions}
        if dplat_values != z_without_x or len(prof.dplat_positions) != len(z_without_x):
            return [_fail(m, "descent-plateau values differ from z-without-x vertices",
                          sigma=str(s), lhs=sorted(dplat_values), rhs=sorted(z_without_x))]
        if aplat_values != x_with_z or len(prof.aplat_positions) != len(x_with_z):
            return [_fail(m, "ascent-plateau values differ from x-with-z vertices",
                          sigma=str(s), lhs=sorted(aplat_values), rhs=sorted(x_with_z))]
        if (prof.dplat == 0) != is_canonical_ternary(t):
            return [_fail(m, "descent-plateau-freeness differs from ternary canonicity",
                          sigma=str(s))]
    return []


def check_orbit(m: Multiset, ctx: Context) -> list[Failure]:
    failures = []
    size = 0
    for t in ctx.ref_trees:
        if is_canonical(t):
            members = orbit(t)
            size += len(members)
            failure = _orbit_class_failure(m, t, members)
            if failure:
                failures.append(failure)
    if failures:
        return [min(failures, key=lambda f: f["tree"])]
    if size != len(ctx.perms):
        return [_fail(m, "orbit sizes do not sum to the number of words",
                      lhs=size, rhs=len(ctx.perms))]
    return []


def _orbit_class_failure(m: Multiset, t, members) -> Failure | None:
    canon = reference_kernels.gessel_tree(t)
    canon_text = serialize(canon)
    canonical_members = [u for u in members if is_canonical(u)]
    if len(canonical_members) != 1:
        return _fail(m, f"orbit has {len(canonical_members)} canonical members, expected 1",
                     tree=canon_text)
    report = balance_report(canon)
    if len(members) != 2 ** report.uxleaf:
        return _fail(m, "orbit size is not 2^(unbalanced-x vertices)",
                     tree=canon_text, lhs=len(members), rhs=2 ** report.uxleaf)
    census = leaf_census(canon)
    if report.uxleaf != m.K + 1 - census.zleaf - 2 * census.yleaf:
        return _fail(m, "unbalanced-x count differs from K+1 - zleaf - 2*yleaf",
                     tree=canon_text, lhs=report.uxleaf,
                     rhs=m.K + 1 - census.zleaf - 2 * census.yleaf)
    x = Poly3.variable("x", XYZ)
    y = Poly3.variable("y", XYZ)
    expected = ((x * y) ** census.yleaf) * ((x + y) ** report.uxleaf) \
        * Poly3.monomial((0, 0, census.zleaf), 1, XYZ)
    actual = Poly3(XYZ, Counter(asc_des_plat(reference_kernels.gessel_inverse(u).word)
                                for u in members))
    if actual != expected:
        return _fail(m, "orbit monomial sum differs from (xy)^y (x+y)^ux z^z",
                     tree=canon_text, lhs=actual.to_json_dict(),
                     rhs=expected.to_json_dict())
    return None


def check_t43(m: Multiset, ctx: Context) -> list[Failure]:
    weights: dict[tuple[int, int, int], int] = {}
    for t, rt in zip(ctx.trees, ctx.ref_trees):
        if not is_canonical(rt):
            continue
        p = prune(t)
        u, v = p.weight()
        weights[u, v, p.zleaf] = weights.get((u, v, p.zleaf), 0) + 1
    expected = gamma_table_to_uvz(gamma_extract(ctx.c_polynomial, m.K))
    return _mismatch(m, "pruned-tree weights do not sum to the gamma polynomial",
                     Poly3(UVZ, weights), expected)


CHECKS = {
    "P2.1": check_p21,
    "JKP-ZJ": check_jkp,
    "P2.2": check_p22,
    "P5.1": check_p51,
    "P6.3": check_p63,
    "ORBIT": check_orbit,
    "T4.3": check_t43,
}
