"""Slow reference versions of the per-word kernels.

These are the original, straightforward bodies of ``stirling.statistics``,
``trees.gessel_forward``, ``trees.gessel_inverse``, ``trees.leaf_census``
and ``action.is_canonical``: position sets built by comprehension, the
tree built by recursive splitting at the minimum, and canonicity read off
the full leaf census.  The fast kernels in the package must agree with
them exactly, dict key order included.  Only the package's data classes
are imported; no function of the package is called.
"""

from __future__ import annotations

from typing import Iterator

from gesselgamma.stirling import StatProfile, StirlingPermutation
from gesselgamma.trees import LEAF, GesselTree, Internal, Leaf, LeafCensus, Node


def statistics(s: StirlingPermutation) -> StatProfile:
    w = s.word
    K = len(w)

    def sigma(i: int) -> int:
        return w[i - 1] if 1 <= i <= K else 0

    occ_index = [0] * K  # 1-based occurrence rank of each position's value
    first_occ: dict[int, int] = {}
    seen: dict[int, int] = {}
    for pos in range(1, K + 1):
        v = w[pos - 1]
        seen[v] = seen.get(v, 0) + 1
        occ_index[pos - 1] = seen[v]
        if seen[v] == 1:
            first_occ[v] = pos

    ascents = frozenset(i for i in range(1, K + 1) if sigma(i - 1) < sigma(i))
    descents = frozenset(i for i in range(1, K + 1) if sigma(i) > sigma(i + 1))
    plateaus = frozenset(i for i in range(1, K + 1) if sigma(i) == sigma(i + 1))

    plat_by_j: dict[int, int] = {}
    aplat_pos = set()
    dplat_pos = set()
    for i in sorted(plateaus):
        j = occ_index[i]  # occurrence rank of the right copy at position i+1
        plat_by_j[j] = plat_by_j.get(j, 0) + 1
        if sigma(i - 1) < sigma(i):
            aplat_pos.add(i)
        elif sigma(i - 1) > sigma(i):
            dplat_pos.add(i)

    dfall_pos = frozenset(
        i for i in descents if first_occ[sigma(i)] - 1 in descents
    )

    return StatProfile(
        asc=len(ascents),
        des=len(descents),
        plat=len(plateaus),
        plat_by_j=plat_by_j,
        dfall=len(dfall_pos),
        aplat=len(aplat_pos),
        dplat=len(dplat_pos),
        ascent_positions=ascents,
        descent_positions=descents,
        plateau_positions=plateaus,
        dfall_positions=dfall_pos,
        aplat_positions=frozenset(aplat_pos),
        dplat_positions=frozenset(dplat_pos),
    )


def internal_vertices(node: Node) -> Iterator[Internal]:
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Internal):
            yield cur
            stack.extend(cur.children)


def gessel_forward(s: StirlingPermutation) -> GesselTree:
    def build(word: tuple[int, ...]) -> Node:
        if not word:
            return LEAF
        i = min(word)
        parts: list[tuple[int, ...]] = []
        start = 0
        for pos, v in enumerate(word):
            if v == i:
                parts.append(word[start:pos])
                start = pos + 1
        parts.append(word[start:])
        return Internal(i, tuple(build(p) for p in parts))

    return GesselTree(build(s.word), s.multiset)


def gessel_inverse(t: GesselTree) -> StirlingPermutation:
    """The reading only; the package version validates the tree first."""
    out: list[int] = []

    def read(node: Node) -> None:
        if isinstance(node, Leaf):
            return
        for idx, child in enumerate(node.children):
            if idx:
                out.append(node.label)
            read(child)

    read(t.root)
    return StirlingPermutation(tuple(out), t.multiset)


def leaf_census(t: GesselTree) -> LeafCensus:
    xleaf = yleaf = zleaf = 0
    zleaf_by_j: dict[int, int] = {}
    per_vertex: dict[int, tuple[bool, bool, int]] = {}
    for v in internal_vertices(t.root):
        last = len(v.children)
        has_x = isinstance(v.children[0], Leaf)
        has_y = isinstance(v.children[-1], Leaf)
        z_count = 0
        for j in range(2, last):
            if isinstance(v.children[j - 1], Leaf):
                z_count += 1
                zleaf_by_j[j] = zleaf_by_j.get(j, 0) + 1
        xleaf += has_x
        yleaf += has_y
        zleaf += z_count
        per_vertex[v.label] = (has_x, has_y, z_count)
    return LeafCensus(xleaf, yleaf, zleaf, zleaf_by_j, per_vertex)


def is_canonical(t: GesselTree) -> bool:
    """No unbalanced-y vertex, read off the full census."""
    return not any(has_y and not has_x
                   for has_x, has_y, _ in leaf_census(t).per_vertex.values())
