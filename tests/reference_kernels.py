"""Slow reference versions of the per-word and polynomial kernels.

These are the original, straightforward bodies of ``stirling.statistics``,
``trees.gessel_forward``, ``trees.gessel_inverse``, ``trees.leaf_census``
and ``action.is_canonical``: position sets built by comprehension, the
tree built by recursive splitting at the minimum, and canonicity read off
the full leaf census.  The fast per-word kernels in the package must agree
with them exactly, dict key order included.

``derive``, ``gamma_extract`` and ``change_of_variables_check`` are the
generic Leibniz loop and the full-row peel the grammar tier started from;
the package's shift-table derivative and half-row peel must give equal
polynomials and tables, and raise the same errors.  ``substitute_uv`` and
``gamma_reconstruct`` rebuild the running sum term by term out of powers
of xy and x + y; the package's one-pass binomial expansion must match them.

``gamma_count_perms`` and ``gamma_count_mma`` are the counting routes as
they were before each got a one-pass key kernel: they read the full
profile of every word.  ``gamma_count_trees`` and ``gamma_count_ternary``
are the tree routes as they were before they placed vertices into slots:
they build the tree of every word and keep the canonical ones, the trees
route by the full census, the ternary route by a one-pass walk.  All
four take the permutations as an argument, so the caller owns the
enumeration and the domain checks.  ``segment`` and
``first_last_occurrence_flags`` find the first and last occurrence of a
value in a list of all its positions, and ``segment`` grows the window
from there; ``segment_word`` and ``gessel_decomposition`` cut that window
out of the word and split it at the copies of the value, where the
package reads subtree words off the slot table.

``parse_tree`` is the tree parser as it was before its token loop became
one ``for`` over the tokens: a ``while`` loop over a token index that
attaches each finished slot and closes every vertex whose ``)`` follows.
It ends by inferring the multiset and validating the table by
``validate_tree``, the package's check as it was before building a
``GesselTree`` ran it, here on a plain holder of the table and the
multiset.  Only a table that passes is built as the package's
``GesselTree``.  The package's parser must return an equal tree, or raise
an exception of the same type with the same message.

The trees here are object trees of their own (``Vertex``, with ``None``
for a leaf, inside a ``Tree``), where the package stores a tree only as
its slot table.  ``gessel_forward`` builds one by recursive splitting,
and ``gessel_tree`` is the one converter: it writes a reference tree as
the package's ``GesselTree``, for comparing results.  The other tree
functions here take and return reference trees.  The flip action is
here on them: ``psi``, ``toggle``, ``canonical_representative`` and
``orbit`` flip one vertex at a time, each by a search and a copy of the
path to it (``_swap_ends_at``), and decide what to flip from the full
census.  ``orbit`` has no size cap.  ``reference_checks`` runs its flips
through these.

``enumerate_stirling`` is the list-and-sort enumerator the package had
before it streamed bare words: it builds every word of the multiset as a
list, sorts it and wraps each word.  ``c_polynomial_enum`` counts the
``(asc, des, plat)`` triples of the full profiles of the permutations it
is given.

Only the package's data classes are imported; no function of the package
is called.  Building a ``GesselTree`` runs the package's ``validate_tree``:
``parse_tree`` runs its own check first, so the package's decides none of
its outcomes, and ``gessel_tree`` is refused, as the package refuses it,
for a reference tree that is not a Gessel tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional

from gesselgamma.errors import (
    DomainError,
    GammaExtractionError,
    ParseError,
    TreeValidationError,
)
from gesselgamma.multiset import Multiset
from gesselgamma.grammar import GrammarRuleSet
from gesselgamma.poly import XYZ, GammaTable, Poly3
from gesselgamma.stirling import StatProfile, StirlingPermutation
from gesselgamma.trees import GesselTree, LeafCensus, TreeViolation


@dataclass(frozen=True)
class Vertex:
    """A labelled vertex; a child is a Vertex, or None for a leaf."""

    label: int
    children: tuple[Optional[Vertex], ...]


@dataclass(frozen=True)
class Tree:
    root: Optional[Vertex]
    multiset: Multiset


def gessel_tree(t: Tree) -> GesselTree:
    """The package's tree of a reference tree: its slot table, row v listing
    the labels of vertex v's children, 0 for a leaf."""
    rows = {v.label: tuple(c.label if c else 0 for c in v.children)
            for v in internal_vertices(t.root)}
    table = ((t.root.label if t.root else 0,), *(rows[v] for v in range(1, len(rows) + 1)))
    return GesselTree(table, t.multiset)


def enumerate_stirling(multiset: Multiset) -> Iterator[StirlingPermutation]:
    words = [()]
    for value, k in enumerate(multiset.mults, start=1):
        block = (value,) * k
        words = [w[:gap] + block + w[gap:] for w in words for gap in range(len(w) + 1)]
    words.sort()
    for w in words:
        yield StirlingPermutation(w, multiset)


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


def internal_vertices(node: Optional[Vertex]) -> Iterator[Vertex]:
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is not None:
            yield cur
            stack.extend(cur.children)


def gessel_forward(s: StirlingPermutation) -> Tree:
    def build(word: tuple[int, ...]) -> Optional[Vertex]:
        if not word:
            return None
        i = min(word)
        parts: list[tuple[int, ...]] = []
        start = 0
        for pos, v in enumerate(word):
            if v == i:
                parts.append(word[start:pos])
                start = pos + 1
        parts.append(word[start:])
        return Vertex(i, tuple(build(p) for p in parts))

    return Tree(build(s.word), s.multiset)


def gessel_inverse(t: Tree) -> StirlingPermutation:
    """The reading only; the package version validates the tree first."""
    out: list[int] = []

    def read(node: Optional[Vertex]) -> None:
        if node is None:
            return
        for idx, child in enumerate(node.children):
            if idx:
                out.append(node.label)
            read(child)

    read(t.root)
    return StirlingPermutation(tuple(out), t.multiset)


def leaf_census(t: Tree) -> LeafCensus:
    xleaf = yleaf = zleaf = 0
    zleaf_by_j: dict[int, int] = {}
    per_vertex: dict[int, tuple[bool, bool, int]] = {}
    for v in internal_vertices(t.root):
        last = len(v.children)
        has_x = v.children[0] is None
        has_y = v.children[-1] is None
        z_count = 0
        for j in range(2, last):
            if v.children[j - 1] is None:
                z_count += 1
                zleaf_by_j[j] = zleaf_by_j.get(j, 0) + 1
        xleaf += has_x
        yleaf += has_y
        zleaf += z_count
        per_vertex[v.label] = (has_x, has_y, z_count)
    return LeafCensus(xleaf, yleaf, zleaf, zleaf_by_j, per_vertex)


def is_canonical(t: Tree) -> bool:
    """No unbalanced-y vertex, read off the full census."""
    return not any(has_y and not has_x
                   for has_x, has_y, _ in leaf_census(t).per_vertex.values())


def _positions(word: tuple[int, ...], i: int) -> list[int]:
    return [p for p, v in enumerate(word, start=1) if v == i]


def segment(s: StirlingPermutation, i: int) -> tuple[int, int]:
    if not 1 <= i <= s.multiset.n:
        raise DomainError(f"value {i} is not in the multiset {{{s.multiset}}}")
    w = s.word
    pos = _positions(w, i)
    r, t = pos[0], pos[-1]
    while r > 1 and w[r - 2] >= i:
        r -= 1
    while t < len(w) and w[t] >= i:
        t += 1
    return (r, t)


def segment_word(s: StirlingPermutation, i: int) -> tuple[int, ...]:
    r, t = segment(s, i)
    return s.word[r - 1 : t]


def gessel_decomposition(s: StirlingPermutation, i: int) -> tuple[tuple[int, ...], ...]:
    seg = segment_word(s, i)
    parts: list[tuple[int, ...]] = []
    start = 0
    for pos, v in enumerate(seg):
        if v == i:
            parts.append(seg[start:pos])
            start = pos + 1
    parts.append(seg[start:])
    return tuple(parts)


def first_last_occurrence_flags(s: StirlingPermutation, i: int) -> tuple[bool, bool]:
    if not 1 <= i <= s.multiset.n:
        raise DomainError(f"value {i} is not in the multiset {{{s.multiset}}}")
    w = s.word
    pos = _positions(w, i)
    p, q = pos[0], pos[-1]
    before = w[p - 2] if p >= 2 else 0
    after = w[q] if q < len(w) else 0
    return (before < i, i > after)


def validate_tree(t: GesselTree | SimpleNamespace) -> list[TreeViolation]:
    m = t.multiset
    table = t.table
    root = table[0][0]
    if m.n == 0:
        if root:
            return [TreeViolation(
                "structure", None, "tree over the empty multiset must be a single leaf")]
        return []
    if not root:
        return [TreeViolation(
            "structure", None, f"root must be an internal vertex for {{{m}}}")]

    n = m.n
    violations: list[TreeViolation] = []
    for v in range(1, len(table)):
        row = table[v]
        if v > n:
            violations.append(TreeViolation(
                "labels", v, f"vertex label {v} outside 1..{n}"))
        elif len(row) != (expected := m.mults[v - 1] + 1):
            violations.append(TreeViolation(
                "arity", v, f"vertex {v} has {len(row)} children, expected {expected}"))
        for c in row:
            if c and c <= v:
                violations.append(TreeViolation(
                    "increasing", c, f"edge ({v} -> {c}) is not label-increasing"))
    for v in range(len(table), n + 1):
        violations.append(TreeViolation("labels", v, f"vertex {v} is missing"))
    return violations


def parse_tree(text: str, multiset: Multiset | None = None) -> GesselTree:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    end = len(tokens)
    if not tokens:
        raise ParseError("unexpected end of tree text")
    # Open vertices, innermost last, each with the slots parsed so far.
    stack: list[tuple[int, list[int]]] = []
    # The row of each closed vertex, and the first duplicate or childless
    # vertex, reported once the text has parsed.
    rows: dict[int, tuple[int, ...]] = {}
    defect: TreeViolation | None = None
    pos = 0
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "*":
            node: int | None = 0
        elif tok == "(":
            if pos >= end or not tokens[pos].isdecimal():
                raise ParseError("expected a vertex label after '('")
            try:
                stack.append((int(tokens[pos]), []))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"vertex label of {len(tokens[pos])} digits is too long") from None
            pos += 1
            node = None
        else:
            raise ParseError(f"expected '(' or '*', got {tok!r}")
        # Attach the finished slot, closing every vertex whose ")" follows.
        while True:
            if node is not None:
                if not stack:
                    break
                stack[-1][1].append(node)
            if pos >= end:
                raise ParseError(f"unclosed '(' for vertex {stack[-1][0]}")
            if tokens[pos] != ")":
                break
            pos += 1
            node, slots = stack.pop()
            if defect is None:
                if node in rows:
                    defect = TreeViolation(
                        "labels", node, f"vertex {node} appears more than once")
                elif len(slots) < 2:
                    defect = TreeViolation(
                        "arity", node,
                        f"vertex {node} has {len(slots)} children, expected at least 2")
            rows[node] = tuple(slots)
        if not stack:
            break
    root = node
    if pos != end:
        raise ParseError(f"trailing tokens after tree: {' '.join(tokens[pos:])!r}")
    if defect is not None:
        raise TreeValidationError([defect])
    # n distinct labels are 1..n unless one lies outside; that label is
    # named, not the labels missing below it, which may be many more than n.
    n = len(rows)
    for label in rows:
        if not 1 <= label <= n:
            raise TreeValidationError([TreeViolation(
                "labels", label, f"vertex label {label} outside 1..{n}")])
    table = ((root,), *(rows[v] for v in range(1, n + 1)))
    inferred = Multiset(tuple(len(row) - 1 for row in table[1:]))
    if multiset is not None and multiset != inferred:
        raise DomainError(
            f"tree implies multiset {{{inferred}}} but {{{multiset}}} was given")
    violations = validate_tree(SimpleNamespace(table=table, multiset=inferred))
    if violations:
        raise TreeValidationError(violations)
    return GesselTree(table, inferred)


def _tally(m: Multiset, keys: Iterable[tuple[int, int]]) -> GammaTable:
    return GammaTable(m.K, Counter(keys))


def c_polynomial_enum(perms: Iterable[StirlingPermutation]) -> Poly3:
    return Poly3(XYZ, Counter((p.asc, p.des, p.plat) for p in map(statistics, perms)))


def gamma_count_perms(m: Multiset, perms: Iterable[StirlingPermutation]) -> GammaTable:
    profiles = map(statistics, perms)
    return _tally(m, ((p.plat, p.des) for p in profiles if p.dfall == 0))


def gamma_count_mma(m: Multiset, perms: Iterable[StirlingPermutation]) -> GammaTable:
    profiles = map(statistics, perms)
    return _tally(m, ((p.des, p.aplat) for p in profiles if p.dplat == 0))


def is_canonical_ternary(t: Tree) -> bool:
    """No z-leaf without an x-leaf, read off the full census."""
    return not any(z_count and not has_x
                   for has_x, _, z_count in leaf_census(t).per_vertex.values())


def gamma_count_trees(m: Multiset, perms: Iterable[StirlingPermutation]) -> GammaTable:
    """The tree of every word, kept when canonical, keyed by its census."""
    trees = (t for t in map(gessel_forward, perms) if is_canonical(t))
    censuses = map(leaf_census, trees)
    return _tally(m, ((c.zleaf, c.yleaf) for c in censuses))


def _ternary_key(t: Tree) -> tuple[int, int] | None:
    """(y-leaves, vertices with both an x-leaf and a z-leaf) of a canonical
    ternary tree, else None, in one walk that stops at the first z-leaf
    without an x-leaf."""
    yleaf = both_xz = 0
    stack = [t.root]
    while stack:
        x, z, y = stack.pop().children
        if z is None:
            if x is not None:
                return None
            both_xz += 1
        else:
            stack.append(z)
        if x is not None:
            stack.append(x)
        if y is None:
            yleaf += 1
        else:
            stack.append(y)
    return yleaf, both_xz


def gamma_count_ternary(m: Multiset, perms: Iterable[StirlingPermutation]) -> GammaTable:
    keys = map(_ternary_key, map(gessel_forward, perms))
    return _tally(m, (key for key in keys if key is not None))


def _swap_ends_at(node: Vertex, i: int) -> Vertex:
    """Swap the first and last children of vertex i, rebuilding the path to it."""
    stack: list[tuple[Optional[Vertex], tuple | None]] = [(node, None)]
    while stack:
        v, up = stack.pop()  # up: (parent, position in it, parent's up), or None
        if v is not None:
            if v.label == i:
                break
            stack.extend((c, (v, pos, up)) for pos, c in enumerate(v.children))
    else:
        return node
    ch = list(v.children)
    ch[0], ch[-1] = ch[-1], ch[0]
    new = Vertex(i, tuple(ch))
    while up is not None:
        parent, pos, up = up
        ch = list(parent.children)
        ch[pos] = new
        new = Vertex(parent.label, tuple(ch))
    return new


def canonical_representative(t: Tree) -> Tree:
    """One search-and-path-copy flip per unbalanced-y vertex, ascending."""
    per_vertex = leaf_census(t).per_vertex
    root = t.root
    for i in sorted(v for v, (has_x, has_y, _) in per_vertex.items() if has_y and not has_x):
        root = _swap_ends_at(root, i)
    return Tree(root, t.multiset)


def psi(t: Tree, i: int) -> Tree:
    """Flip vertex i, by a search and a path copy, when the census says it
    has a y-leaf and no x-leaf."""
    has_x, has_y, _ = leaf_census(t).per_vertex[i]
    return Tree(_swap_ends_at(t.root, i), t.multiset) if has_y and not has_x else t


def toggle(t: Tree, i: int) -> Tree:
    """Flip vertex i when the census says it has exactly one of an x- and a y-leaf."""
    has_x, has_y, _ = leaf_census(t).per_vertex[i]
    return Tree(_swap_ends_at(t.root, i), t.multiset) if has_x != has_y else t


def orbit(t: Tree) -> frozenset[Tree]:
    """Every subset of the representative's unbalanced-x vertices flipped, one
    search-and-path-copy flip at a time, with no cap on the size."""
    canon = canonical_representative(t)
    free = sorted(v for v, (has_x, has_y, _) in leaf_census(canon).per_vertex.items()
                  if has_x and not has_y)
    members = []
    for r in range(len(free) + 1):
        for subset in combinations(free, r):
            root = canon.root
            for i in subset:
                root = _swap_ends_at(root, i)
            members.append(Tree(root, canon.multiset))
    return frozenset(members)



def derive(p: Poly3, rules: GrammarRuleSet) -> Poly3:
    """The generic Leibniz loop: copy each exponent, drop zeros on every add."""
    assert p.vars == rules.vars
    rule_terms = [
        (idx, rules.rules[name].terms) for idx, name in enumerate(rules.vars)
    ]
    out: dict[tuple[int, int, int], int] = {}
    for e, c in p.terms.items():
        for idx, rterms in rule_terms:
            mult = e[idx]
            if not mult:
                continue
            base = list(e)
            base[idx] -= 1
            for re, rc in rterms.items():
                key = (base[0] + re[0], base[1] + re[1], base[2] + re[2])
                s = out.get(key, 0) + c * mult * rc
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return Poly3(p.vars, out)


def _symmetric(p: Poly3) -> bool:
    return all(p.terms.get((b, a, i), 0) == c for (a, b, i), c in p.terms.items())


def _z_slices(p: Poly3) -> dict[int, dict[tuple[int, int], int]]:
    slices: dict[int, dict[tuple[int, int], int]] = {}
    for (a, b, i), c in p.terms.items():
        slices.setdefault(i, {})[(a, b)] = c
    return slices


def _peel_full_row(work: dict[tuple[int, int], int], d: int, i: int,
                   on_peel) -> None:
    """Peel the whole row, both halves, at the minimal x-exponent each time."""
    while work:
        j = min(a for (a, _) in work)
        g = work[(j, d - j)]
        on_peel(j, g)
        for t in range(d - 2 * j + 1):
            e = (j + t, d - j - t)
            s = work.get(e, 0) - g * comb(d - 2 * j, t)
            if s:
                work[e] = s
            elif e in work:
                del work[e]


def gamma_extract(p: Poly3, K: int) -> GammaTable:
    sym_pair = p.vars[:2]
    if not _symmetric(p):
        for (a, b, i), c in sorted(p.terms.items()):
            if p.terms.get((b, a, i), 0) != c:
                raise GammaExtractionError(
                    f"polynomial is not symmetric in {sym_pair[0]}, {sym_pair[1]}",
                    i=i, value=(a, b))
    entries: dict[tuple[int, int], int] = {}
    for i, slice_terms in sorted(_z_slices(p).items()):
        d = K + 1 - i
        for (a, b), c in sorted(slice_terms.items()):
            if a + b != d:
                raise GammaExtractionError(
                    f"z-slice is not homogeneous of degree K+1-i={d}: "
                    f"term has x,y-degree {a + b}", i=i, value=c)

        def on_peel(j, g, i=i, d=d):
            if 2 * j > d:
                raise GammaExtractionError(
                    "residue remains beyond j_max=floor((K+1-i)/2)", i=i, j=j, value=g)
            if g <= 0:
                raise GammaExtractionError(
                    "peeled gamma coefficient is not positive", i=i, j=j, value=g)
            entries[(i, j)] = g

        _peel_full_row(dict(slice_terms), d, i, on_peel)
    return GammaTable(K, entries)


def change_of_variables_check(p: Poly3, signed: bool = False) -> Poly3:
    if not _symmetric(p):
        raise GammaExtractionError(
            f"polynomial is not symmetric in {p.vars[0]}, {p.vars[1]}")
    out: dict[tuple[int, int, int], int] = {}
    for i, slice_terms in sorted(_z_slices(p).items()):
        degrees = {a + b for (a, b) in slice_terms}
        if len(degrees) > 1:
            raise GammaExtractionError(
                "z-slice is not homogeneous in the first two variables", i=i)
        d = degrees.pop()

        def on_peel(j, g, i=i, d=d):
            if not signed and g <= 0:
                raise GammaExtractionError(
                    "peeled coefficient is not positive", i=i, j=j, value=g)
            out[(j, d - 2 * j, i)] = g

        _peel_full_row(dict(slice_terms), d, i, on_peel)
    return Poly3(("u", "v", "z"), out)


def substitute_uv(p: Poly3) -> Poly3:
    """Expand a (u, v, z) polynomial through u -> xy, v -> x + y."""
    if p.vars != ("u", "v", "z"):
        raise DomainError(f"expected a polynomial over {('u', 'v', 'z')}, got {p.vars}")
    x = Poly3.variable("x")
    y = Poly3.variable("y")
    xy = x * y
    xpy = x + y
    out = Poly3.zero()
    for (a, b, i), c in p.terms.items():
        out = out + (xy ** a) * (xpy ** b) * Poly3.monomial((0, 0, i), c)
    return out


def gamma_reconstruct(table: GammaTable) -> Poly3:
    """Sum of gamma_{i,j} (xy)^j (x+y)^(K+1-i-2j) z^i."""
    x = Poly3.variable("x")
    y = Poly3.variable("y")
    xy = x * y
    xpy = x + y
    out = Poly3.zero()
    for (i, j), g in table.sorted_entries():
        e = table.K + 1 - i - 2 * j
        if e < 0:
            raise GammaExtractionError(
                "table entry outside the basis range", i=i, j=j, value=g)
        out = out + (xy ** j) * (xpy ** e) * Poly3.monomial((0, 0, i), g)
    return out
