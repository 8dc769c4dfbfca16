"""Increasing plane trees and the Gessel correspondence.

A Gessel tree for the multiset {1^k1, ..., n^kn} is a plane tree whose
internal vertices are labelled 1..n (each exactly once), labels increase
away from the root, vertex i has exactly k_i + 1 ordered children, and the
K + 1 remaining slots are unlabelled leaves.

The correspondence sends a Stirling permutation w to a tree recursively:
the empty word maps to a single leaf; otherwise the smallest value i
splits w as w0 i w1 i ... i w_ki and the tree has root i whose children
are the images of w0, ..., w_ki.  Reading the tree back left to right
(writing the root label between consecutive subtrees) inverts the map.

A tree is stored as its slot table (``Table``), the one tree form of the
package: row v lists the children of vertex v, a vertex by its label and a
leaf as 0.  :func:`table_of_word` builds it in one left-to-right scan of
the word and :func:`word_of_table` reads the word back off the rows, also
of a subtree: the i-segment of a word and its split at the copies of i
are the words of the subtrees under vertex i and its slots.  Building a
:class:`GesselTree` runs :func:`validate_tree`, the one check that a table
is a Gessel tree over its multiset, and refuses every other table; so each
tree the package holds is one, checked once, and every walk from its root
ends.

Leaves are classified by their position among their parent's children:
the first child slot is an x-leaf, the last a y-leaf, and the slot at
position j (2 <= j <= k) a z-leaf with key j.

Serialized form: ``Vertex := "(" LABEL { " " Child } ")"`` where a child
is either a vertex or ``"*"`` for a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import DomainError, ParseError, TreeValidationError
from .multiset import Multiset
from .stirling import StirlingPermutation, first_last_positions

# A tree as a slot table: ``table[v][p]`` is the vertex in child slot p of
# vertex v, or 0 for a leaf; row 0 has one slot, which holds the root (0 over
# the empty multiset).  A flip swaps the ends of one row.
Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class GesselTree:
    """A Gessel tree, as its slot table, over a multiset.

    Building one runs :func:`validate_tree` and raises
    TreeValidationError, listing every defect, for a table that is not a
    Gessel tree over the multiset.
    """

    table: Table
    multiset: Multiset

    def __post_init__(self) -> None:
        violations = validate_tree(self)
        if violations:
            raise TreeValidationError(violations)


@dataclass(frozen=True, slots=True)
class TreeViolation:
    kind: str  # "labels" | "arity" | "increasing" | "structure"
    vertex: int | None
    message: str


class LeafCensus(NamedTuple):
    """Leaf counts of a Gessel tree, overall and per internal vertex.

    ``per_vertex`` maps each label to ``(has_x, has_y, z_count)``;
    ``zleaf_by_j`` counts z-leaves by their child-position key j.  A named
    tuple, like ``stirling.StatProfile``: the harness builds one per word,
    and a frozen dataclass cost two to three times as much to build.
    """

    xleaf: int
    yleaf: int
    zleaf: int
    zleaf_by_j: dict[int, int]
    per_vertex: dict[int, tuple[bool, bool, int]]

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.xleaf, self.yleaf, self.zleaf)


def gessel_forward(s: StirlingPermutation) -> GesselTree:
    """Map a Stirling permutation to its Gessel tree."""
    return GesselTree(table_of_word(s.word, s.multiset.mults), s.multiset)


def table_of_word(word: tuple[int, ...], mults: tuple[int, ...]) -> Table:
    """The slot table of a Stirling word's Gessel tree, in one left-to-right scan.

    The stack holds the open vertices, labels increasing upwards.  A letter
    smaller than the top label closes that vertex: in a Stirling word no
    copy of it can follow.  A letter equal to the top label ends one child
    slot; any other letter opens a new vertex whose first child is whatever
    was just closed.  Each child goes into the next slot of its parent's row.
    """
    rows = [[0]] + [[0] * (k + 1) for k in mults]
    fill = [0] * len(rows)  # the next slot of each open vertex
    stack: list[int] = []
    for c in word:
        done = 0
        while stack and stack[-1] > c:
            v = stack.pop()
            rows[v][-1] = done
            done = v
        if stack and stack[-1] == c:
            rows[c][fill[c]] = done
            fill[c] += 1
        else:
            stack.append(c)
            rows[c][0] = done
            fill[c] = 1
    done = 0
    while stack:
        v = stack.pop()
        rows[v][-1] = done
        done = v
    rows[0][0] = done
    return tuple(map(tuple, rows))


def gessel_inverse(t: GesselTree) -> StirlingPermutation:
    """Read a Gessel tree back to its Stirling permutation."""
    return StirlingPermutation(word_of_table(t.table), t.multiset)


def word_of_table(table: Table) -> tuple[int, ...]:
    """The word a slot table reads back to, left to right, with no validation:
    the subtree of each slot of a row, with the row's vertex written between
    consecutive slots.

    The stack holds each open vertex with an iterator over its row.  The
    vertex is written after each of its slots, a leaf at once and a vertex
    once its own row is done, and the copy after the last slot is taken
    back when the row ends.
    """
    root = table[0][0]
    if not root:
        return ()
    out: list[int] = []
    stack = [(root, iter(table[root]))]
    while stack:
        v, slots = stack[-1]
        for c in slots:
            if c:
                stack.append((c, iter(table[c])))
                break
            out.append(v)
        else:
            out.pop()
            stack.pop()
            if stack:
                out.append(stack[-1][0])
    return tuple(out)


def validate_tree(t: GesselTree) -> list[TreeViolation]:
    """Whether t's table is a Gessel tree over t's multiset; returns one
    violation record per defect, none for a Gessel tree.

    Row 0 must hold the root alone: a single leaf over the empty multiset,
    and otherwise a vertex.  In one scan of the rows, each row v of 1..n
    must have k_v + 1 slots, each vertex 1..n must sit in exactly one slot
    of a smaller label's row (row 0 counting as label 0), and no row may
    lie past n.  Labels then increase along every edge, so a table that
    passes is one tree and every walk from its root ends.
    """
    m = t.multiset
    table = t.table
    mults = m.mults
    n = len(mults)
    if not table or len(table[0]) != 1:
        return [TreeViolation(
            "structure", None, "row 0 of a slot table must hold the root alone")]
    if (not table[0][0]) != (not n):
        return [TreeViolation("structure", None,
                              f"root must be an internal vertex for {{{m}}}" if n else
                              "tree over the empty multiset must be a single leaf")]

    placed = [True] + [False] * n  # placed[c]: vertex c sits in a slot
    violations: list[TreeViolation] = []
    v = 0  # the label of the row; a counter is faster here than enumerate()
    for row in table:
        if v > n:
            violations.append(TreeViolation(
                "labels", v, f"vertex label {v} outside 1..{n}"))
        elif v and len(row) != (expected := mults[v - 1] + 1):
            violations.append(TreeViolation(
                "arity", v, f"vertex {v} has {len(row)} children, expected {expected}"))
        for c in row:
            if c:
                if v < c <= n and not placed[c]:
                    placed[c] = True
                elif not 0 < c <= n:
                    violations.append(TreeViolation(
                        "labels", c, f"vertex label {c} outside 1..{n}"))
                elif placed[c]:
                    violations.append(TreeViolation(
                        "labels", c, f"vertex {c} appears more than once"))
                else:
                    placed[c] = True
                    violations.append(TreeViolation(
                        "increasing", c, f"edge ({v} -> {c}) is not label-increasing"))
        v += 1
    if len(table) <= n or not all(placed):
        violations += [
            TreeViolation("labels", v, f"vertex {v} is missing") if v >= len(table) else
            TreeViolation("structure", v, f"vertex {v} is not reached from the root")
            for v in range(1, n + 1) if v >= len(table) or not placed[v]]
    # A label past n both in a slot and as a row is one defect.
    return list(dict.fromkeys(violations)) if violations else violations


def leaf_census(t: GesselTree) -> LeafCensus:
    """Count leaves by kind, vertices in the order of :func:`table_census`."""
    return table_census(t.table)


def table_census(table: Table) -> LeafCensus:
    """The leaf census of the tree a slot table describes.

    ``per_vertex`` lists the vertices depth first from the root, the
    subtrees of a vertex taken last child first.  A row's ends are read
    once, for its x- and y-leaf, and only its middle slots are looped over.
    """
    xleaf = yleaf = zleaf = 0
    zleaf_by_j: dict[int, int] = {}
    per_vertex: dict[int, tuple[bool, bool, int]] = {}
    stack = [v for v in table[0] if v]
    while stack:
        v = stack.pop()
        row = table[v]
        first = row[0]
        if first:
            stack.append(first)
        z_count = 0
        for p in range(1, len(row) - 1):
            child = row[p]
            if child:
                stack.append(child)
            else:
                z_count += 1
                zleaf_by_j[p + 1] = zleaf_by_j.get(p + 1, 0) + 1
        last = row[-1]
        if last:
            stack.append(last)
        has_x = not first
        has_y = not last
        xleaf += has_x
        yleaf += has_y
        zleaf += z_count
        per_vertex[v] = (has_x, has_y, z_count)
    return LeafCensus(xleaf, yleaf, zleaf, zleaf_by_j, per_vertex)


def _rooted_at(s: StirlingPermutation, i: int) -> Table:
    """The slot table of s's tree with vertex i in row 0, which reads back
    the subtree under i; i must be a value of s's multiset."""
    if not 1 <= i <= s.multiset.n:
        raise DomainError(f"value {i} is not in the multiset {{{s.multiset}}}")
    return ((i,), *table_of_word(s.word, s.multiset.mults)[1:])


def segment(s: StirlingPermutation, i: int) -> tuple[int, int]:
    """The i-segment as a 1-based inclusive index window (r, s).

    This is the maximal contiguous window that contains every occurrence
    of i and consists of elements >= i.  Its letters are the word of the
    subtree under vertex i (:func:`segment_word`), whose first i is the
    first i of the word.
    """
    seg = segment_word(s, i)
    r = s.word.index(i) + 1 - seg.index(i)
    return (r, r + len(seg) - 1)


def segment_word(s: StirlingPermutation, i: int) -> tuple[int, ...]:
    """The letters of the i-segment: the word of the subtree under vertex i."""
    return word_of_table(_rooted_at(s, i))


def gessel_decomposition(s: StirlingPermutation, i: int) -> tuple[tuple[int, ...], ...]:
    """Split the i-segment at the k_i copies of i into k_i + 1 factors.

    The factors are the words of the subtrees in the child slots of vertex
    i, so each nonempty one is itself the segment of its own minimum,
    which is how the tree recursion consumes the word.
    """
    table = _rooted_at(s, i)
    return tuple(word_of_table(((c,), *table[1:])) for c in table[i])


def first_last_occurrence_flags(s: StirlingPermutation, i: int) -> tuple[bool, bool]:
    """(first occurrence of i is an ascent, last occurrence is a descent),
    read around the positions ``stirling.first_last_positions`` finds."""
    if not 1 <= i <= s.multiset.n:
        raise DomainError(f"value {i} is not in the multiset {{{s.multiset}}}")
    w = s.word
    first, last = first_last_positions(w, s.multiset.n)
    padded = (0, *w, 0)  # padded[p] is the letter at 1-based position p
    return (padded[first[i] - 1] < i, i > padded[last[i] + 1])


def render_table(table: Table, head: Callable[[int], str] = str) -> str:
    """Write ``(head(label) child ...)`` with ``*`` for leaves, without recursion.

    Row v lists the children of vertex v; a row may be empty, as in a
    pruned tree, and writes as ``(head(v))``.  The stack holds an iterator
    over the row of each open vertex, innermost last; a vertex's ")" is
    written when its iterator runs out.
    """
    root = table[0][0]
    if not root:
        return "*"
    parts = [f"({head(root)}"]
    stack = [iter(table[root])]
    while stack:
        for c in stack[-1]:
            if c:
                parts.append(f" ({head(c)}")
                stack.append(iter(table[c]))
                break
            parts.append(" *")
        else:
            parts.append(")")
            stack.pop()
    return "".join(parts)


def serialize(t: GesselTree) -> str:
    """Write a tree in the ``(label child ...)`` form with ``*`` for leaves."""
    return render_table(t.table)


def parse_tree(text: str, multiset: Multiset | None = None) -> GesselTree:
    """Parse the serialized form and validate the result.

    The multiset is inferred from the tree (vertex i with c children has
    k_i = c - 1) unless one is supplied: then the arities must be its
    multiplicities, and the tree is built over it.
    Syntax errors raise :class:`ParseError`; a syntactically fine but
    structurally invalid tree raises :class:`TreeValidationError`.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ParseError("unexpected end of tree text")
    # One pass over the tokens.  Each open vertex has a list of the slots
    # read so far on ``stack``, innermost last, and its label on ``labels``;
    # ``slots`` is the innermost list.  A closed vertex's row goes into
    # ``rows``; the first duplicate or childless vertex is reported only
    # once the whole text has parsed, and its row is not kept.
    stack: list[list[int]] = []
    labels: list[int] = []
    rows: dict[int, tuple[int, ...]] = {}
    defect: TreeViolation | None = None
    root = 0
    it = iter(tokens)
    if tokens[0] == "(":
        for tok in it:
            if tok == "*":
                slots.append(0)
            elif tok == ")":
                row = tuple(slots)
                label = labels.pop()
                if len(row) < 2 or rows.setdefault(label, row) is not row:
                    if defect is None:
                        defect = (
                            TreeViolation("labels", label,
                                          f"vertex {label} appears more than once")
                            if label in rows else
                            TreeViolation("arity", label,
                                          f"vertex {label} has {len(row)} children, "
                                          "expected at least 2"))
                stack.pop()
                if not stack:
                    root = label
                    break
                slots = stack[-1]
                slots.append(label)
            elif tok == "(":
                tok = next(it, "")
                if not tok.isdecimal():
                    raise ParseError("expected a vertex label after '('")
                try:
                    labels.append(int(tok))
                except ValueError:  # more digits than int() converts
                    raise ParseError(f"vertex label of {len(tok)} digits is too long") from None
                slots = []
                stack.append(slots)
            else:
                raise ParseError(f"expected '(' or '*', got {tok!r}")
        else:
            raise ParseError(f"unclosed '(' for vertex {labels[-1]}")
    elif next(it) != "*":  # a "*" alone is the tree of the empty multiset
        raise ParseError(f"expected '(' or '*', got {tokens[0]!r}")
    rest = list(it)
    if rest:
        raise ParseError(f"trailing tokens after tree: {' '.join(rest)!r}")
    if defect is not None:
        raise TreeValidationError([defect])
    # n distinct labels are 1..n unless one lies outside; that label is
    # named, not the labels missing below it, which may be many more than n.
    n = len(rows)
    if rows and (min(rows) < 1 or max(rows) > n):
        label = next(v for v in rows if not 1 <= v <= n)
        raise TreeValidationError([TreeViolation(
            "labels", label, f"vertex label {label} outside 1..{n}")])
    table = ((root,), *map(rows.__getitem__, range(1, n + 1)))
    arities = tuple([len(row) - 1 for row in table[1:]])
    if multiset is None:
        multiset = Multiset(arities)
    elif arities != multiset.mults:
        raise DomainError(
            f"tree implies multiset {{{Multiset(arities)}}} but {{{multiset}}} was given")
    return GesselTree(table, multiset)
