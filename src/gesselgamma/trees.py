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

Leaves are classified by their position among their parent's children:
the first child slot is an x-leaf, the last a y-leaf, and the slot at
position j (2 <= j <= k) a z-leaf with key j.

Serialized form: ``Internal := "(" LABEL { " " Child } ")"`` where a child
is either an internal vertex or ``"*"`` for a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .errors import DomainError, ParseError, TreeValidationError
from .multiset import Multiset
from .stirling import StirlingPermutation


@dataclass(frozen=True, slots=True)
class Leaf:
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Internal:
    """A labelled vertex.  ``==`` and ``hash`` compare the subtree's preorder
    listing, which is built without recursion, so they work at any depth."""

    label: int
    children: tuple["Node", ...]

    def __eq__(self, other: object) -> bool:
        if type(other) is not Internal:
            return NotImplemented
        return self is other or preorder_key(self) == preorder_key(other)

    def __hash__(self) -> int:
        return hash(preorder_key(self))


Node = Union[Leaf, Internal]

# A tree as a slot table: ``table[v][p]`` is the vertex in child slot p of
# vertex v, or 0 for a leaf; row 0 has one slot, which holds the root (0 over
# the empty multiset).  A flip swaps the ends of one row.
Table = tuple[tuple[int, ...], ...]

LEAF = Leaf()


@dataclass(frozen=True, slots=True)
class GesselTree:
    root: Node
    multiset: Multiset


@dataclass(frozen=True, slots=True)
class TreeViolation:
    kind: str  # "labels" | "arity" | "increasing" | "structure"
    vertex: int | None
    message: str


@dataclass(frozen=True)
class LeafCensus:
    """Leaf counts of a Gessel tree, overall and per internal vertex.

    ``per_vertex`` maps each label to ``(has_x, has_y, z_count)``;
    ``zleaf_by_j`` counts z-leaves by their child-position key j.
    """

    xleaf: int
    yleaf: int
    zleaf: int
    zleaf_by_j: dict[int, int]
    per_vertex: dict[int, tuple[bool, bool, int]]

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.xleaf, self.yleaf, self.zleaf)


def preorder_key(node: Node) -> tuple:
    """The vertices below (and at) a node in preorder: an internal vertex as
    its label and child count, a leaf as None.  Two nodes have the same key
    exactly when they are the same tree."""
    out: list = []
    stack = [node]
    while stack:
        x = stack.pop()
        if type(x) is Internal:
            children = x.children
            out.append(x.label)
            out.append(len(children))
            stack.extend(children[::-1])
        else:
            out.append(None)
    return tuple(out)


def gessel_forward(s: StirlingPermutation) -> GesselTree:
    """Map a Stirling permutation to its Gessel tree in one left-to-right scan.

    The stack holds the open vertices, labels increasing upwards, each with
    the children finished so far.  A letter smaller than the top label
    closes that vertex: in a Stirling word no copy of it can follow.  A
    letter equal to the top label ends one child slot; any other letter
    opens a new vertex whose first child is whatever was just closed.
    """
    stack: list[tuple[int, list[Node]]] = []
    for c in s.word:
        done: Node = LEAF
        while stack and stack[-1][0] > c:
            label, children = stack.pop()
            children.append(done)
            done = Internal(label, tuple(children))
        if stack and stack[-1][0] == c:
            stack[-1][1].append(done)
        else:
            stack.append((c, [done]))
    root: Node = LEAF
    while stack:
        label, children = stack.pop()
        children.append(root)
        root = Internal(label, tuple(children))
    return GesselTree(root, s.multiset)


def table_of_word(word: tuple[int, ...], mults: tuple[int, ...]) -> Table:
    """The slot table of a Stirling word's Gessel tree, in the scan of
    :func:`gessel_forward`: each child goes into the next slot of its
    parent's row instead of into a new node."""
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


def table_of_tree(node: Node) -> Table:
    """The slot table of the tree below a node.

    Raises DomainError, naming a label, unless the n labels are 1..n, each
    once.
    """
    rows: dict[int, tuple[int, ...]] = {}
    stack = [node] if type(node) is Internal else []
    while stack:
        v = stack.pop()
        if v.label in rows:
            raise DomainError(f"vertex label {v.label} appears more than once")
        row = []
        for c in v.children:
            if type(c) is Internal:
                row.append(c.label)
                stack.append(c)
            else:
                row.append(0)
        rows[v.label] = tuple(row)
    n = len(rows)
    for label in rows:
        if not 1 <= label <= n:
            raise DomainError(f"vertex label {label} outside 1..{n}")
    root = node.label if type(node) is Internal else 0
    return ((root,), *(rows[v] for v in range(1, n + 1)))


def gessel_inverse(t: GesselTree) -> StirlingPermutation:
    """Read a Gessel tree back to its Stirling permutation.

    The tree is validated first; a malformed tree raises
    :class:`TreeValidationError`.
    """
    violations = validate_tree(t)
    if violations:
        raise TreeValidationError(violations)
    return StirlingPermutation(_word_of(t.root), t.multiset)


def _word_of(node: Node) -> tuple[int, ...]:
    """The word a tree reads back to, left to right, with no validation."""
    out: list[int] = []
    stack: list[Node | int] = [node]
    while stack:
        x = stack.pop()
        if type(x) is int:
            out.append(x)
        elif type(x) is Internal:
            # The stack holds what is still to be read, next item on top.
            # Leaves read as nothing, so only labels and subtrees go on it.
            children = x.children
            label = x.label
            stack.append(children[-1])
            for child in children[-2::-1]:
                stack.append(label)
                if type(child) is Internal:
                    stack.append(child)
    return tuple(out)


def validate_tree(t: GesselTree) -> list[TreeViolation]:
    """Structural validation; returns one violation record per defect."""
    m = t.multiset
    violations: list[TreeViolation] = []
    if m.n == 0:
        if not isinstance(t.root, Leaf):
            violations.append(TreeViolation(
                "structure", None, "tree over the empty multiset must be a single leaf"))
        return violations
    if isinstance(t.root, Leaf):
        violations.append(TreeViolation(
            "structure", None, f"root must be an internal vertex for {{{m}}}"))
        return violations

    n = m.n
    seen: dict[int, int] = {}
    stack = [t.root]  # internal vertices only, each after its parent
    while stack:
        v = stack.pop()
        label = v.label
        children = v.children
        seen[label] = seen.get(label, 0) + 1
        in_range = 1 <= label <= n
        if not in_range:
            violations.append(TreeViolation(
                "labels", label, f"vertex label {label} outside 1..{n}"))
        elif len(children) != (expected := m.mults[label - 1] + 1):
            violations.append(TreeViolation(
                "arity", label,
                f"vertex {label} has {len(children)} children, expected {expected}"))
        for child in children:
            if type(child) is Internal:
                stack.append(child)
                if in_range and child.label <= label:
                    violations.append(TreeViolation(
                        "increasing", child.label,
                        f"edge ({label} -> {child.label}) is not label-increasing"))
    for label in range(1, n + 1):
        c = seen.get(label, 0)
        if c == 0:
            violations.append(TreeViolation(
                "labels", label, f"vertex {label} is missing"))
        elif c > 1:
            violations.append(TreeViolation(
                "labels", label, f"vertex {label} appears {c} times"))
    return violations


def leaf_census(t: GesselTree) -> LeafCensus:
    """Count leaves by kind, vertices in the order of :func:`table_census`."""
    return table_census(table_of_tree(t.root))


def table_census(table: Table) -> LeafCensus:
    """The leaf census of the tree a slot table describes.

    ``per_vertex`` lists the vertices depth first from the root, the
    subtrees of a vertex taken last child first.
    """
    xleaf = yleaf = zleaf = 0
    zleaf_by_j: dict[int, int] = {}
    per_vertex: dict[int, tuple[bool, bool, int]] = {}
    stack = [v for v in table[0] if v]
    while stack:
        v = stack.pop()
        row = table[v]
        last = len(row) - 1
        has_x = not row[0]
        has_y = not row[last]
        z_count = 0
        for pos, child in enumerate(row):
            if child:
                stack.append(child)
            elif 0 < pos < last:
                z_count += 1
                zleaf_by_j[pos + 1] = zleaf_by_j.get(pos + 1, 0) + 1
        xleaf += has_x
        yleaf += has_y
        zleaf += z_count
        per_vertex[v] = (has_x, has_y, z_count)
    return LeafCensus(xleaf, yleaf, zleaf, zleaf_by_j, per_vertex)


def segment(s: StirlingPermutation, i: int) -> tuple[int, int]:
    """The i-segment as a 1-based inclusive index window (r, s).

    This is the maximal contiguous window that contains every occurrence
    of i and consists of elements >= i: starting from the span of the
    occurrences of i, grow outwards while the neighbouring element is at
    least i.  Maximality pins the window down uniquely; it coincides with
    the subword the Gessel tree hangs below vertex i.
    """
    if not 1 <= i <= s.multiset.n:
        raise DomainError(f"value {i} is not in the multiset {{{s.multiset}}}")
    w = s.word
    r = w.index(i) + 1  # first and last occurrence of i, 1-based
    t = len(w) - w[::-1].index(i)
    while r > 1 and w[r - 2] >= i:
        r -= 1
    while t < len(w) and w[t] >= i:
        t += 1
    return (r, t)


def segment_word(s: StirlingPermutation, i: int) -> tuple[int, ...]:
    r, t = segment(s, i)
    return s.word[r - 1 : t]


def gessel_decomposition(s: StirlingPermutation, i: int) -> tuple[tuple[int, ...], ...]:
    """Split the i-segment at the k_i copies of i into k_i + 1 factors.

    Each nonempty factor is itself the segment of its own minimum, which
    is how the tree recursion consumes the word.
    """
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
    """(first occurrence of i is an ascent, last occurrence is a descent)."""
    if not 1 <= i <= s.multiset.n:
        raise DomainError(f"value {i} is not in the multiset {{{s.multiset}}}")
    w = s.word
    p = w.index(i)  # the first occurrence, 0-based: w[p - 1] is read before it
    q = len(w) - w[::-1].index(i)  # the last, 1-based: w[q] is read after it
    before = w[p - 1] if p else 0
    after = w[q] if q < len(w) else 0
    return (before < i, i > after)


def render_tree(node: Node, head: Callable[[int], str] = str) -> str:
    """Write ``(head(label) child ...)`` with ``*`` for leaves, without recursion.

    The stack holds what is still to be written, text or a vertex, next
    item on top.
    """
    parts: list[str] = []
    stack: list[Node | str] = [node]
    while stack:
        x = stack.pop()
        if type(x) is str:
            parts.append(x)
        elif type(x) is Internal:
            parts.append(f"({head(x.label)}")
            stack.append(")")
            for child in reversed(x.children):
                if type(child) is Internal:
                    stack.append(child)
                    stack.append(" ")
                else:
                    stack.append(" *")
        else:
            parts.append("*")
    return "".join(parts)


def serialize(tree_or_node: GesselTree | Node) -> str:
    """Write a tree in the ``(label child ...)`` form with ``*`` for leaves."""
    node = tree_or_node.root if isinstance(tree_or_node, GesselTree) else tree_or_node
    return render_tree(node)


def parse_tree(text: str, multiset: Multiset | None = None) -> GesselTree:
    """Parse the serialized form and validate the result.

    The multiset is inferred from the tree (vertex i with c children has
    k_i = c - 1) unless one is supplied, in which case they must agree.
    Syntax errors raise :class:`ParseError`; a syntactically fine but
    structurally invalid tree raises :class:`TreeValidationError`.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    end = len(tokens)
    if not tokens:
        raise ParseError("unexpected end of tree text")
    # Open vertices, innermost last, each with the children parsed so far.
    stack: list[tuple[int, list[Node]]] = []
    # k_i of each closed vertex, and the first duplicate or childless
    # vertex, reported once the text has parsed.
    counts: dict[int, int] = {}
    defect: TreeViolation | None = None
    pos = 0
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "*":
            node: Node | None = LEAF
        elif tok == "(":
            if pos >= end or not tokens[pos].isdecimal():
                raise ParseError("expected a vertex label after '('")
            stack.append((int(tokens[pos]), []))
            pos += 1
            node = None
        else:
            raise ParseError(f"expected '(' or '*', got {tok!r}")
        # Attach the finished node, closing every vertex whose ")" follows.
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
            label, children = stack.pop()
            node = Internal(label, tuple(children))
            if defect is None:
                if label in counts:
                    defect = TreeViolation(
                        "labels", label, f"vertex {label} appears more than once")
                elif len(children) < 2:
                    defect = TreeViolation(
                        "arity", label,
                        f"vertex {label} has {len(children)} children, expected at least 2")
            counts[label] = len(children) - 1
        if not stack:
            break
    root = node
    if pos != end:
        raise ParseError(f"trailing tokens after tree: {' '.join(tokens[pos:])!r}")
    if defect is not None:
        raise TreeValidationError([defect])
    if counts:
        n = max(counts)
        missing = [i for i in range(1, n + 1) if i not in counts]
        if missing:
            raise TreeValidationError([TreeViolation(
                "labels", i, f"vertex {i} is missing") for i in missing])
        inferred = Multiset(tuple(counts[i] for i in range(1, n + 1)))
    else:
        inferred = Multiset(())
    if multiset is not None and multiset != inferred:
        raise DomainError(
            f"tree implies multiset {{{inferred}}} but {{{multiset}}} was given")
    tree = GesselTree(root, inferred)
    violations = validate_tree(tree)
    if violations:
        raise TreeValidationError(violations)
    return tree
