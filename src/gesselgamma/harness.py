"""Theorem-verification campaigns over families of multisets.

Each check exhaustively tests one identity on one multiset at a time and
reports a counterexample payload on failure (the multiset, the offending
permutation or tree, and both sides of the failed equality).  A check runs
only inside a campaign task, one multiset and its checks, which share a
context dropped before the next task; one check on one multiset is
``verify(id, [m])``.  The context fixes its layers from the reads of the
task's checks and makes one pass over the multiset's words, which hands
them to every layer a block at a time, as columns: the words, bare
tuples as ``enumerate_stirling`` yields them, then the slot tables of
their trees, their triples, profiles, leaf censuses and first and last
positions, each built by one call of its kernel per word if a layer
reads it, and read only through ``PassBlock.read``.  No layer builds a
``StirlingPermutation``; a failure writes its word as text.  The layers are
the tally that is the enumerated polynomial, the per-word checks, T4.3's
weights and ROUNDTRIP, which writes each table out and parses it back;
its order check keeps its own last word.  Only what they sum up is kept.
ORBIT reads no word: it takes the canonical tables from ``placements``
and checks their orbits one at a time.  The independent routes the
checks compare against still compute on their own.  Campaigns can hand
whole multisets to a process pool.  Every campaign and every command
that lists words asks ``admit_enumeration`` first, which refuses a
family past a fixed cap on its words or on their letters.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator

from .action import (
    balance_report,
    canonical_representative,
    is_canonical,
    is_canonical_table,
    is_canonical_ternary,
    placements,
    prune,
    table_orbit,
)
from .counts import GAMMA_ROUTES, c_polynomial_enum
from .errors import COST_TEXT_BOUND, DomainError, FamilyTooLargeError
from .grammar import c_polynomial_grammar, gamma_polynomial_grammar
from .multiset import Multiset
from .poly import (
    UVZ,
    XYZ,
    GammaTable,
    Poly3,
    gamma_extract,
    gamma_table_to_uvz,
    is_symmetric,
)
from .stirling import (
    StirlingPermutation,
    asc_des_plat,
    count_stirling,
    enumerate_stirling,
    first_last_positions,
    insertion_factors,
    statistics,
    word_text,
)
from .trees import (
    Table,
    first_last_occurrence_flags,
    gessel_forward,
    leaf_census,
    parse_tree,
    render_table,
    serialize,
    table_census,
    table_of_word,
    word_of_table,
)

# The most words, and letters (words times K), that one listing may produce.
WORD_CAP = 10**6
LETTER_CAP = 2 * 10**7
# The words a pass over a multiset's words holds at a time, with their
# columns.  A block's objects stay alive until the block is dropped, and
# past 32 words they outgrow the young generation: ``verify --check all``
# on 1^9 set off 5 671 collections (1.0 s) with blocks of 64, and 8 with
# blocks of 32 or 16, which ran no faster.
PASS_BLOCK = 32


# --------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class FamilySpec:
    """A bound-generated family of multisets.

    Bound generation takes every multiplicity vector with 1 <= n <= max_n,
    1 <= k_i <= max_k and K <= max_total, ordered lexicographically.  It
    visits no vector beyond the bounds, so its time follows the family's size.
    """

    max_n: int = 4
    max_k: int = 3
    max_total: int = 10

    def __iter__(self) -> Iterator[Multiset]:
        # Depth first, smallest part first: each vector comes before its
        # extensions and after every smaller vector, which is lexicographic.
        # Each level is a lazy generator, so memory follows max_n, not max_k.
        stack = [self._children(())]
        while stack:
            mults = next(stack[-1], None)
            if mults is None:
                stack.pop()
            else:
                yield Multiset(mults)
                stack.append(self._children(mults))

    def _children(self, mults: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        room = min(self.max_k, self.max_total - sum(mults)) if len(mults) < self.max_n else 0
        return (mults + (k,) for k in range(1, room + 1))

    def members(self) -> list[Multiset]:
        return list(self)


def default_campaign_family() -> list[Multiset]:
    """The default verification family: all bounded multisets plus the
    doubled multisets up to n = 6 and the plain permutation case up to n = 7."""
    members = set(FamilySpec(max_n=4, max_k=3, max_total=10).members())
    members.update(Multiset.uniform(n, 2) for n in range(1, 7))
    members.update(Multiset.uniform(n, 1) for n in range(1, 8))
    return sorted(members, key=lambda m: m.mults)


def family_cost(members: list[Multiset]) -> int:
    return sum(count_stirling(m) for m in members)


def admit_enumeration(members: Iterable[Multiset]) -> list[tuple[Multiset, int]]:
    """The members with their word counts, if listing all their words is admitted.

    Adds up the members' words and letters as it reads them, and raises
    ``FamilyTooLargeError`` at the first member that takes either total
    past WORD_CAP or LETTER_CAP, naming that total.  A member's word count
    stops growing once it passes COST_TEXT_BOUND, where the refusal names
    the bound, so a huge multiset is refused in time linear in its size.
    """
    admitted = []
    words = letters = 0
    for m in members:
        count = 1
        for factor in insertion_factors(m):
            count *= factor
            if count > COST_TEXT_BOUND:
                break
        words += count
        letters += count * m.K
        if words > WORD_CAP:
            raise FamilyTooLargeError(words, WORD_CAP)
        if letters > LETTER_CAP:
            raise FamilyTooLargeError(letters, LETTER_CAP, "letters")
        admitted.append((m, count))
    return admitted


# --------------------------------------------------------------------------
# individual checks; each returns a list of failure payloads (empty = pass)

Failure = dict


def _fail(m: Multiset, detail: str, **extra) -> Failure:
    payload = {"multiset": m.spec(), "detail": detail}
    payload.update(extra)
    return payload


class MultisetContext:
    """What the checks of one campaign task, one multiset, share.

    Its layers (``_LAYERS``) are fixed when it is built: those that the
    checks of ``check_ids`` that apply to m read (``CheckDef.reads``); any
    other layer raises KeyError.  The first read runs the one pass over
    the bare words of ``enumerate_stirling(m)``, in lexicographic order,
    which feeds them to every layer a ``PassBlock`` at a time and drops
    each block, so no list of the words, slot tables or triples is kept.  The context
    holds each layer's outcome (its first failure, what it raised, or
    None) and their sums: ``triples``, the number of words by ``(asc, des,
    plat)``, which ``c_polynomial`` is (``x`` for the empty multiset, like
    ``c_polynomial_enum``); ROUNDTRIP's ``words``, ``distinct`` words and
    ``last_word``; and T4.3's ``weights``, the canonical trees by
    ``(u, v, z)``.  ``gamma`` is the table extracted from
    ``c_polynomial``; ``route(name)`` is the table by a ``GAMMA_ROUTES``
    route, computed once, and for ``extract`` it is ``gamma``.
    """

    def __init__(self, m: Multiset, check_ids: Iterable[str]):
        self.multiset = m
        reads = set().union(*(CHECKS[c].reads for c in check_ids if CHECKS[c].applies_to(m)))
        self._layers = {name: feed for name, feed in _LAYERS.items() if name in reads}
        self._routes: dict[str, GammaTable] = {}
        self._outcomes: dict[str, Failure | Exception | None] | None = None
        self.triples: Counter[tuple[int, int, int]] = Counter()
        self.words = self.distinct = 0
        self.last_word: tuple[int, ...] | None = None
        self.weights: Counter[tuple[int, int, int]] = Counter()

    @cached_property
    def c_polynomial(self) -> Poly3:
        if self.multiset.n == 0:
            return Poly3.variable("x", XYZ)
        self.outcome("polynomial")
        return Poly3(XYZ, self.triples)

    @cached_property
    def gamma(self) -> GammaTable:
        return gamma_extract(self.c_polynomial, self.multiset.K)

    def route(self, name: str) -> GammaTable:
        if name == "extract":
            return self.gamma
        if name not in self._routes:
            self._routes[name] = GAMMA_ROUTES[name](self.multiset)
        return self._routes[name]

    def outcome(self, layer: str) -> Failure | None:
        """A layer's first failure, or None; what the layer raised is re-raised."""
        if self._outcomes is None:
            self._outcomes = self._pass()
        outcome = self._outcomes[layer]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _pass(self) -> dict[str, Failure | Exception | None]:
        """The outcome of each layer of this context, from one pass over the words.

        The words come in blocks of ``PASS_BLOCK`` (``PassBlock``), and
        each layer reads a whole block before the next layer does, column
        by column.  Each layer stops at its own first failure or
        exception.  If the enumeration itself raises, every layer of the
        pass has raised it.
        """
        m = self.multiset
        layers = list(self._layers.items())
        outcomes: dict[str, Failure | Exception | None] = dict.fromkeys(self._layers)
        try:
            words = enumerate_stirling(m)
            while layers:
                block = PassBlock(self, list(islice(words, PASS_BLOCK)))
                if not block.words:
                    break
                for name, feed in layers:
                    try:
                        outcomes[name] = feed(m, block)
                    except Exception as exc:  # a crash fails this layer only
                        outcomes[name] = exc
                layers = [(name, feed) for name, feed in layers if outcomes[name] is None]
        except Exception as exc:
            outcomes = dict.fromkeys(outcomes, exc)
        return outcomes


class PassBlock:
    """Up to ``PASS_BLOCK`` words of a pass, as columns; dropped with the block.

    ``words`` are the block's words, bare tuples, in order: the first
    column.  Every other column (``_COLUMNS``) is built on its first read,
    by one ``map`` of its kernel over the words or another column, so each
    kernel runs once per word, and only for a layer that reads it.  A
    column whose kernel raises at word i keeps words 0..i-1 and the
    exception, and every layer reads its columns only through ``read``,
    which yields those words before the exception, so its outcome is the
    one of reading word by word.
    """

    __slots__ = ("ctx", "words", "_columns")

    def __init__(self, ctx: MultisetContext, words: list[tuple[int, ...]]):
        self.ctx, self.words = ctx, words
        self._columns: dict[str, tuple[list, Exception | None]] = {"words": (words, None)}

    def column(self, name: str) -> tuple[list, Exception | None]:
        """A column's values, up to the word its kernel raised at, and that exception."""
        col = self._columns.get(name)
        if col is None:
            col = self._columns[name] = _COLUMNS[name](self)
        return col

    def read(self, *names: str) -> Iterator:
        """The named columns word by word, as tuples, or as values for one
        name; if a kernel raised, the words before its raise and then its
        exception: of the columns' raises, the earliest in word order, and
        the first named of those at the same word."""
        cols = [self.column(name) for name in names]
        rows = zip(*(values for values, _ in cols)) if len(cols) > 1 else iter(cols[0][0])
        raised = [(len(values), exc) for values, exc in cols if exc is not None]
        if not raised:
            return rows
        return chain(rows, _raising(min(raised, key=lambda r: r[0])[1]))


def _raising(exc: Exception) -> Iterator:
    """An iterator that raises ``exc`` when it is first advanced."""
    raise exc
    yield


def _mapped(kernel: Callable, column: tuple[list, Exception | None],
            *extra: Iterable) -> tuple[list, Exception | None]:
    """``kernel`` over a column's values, ``extra`` alongside: the values before
    its raise and the exception, else the column's raise, at a later word."""
    values: list = []
    try:
        values.extend(map(kernel, column[0], *extra))
    except Exception as exc:
        return values, exc
    return values, column[1]


# How each column of a block past ``words`` is built.  The kernels are
# looked up in this module's globals at each call, so a rebinding of one
# reaches the pass.
_COLUMNS: dict[str, Callable[[PassBlock], tuple[list, Exception | None]]] = {
    "tables": lambda b: _mapped(table_of_word, b.column("words"), repeat(b.ctx.multiset.mults)),
    "triples": lambda b: _mapped(asc_des_plat, b.column("words")),
    "profiles": lambda b: _mapped(statistics, b.column("words"), repeat(b.ctx.multiset.n)),
    "censuses": lambda b: _mapped(table_census, b.column("tables")),
    "ends": lambda b: _mapped(first_last_positions, b.column("words"), repeat(b.ctx.multiset.n)),
}


# The context of the multiset a campaign task is checking, if any.  It is
# set and emptied by _run_multiset, so at most one multiset's outcomes are
# held at a time.
_current: MultisetContext | None = None


def _context(m: Multiset) -> MultisetContext:
    """The context of the campaign task checking m; a check runs only in one."""
    if _current is None or _current.multiset != m:
        raise RuntimeError(f"no campaign task is checking {m.spec()}; call verify")
    return _current


def _mismatch(m: Multiset, what: str, lhs: Poly3 | GammaTable,
              rhs: Poly3 | GammaTable) -> list[Failure]:
    if lhs == rhs:
        return []
    return [_fail(m, what, lhs=lhs.to_json_dict(), rhs=rhs.to_json_dict())]


def _agreement(lhs: str, rhs: str, what: str) -> Callable[[Multiset], list[Failure]]:
    """A check that the gamma tables of two ``GAMMA_ROUTES`` routes are equal."""
    def run(m: Multiset) -> list[Failure]:
        ctx = _context(m)
        return _mismatch(m, what, ctx.route(lhs), ctx.route(rhs))
    return run


def _symmetry(names: tuple[str, ...]) -> Callable[[Multiset], list[Failure]]:
    """A check that the enumerated polynomial is symmetric in the variables ``names``."""
    def run(m: Multiset) -> list[Failure]:
        p = _context(m).c_polynomial
        if not is_symmetric(p, names):
            return [_fail(m, f"polynomial is not symmetric in {', '.join(names)}",
                          lhs=p.to_json_dict())]
        return []
    return run


def _roundtrip(m: Multiset, block: PassBlock) -> Failure | None:
    # Each word's tree, the slot table the other layers read, is written out
    # and parsed back.  The parse validates the parsed table, and the parsed
    # table must equal the written one, which carries that validation back to
    # it; the parse is over m, so the tree must be over m; and the table must
    # read back to the word.  tree -> word -> tree needs no pass of its own:
    # the tables are the forward scan of the words, so once word -> tree ->
    # word is the identity, rebuilding a tree from its word gives back the
    # same tree.  Bijectivity rests on that identity, injectivity and the
    # count.
    ctx, previous = block.ctx, block.ctx.last_word
    words = distinct = 0
    for word, table in block.read("words", "tables"):
        text = render_table(table)
        parsed = parse_tree(text, m).table
        if parsed != table:
            return _fail(m, "serialize -> parse is not the identity",
                         sigma=word_text(word), tree=text)
        back = word_of_table(parsed)
        if back != word:
            return _fail(m, "word -> tree -> word is not the identity",
                         sigma=word_text(word), lhs=word_text(word), rhs=word_text(back))
        # Once every word has come back from its tree, two tables are equal
        # only if their words are, and equal words are neighbours in sorted
        # order.
        words += 1
        distinct += word != previous
        previous = word
    ctx.words += words
    ctx.distinct += distinct
    ctx.last_word = previous
    return None


def _check_roundtrip(m: Multiset) -> list[Failure]:
    ctx = _context(m)
    failure = ctx.outcome("ROUNDTRIP")
    if failure is not None:
        return [failure]
    count, distinct = ctx.words, ctx.distinct
    if distinct != count:
        return [_fail(m, "correspondence is not injective", lhs=count, rhs=distinct)]
    formula = count_stirling(m)
    if count != formula:
        return [_fail(m, "enumeration size differs from the counting product",
                      lhs=count, rhs=formula)]
    return []


# The per-word checks: each reads the columns of a block word by word and
# returns its first failure, or None.  They are layers of the pass over
# the words (_LAYERS).

def _check_p21(m: Multiset, block: PassBlock) -> Failure | None:
    for word, triple, census in block.read("words", "triples", "censuses"):
        if triple != census.triple:
            return _fail(m, "(asc, des, plat) differs from (x, y, z) leaf counts",
                         sigma=word_text(word), lhs=list(triple), rhs=list(census.triple))
    return None


def _check_jkp(m: Multiset, block: PassBlock) -> Failure | None:
    for word, prof, census in block.read("words", "profiles", "censuses"):
        if prof.plat_by_j != census.zleaf_by_j:
            return _fail(m, "plateaux by occurrence index differ from z-leaves by position",
                         sigma=word_text(word), lhs=prof.plat_by_j, rhs=census.zleaf_by_j)
    return None


def _check_p22(m: Multiset, block: PassBlock) -> Failure | None:
    # The first i tops an ascent when the letter before it is smaller, and
    # the last i a descent when the letter after it is; the boundary is 0.
    values = range(1, m.n + 1)
    for word, census, (first, last) in block.read("words", "censuses", "ends"):
        per_vertex = census.per_vertex
        padded = (0, *word, 0)  # padded[p] is the letter at 1-based position p
        for i in values:
            has_x, has_y, _ = per_vertex[i]
            x, y = padded[first[i] - 1] < i, i > padded[last[i] + 1]
            if x != has_x or y != has_y:
                return _fail(m, f"occurrence flags of value {i} differ from leaf flags",
                             sigma=word_text(word), lhs=[x, y], rhs=[has_x, has_y])
    return None


def _check_t41(m: Multiset) -> list[Failure]:
    return _mismatch(m, "derivative chain differs from the enumerated polynomial",
                     c_polynomial_grammar(m), _context(m).c_polynomial)


def _weigh_canonical(m: Multiset, block: PassBlock) -> None:
    # A canonical tree pruned has a u-vertex for each vertex with an x- and
    # a y-leaf and a v-vertex for each with an x-leaf only, and it keeps the
    # z-leaves; a tree with a y-leaf and no x-leaf is not canonical.
    weights = block.ctx.weights
    for census in block.read("censuses"):
        u = v = z = 0
        for has_x, has_y, z_count in census.per_vertex.values():
            if has_y and not has_x:
                break
            u += has_x and has_y
            v += has_x and not has_y
            z += z_count
        else:
            weights[u, v, z] += 1


def _check_t43(m: Multiset) -> list[Failure]:
    ctx = _context(m)
    ctx.outcome("T4.3")  # raises what the weighing raised
    expected = gamma_table_to_uvz(ctx.gamma)
    return _mismatch(m, "pruned-tree weights do not sum to the gamma polynomial",
                     Poly3(UVZ, ctx.weights), expected)


def _check_p51(m: Multiset, block: PassBlock) -> Failure | None:
    for word, prof, census, (_, last) in block.read("words", "profiles", "censuses", "ends"):
        dfalls = prof.dfall_positions
        unbalanced_y = {v for v, (has_x, has_y, _) in census.per_vertex.items()
                        if has_y and not has_x}
        dfall_values = {word[i - 1] for i in dfalls}
        if dfall_values != unbalanced_y or len(dfalls) != len(unbalanced_y):
            return _fail(m, "double-fall values differ from unbalanced-y vertices",
                         sigma=word_text(word), lhs=sorted(dfall_values), rhs=sorted(unbalanced_y))
        for i in dfalls:
            v = word[i - 1]
            if i != last[v]:
                return _fail(m, f"double fall at {i} is not the last occurrence of {v}",
                             sigma=word_text(word))
    return None


def _check_p63(m: Multiset, block: PassBlock) -> Failure | None:
    for word, prof, census in block.read("words", "profiles", "censuses"):
        z_without_x: set[int] = set()
        x_with_z: set[int] = set()
        for v, (hx, _, zc) in census.per_vertex.items():
            if zc:
                (x_with_z if hx else z_without_x).add(v)
        dplat_values = {word[i - 1] for i in prof.dplat_positions}
        aplat_values = {word[i - 1] for i in prof.aplat_positions}
        if dplat_values != z_without_x or len(prof.dplat_positions) != len(z_without_x):
            return _fail(m, "descent-plateau values differ from z-without-x vertices",
                         sigma=word_text(word), lhs=sorted(dplat_values), rhs=sorted(z_without_x))
        if aplat_values != x_with_z or len(prof.aplat_positions) != len(x_with_z):
            return _fail(m, "ascent-plateau values differ from x-with-z vertices",
                         sigma=word_text(word), lhs=sorted(aplat_values), rhs=sorted(x_with_z))
        if (prof.dplat == 0) != (not z_without_x):
            return _fail(m, "descent-plateau-freeness differs from ternary canonicity",
                         sigma=word_text(word))
    return None


def _tally_triples(m: Multiset, block: PassBlock) -> None:
    block.ctx.triples.update(block.read("triples"))


# The layers of the pass over the words, in the order each block meets them.
_LAYERS: dict[str, Callable[[Multiset, PassBlock], Failure | None]] = {
    "polynomial": _tally_triples,
    "P2.1": _check_p21, "JKP-ZJ": _check_jkp, "P2.2": _check_p22,
    "P5.1": _check_p51, "P6.3": _check_p63,
    "ROUNDTRIP": _roundtrip, "T4.3": _weigh_canonical,
}


def _word_check(check_id: str, m: Multiset) -> list[Failure]:
    failure = _context(m).outcome(check_id)
    return [] if failure is None else [failure]


def _check_orbit(m: Multiset) -> list[Failure]:
    # Class by class, from each canonical table, enumerating no word.  One
    # canonical member per orbit makes the orbits disjoint, and their sizes
    # summing to |Q_m| makes them a partition of Q_m.  The table placements
    # yields is read through before the next one, so it is not copied.  Of
    # the failing classes the one whose text sorts first is reported.
    first, size = None, 0
    for table in placements(m, -1):
        members = table_orbit(table)
        size += len(members)
        failure = _orbit_class_failure(m, table, members)
        if failure and (first is None or failure["tree"] < first["tree"]):
            first = failure
    if first:
        return [first]
    count = count_stirling(m)
    if size != count:
        return [_fail(m, "orbit sizes do not sum to the number of words", lhs=size, rhs=count)]
    return []


def _orbit_class_failure(m: Multiset, canon: Table, members: tuple[Table, ...]) -> Failure | None:
    """The first failure of one class, named by its canonical table's text, or None."""
    canonical_members = sum(map(is_canonical_table, members))
    if canonical_members != 1:
        return _fail(m, f"orbit has {canonical_members} canonical members, expected 1",
                     tree=render_table(canon))
    census = table_census(canon)
    y, z = census.yleaf, census.zleaf
    ux = sum(has_x and not has_y for has_x, has_y, _ in census.per_vertex.values())
    if len(members) != 2 ** ux:
        return _fail(m, "orbit size is not 2^(unbalanced-x vertices)",
                     tree=render_table(canon), lhs=len(members), rhs=2 ** ux)
    if ux != m.K + 1 - z - 2 * y:
        return _fail(m, "unbalanced-x count differs from K+1 - zleaf - 2*yleaf",
                     tree=render_table(canon), lhs=ux, rhs=m.K + 1 - z - 2 * y)
    expected, c = {}, 1  # a binomial row: C(ux, t+1) = C(ux, t) (ux-t) / (t+1)
    for t in range(ux + 1):
        expected[(y + t, y + ux - t, z)] = c
        c = c * (ux - t) // (t + 1)
    actual = {}
    for triple in map(asc_des_plat, map(word_of_table, members)):
        actual[triple] = actual.get(triple, 0) + 1
    if actual != expected:
        return _fail(m, "orbit monomial sum differs from (xy)^y (x+y)^ux z^z",
                     tree=render_table(canon), lhs=Poly3(XYZ, actual).to_json_dict(),
                     rhs=Poly3(XYZ, expected).to_json_dict())
    return None


@dataclass(frozen=True)
class CheckDef:
    description: str
    run: Callable[[Multiset], list[Failure]]
    doubled_only: bool = False
    reads: tuple[str, ...] = ()  # the only layers of the pass over the words it may read

    def applies_to(self, m: Multiset) -> bool:
        return not self.doubled_only or m.is_uniform(2)


_POLYNOMIAL = ("polynomial",)

CHECKS: dict[str, CheckDef] = {
    "ROUNDTRIP": CheckDef(
        "word -> tree -> word and tree -> word -> tree are identities; the map is injective",
        _check_roundtrip, reads=("ROUNDTRIP",)),
    "P2.1": CheckDef(
        "(asc, des, plat) equals (x-leaf, y-leaf, z-leaf) counts under the correspondence",
        partial(_word_check, "P2.1"), reads=("P2.1",)),
    "JKP-ZJ": CheckDef(
        "plateaux keyed by occurrence index match z-leaves keyed by child position",
        partial(_word_check, "JKP-ZJ"), reads=("JKP-ZJ",)),
    "P2.2": CheckDef(
        "vertex i has an x-leaf iff the first i tops an ascent, a y-leaf iff the last i tops a descent",
        partial(_word_check, "P2.2"), reads=("P2.2",)),
    "T3.1": CheckDef(
        "extracted gamma table equals canonical-tree counts by (z-leaves, y-leaves)",
        _agreement("extract", "trees",
                   "extracted gamma table differs from canonical-tree counts"),
        reads=_POLYNOMIAL),
    "T4.1": CheckDef(
        "the xyz derivative chain rebuilds the enumerated (asc, des, plat) polynomial",
        _check_t41, reads=_POLYNOMIAL),
    "T4.3": CheckDef(
        "pruned canonical trees, weighted u^#u v^#v z^#z, sum to the gamma polynomial",
        _check_t43, reads=("T4.3", *_POLYNOMIAL)),
    "T4.4": CheckDef(
        "the uvz derivative chain builds the gamma polynomial directly",
        _agreement("grammar", "extract",
                   "uvz derivative chain differs from the extracted gamma polynomial"),
        reads=_POLYNOMIAL),
    "T5.2": CheckDef(
        "extracted gamma table equals double-fall-free counts by (plateaux, descents)",
        _agreement("extract", "perms",
                   "extracted gamma table differs from double-fall-free counts"),
        reads=_POLYNOMIAL),
    "P5.1": CheckDef(
        "double-fall positions map onto the unbalanced-y vertices",
        partial(_word_check, "P5.1"), reads=("P5.1",)),
    "T6.1": CheckDef(
        "extracted gamma table equals descent-plateau-free counts (doubled multisets)",
        _agreement("extract", "mma",
                   "extracted gamma table differs from descent-plateau-free counts"),
        doubled_only=True, reads=_POLYNOMIAL),
    "T6.2": CheckDef(
        "descent-plateau-free counts equal canonical ternary tree counts (doubled multisets)",
        _agreement("mma", "ternary",
                   "descent-plateau-free counts differ from canonical ternary trees"),
        doubled_only=True),
    "P6.3": CheckDef(
        "descent-plateaux map to z-without-x vertices, ascent-plateaux to x-with-z vertices (doubled multisets)",
        partial(_word_check, "P6.3"), doubled_only=True, reads=("P6.3",)),
    "SYM-XY": CheckDef(
        "the (asc, des, plat) polynomial is symmetric in x and y",
        _symmetry(("x", "y")), reads=_POLYNOMIAL),
    "SYM-XYZ": CheckDef(
        "for doubled multisets the polynomial is symmetric in x, y and z",
        _symmetry(("x", "y", "z")), doubled_only=True, reads=_POLYNOMIAL),
    "ORBIT": CheckDef(
        "orbits have one canonical member, size 2^ux, and monomial sum (xy)^y (x+y)^ux z^z",
        _check_orbit),
}


# --------------------------------------------------------------------------
# campaign running


@dataclass
class CheckOutcome:
    multiset: str
    status: str  # "PASS" | "FAIL" | "SKIP"
    detail: str | None = None
    counterexample: Failure | None = None

    def to_json_dict(self) -> dict:
        out = {"multiset": self.multiset, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class CheckReport:
    check: str
    description: str
    outcomes: list[CheckOutcome]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return all(o.status != "FAIL" for o in self.outcomes)

    def counts(self) -> dict[str, int]:
        c = {"pass": 0, "fail": 0, "skip": 0}
        for o in self.outcomes:
            c[o.status.lower()] += 1
        return c

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "check": self.check,
            "description": self.description,
            "passed": self.passed,
            "counts": self.counts(),
            "outcomes": [o.to_json_dict() for o in self.outcomes],
        }
        if include_timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


@dataclass
class CampaignReport:
    reports: list[CheckReport]
    multisets: list[str]
    cost: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "family": {"multisets": self.multisets, "cost": self.cost},
            "passed": self.passed,
            "checks": [r.to_json_dict(include_timing) for r in self.reports],
        }


def _run_cell(check_id: str, m: Multiset) -> tuple[CheckOutcome, float]:
    """One (check, multiset) cell of the running task and its milliseconds; a
    crash, such as the KeyError of a layer not in ``CheckDef.reads``, fails it.

    The time includes any shared-context data this check is first to need,
    and for the first check of a task that reads the pass over the words,
    the whole pass.
    """
    cd = CHECKS[check_id]
    spec = m.spec()
    start = time.perf_counter()
    if not cd.applies_to(m):
        outcome = CheckOutcome(spec, "SKIP", "check applies to doubled multisets only")
    else:
        try:
            failures = cd.run(m)
        except Exception as exc:  # a crash is a verification failure, not a harness abort
            failures = [{"multiset": spec, "detail": f"exception: {exc!r}"}]
        if failures:
            outcome = CheckOutcome(spec, "FAIL", failures[0].get("detail"), failures[0])
        else:
            outcome = CheckOutcome(spec, "PASS")
    return outcome, (time.perf_counter() - start) * 1000.0


def _run_multiset(args: tuple[tuple[str, ...], Multiset]) -> list[tuple[CheckOutcome, float]]:
    """Every given check on one multiset, in order, over one shared context.

    Module-level so process pools can pickle it; the context is dropped
    when the last check is done, whatever happened.
    """
    global _current
    check_ids, m = args
    _current = MultisetContext(m, check_ids)
    try:
        return [_run_cell(cid, m) for cid in check_ids]
    finally:
        _current = None


def pool_workers(jobs: int, cpus: int, tasks: int) -> int:
    """Worker processes for a campaign: no more than asked for, CPUs or tasks.

    A result below 2 means the tasks run in-process.
    """
    return min(jobs, cpus, tasks)


def run_campaign(
    check_ids: list[str],
    members: Iterable[Multiset],
    *,
    jobs: int = 1,
) -> CampaignReport:
    """Run every check over every member, one multiset at a time.

    A task is one multiset with all its checks, so the words and trees are
    built once per multiset; with ``jobs > 1`` whole tasks go to a process
    pool, largest first by the word counts ``admit_enumeration`` hands on.
    The report lists outcomes check by check, in the order of ``check_ids``
    and then of ``members``.  An unknown or repeated check id, a ``jobs``
    below 1 and a family with no member or with the empty multiset are
    refused with DomainError.
    """
    for k, cid in enumerate(check_ids):
        if cid not in CHECKS:
            raise DomainError(
                f"unknown check id {cid!r}; known ids: {', '.join(sorted(CHECKS))}")
        if cid in check_ids[:k]:
            raise DomainError(f"check id {cid!r} is asked for more than once")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    admitted = admit_enumeration(members)
    if not admitted or not all(m.mults for m, _ in admitted):
        raise DomainError("a campaign needs one or more multisets, all of them nonempty")
    ids = tuple(check_ids)
    # Largest first, so that no big multiset starts last and runs alone.
    order = sorted(range(len(admitted)), key=lambda k: -admitted[k][1])
    tasks = [(ids, admitted[k][0]) for k in order]
    workers = pool_workers(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        # Imported here: the pool pulls in multiprocessing, which a serial
        # run and the other commands never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_multiset, tasks))
    else:
        done = [_run_multiset(task) for task in tasks]
    cells_of = dict(zip(order, done))
    reports = []
    for c, cid in enumerate(ids):
        cells = [cells_of[k][c] for k in range(len(admitted))]
        reports.append(CheckReport(
            check=cid,
            description=CHECKS[cid].description,
            outcomes=[outcome for outcome, _ in cells],
            elapsed_ms=sum(ms for _, ms in cells),
        ))
    return CampaignReport(reports=reports, multisets=[m.spec() for m, _ in admitted],
                          cost=sum(count for _, count in admitted))


def verify(
    check_id: str,
    members: Iterable[Multiset] | None = None,
    *,
    jobs: int = 1,
) -> CampaignReport:
    """Run one check id (or "all") over a family (default campaign if omitted)
    by ``run_campaign``, which refuses an unknown id and a ``jobs`` below 1."""
    if members is None:
        members = default_campaign_family()
    ids = sorted(CHECKS) if check_id == "all" else [check_id]
    return run_campaign(ids, members, jobs=jobs)


# --------------------------------------------------------------------------
# golden examples


@dataclass
class GoldenItem:
    name: str
    passed: bool
    expected: str
    actual: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "expected": self.expected, "actual": self.actual}


@dataclass
class GoldenReport:
    items: list[GoldenItem]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "items": [item.to_json_dict() for item in self.items]}


_BIG_WORD = (3, 3, 5, 5, 2, 2, 1, 7, 7, 1, 4, 6, 6, 4)
_BIG_TREE = "(1 (2 (3 * * (5 * * *)) * *) (7 * * *) (4 * (6 * * *) *))"
_SEG_WORD = (5, 5, 3, 3, 2, 1, 1, 4, 6, 6, 6, 7, 4)
_SEG_TREE = "(1 (2 (3 (5 * * *) * *) *) * (4 * (6 * * * (7 * *)) *))"
_FLIPPED_TREE = "(1 (2 * (3 (5 * * *) * *)) * (4 * (6 * * * (7 * *)) *))"
_CANONICAL_TREE = "(1 (2 * (3 * * (5 * * *))) * (4 * (6 * * * (7 * *)) *))"
_PRUNED_TEXT = "(1 (2:v (3:v * (5:u *))) * (4:u (6:v * * (7:u))))"
_TERNARY_WORD = (2, 2, 3, 3, 5, 5, 1, 7, 7, 1, 4, 6, 6, 4)
_TERNARY_TREE = "(1 (2 * * (3 * * (5 * * *))) (7 * * *) (4 * (6 * * *) *))"
_DFALL_WORD = (2, 5, 3, 3, 1, 1, 4, 6, 6, 4)


def golden_examples() -> GoldenReport:
    """Replay the worked examples with frozen expected values."""
    items: list[GoldenItem] = []

    def record(name: str, expected, actual) -> None:
        items.append(GoldenItem(
            name=name, passed=(expected == actual),
            expected=repr(expected), actual=repr(actual)))

    from .action import psi, serialize_pruned
    from .grammar import derive, uvz_rules, xyz_rules
    from .trees import gessel_decomposition, segment_word

    s1 = StirlingPermutation.from_word(_BIG_WORD)
    t1 = gessel_forward(s1)
    record("big-example/tree", _BIG_TREE, serialize(t1))
    record("big-example/census", (5, 5, 5), leaf_census(t1).triple)
    prof1 = statistics(s1.word, s1.multiset.n)
    record("big-example/stats", (5, 5, 5), prof1.triple)
    record("big-example/aplat-dplat", (4, 1), (prof1.aplat, prof1.dplat))
    record("big-example/dplat-position", frozenset({5}), prof1.dplat_positions)

    s2 = StirlingPermutation.from_word(_SEG_WORD)
    t2 = gessel_forward(s2)
    record("segment-example/multiset", "2,1,2,2,2,3,1", s2.multiset.spec())
    record("segment-example/count", 74880, count_stirling(s2.multiset))
    record("segment-example/tree", _SEG_TREE, serialize(t2))
    record("segment-example/census", (4, 5, 5), leaf_census(t2).triple)
    expected_segments = {
        1: (5, 5, 3, 3, 2, 1, 1, 4, 6, 6, 6, 7, 4),
        2: (5, 5, 3, 3, 2),
        3: (5, 5, 3, 3),
        4: (4, 6, 6, 6, 7, 4),
        5: (5, 5),
        6: (6, 6, 6, 7),
        7: (7,),
    }
    for i, seg in expected_segments.items():
        record(f"segment-example/segment-{i}", seg, segment_word(s2, i))
    record("segment-example/decomposition-1",
           ((5, 5, 3, 3, 2), (), (4, 6, 6, 6, 7, 4)), gessel_decomposition(s2, 1))
    record("segment-example/decomposition-4",
           ((), (6, 6, 6, 7), ()), gessel_decomposition(s2, 4))
    record("segment-example/decomposition-7", ((), ()), gessel_decomposition(s2, 7))
    record("segment-example/flags-5", (True, True), first_last_occurrence_flags(s2, 5))
    record("segment-example/flags-2", (False, True), first_last_occurrence_flags(s2, 2))

    report2 = balance_report(t2)
    record("flip-example/statuses", {
        1: "no-xy-leaf", 2: "unbalanced-y", 3: "unbalanced-y", 4: "balanced-pair",
        5: "balanced-pair", 6: "unbalanced-x", 7: "balanced-pair",
    }, {v: st.value for v, st in sorted(report2.status.items())})
    record("flip-example/psi-2", _FLIPPED_TREE, serialize(psi(t2, 2)))
    canon2 = canonical_representative(t2)
    record("flip-example/canonical", _CANONICAL_TREE, serialize(canon2))
    record("flip-example/canonical-is-canonical", True, is_canonical(canon2))

    pruned = prune(canon2)
    record("prune-example/serialized", _PRUNED_TEXT, serialize_pruned(pruned))
    record("prune-example/weight", (3, 3), pruned.weight())
    record("prune-example/zleaf", 5, pruned.zleaf)

    s5 = StirlingPermutation.from_word(_DFALL_WORD)
    prof5 = statistics(s5.word, s5.multiset.n)
    record("double-fall-example/descents", frozenset({2, 4, 9, 10}), prof5.descent_positions)
    record("double-fall-example/dfalls", frozenset({4}), prof5.dfall_positions)

    s7 = StirlingPermutation.from_word(_TERNARY_WORD)
    t7 = gessel_forward(s7)
    record("ternary-example/tree", _TERNARY_TREE, serialize(t7))
    record("ternary-example/is-canonical-ternary", True, is_canonical_ternary(t7))
    record("ternary-example/dplat", 0, statistics(s7.word, s7.multiset.n).dplat)
    record("ternary-example/big-example-not-ternary", False, is_canonical_ternary(t1))

    m22 = Multiset((2, 2))
    c22 = c_polynomial_enum(m22)
    record("doubled-pair/c-polynomial",
           {(1, 2, 2): 1, (2, 1, 2): 1, (2, 2, 1): 1}, c22.terms)
    record("doubled-pair/gamma-table",
           {(1, 2): 1, (2, 1): 1}, gamma_extract(c22, 4).entries)
    record("doubled-pair/gamma-uvz",
           {(2, 0, 1): 1, (1, 1, 2): 1}, gamma_polynomial_grammar(m22).terms)

    record("grammar/derive-x", {(1, 1, 1): 1},
           derive(Poly3.variable("x", XYZ), xyz_rules(2)).terms)
    record("grammar/derive-xyz",
           {(2, 2, 1): 1, (2, 1, 2): 1, (1, 2, 2): 1},
           derive(Poly3.monomial((1, 1, 1), 1, XYZ), xyz_rules(2)).terms)
    record("grammar/derive-uz",
           {(1, 1, 2): 1, (2, 0, 1): 1},
           derive(Poly3.monomial((1, 0, 1), 1, UVZ), uvz_rules(2)).terms)

    a2 = Poly3(XYZ, {(2, 1, 0): 1, (1, 2, 0): 1})
    record("eulerian/gamma-of-A2", {(0, 1): 1}, gamma_extract(a2, 2).entries)

    return GoldenReport(items)
