"""Stirling permutations of a multiset, their enumeration and statistics.

A word w over {1..n} with the multiplicities of a multiset m is a Stirling
permutation when every element lying between two equal values is at least
as large: if w_i = w_j and i < k < j then w_k >= w_i.

Statistics use the boundary convention sigma_0 = sigma_{K+1} = 0, so the
first position of a nonempty word is always an ascent top and the last is
always a descent top.  All position indices in this module are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator, NamedTuple

from .errors import DomainError
from .multiset import Multiset, parse_ints


@dataclass(frozen=True, slots=True)
class StirlingPermutation:
    """A Stirling permutation: the word together with its ground multiset.

    The bare constructor trusts its input (enumeration produces words that
    are valid by construction); use :meth:`from_word` to validate.
    """

    word: tuple[int, ...]
    multiset: Multiset

    @classmethod
    def from_word(cls, word, multiset: Multiset | None = None) -> StirlingPermutation:
        word = tuple(word)
        for v in word:
            if type(v) is not int:  # refuses bools, which would pass as 1 and 0
                raise DomainError(f"word values must be integers, got {v!r}")
        if multiset is None:
            multiset = _infer_multiset(word)
        if not is_stirling(word, multiset):
            raise DomainError(f"{word!r} is not a Stirling permutation of {{{multiset}}}")
        return cls(word, multiset)

    def __str__(self) -> str:
        return word_text(self.word)


def word_text(word) -> str:
    """A word as text, its letters separated by single spaces: ``"1 2 2 1"``."""
    return " ".join(map(str, word))


def _infer_multiset(word: tuple[int, ...]) -> Multiset:
    if not word:
        return Multiset(())
    for v in word:
        if v < 1:
            raise DomainError(f"word values must be positive integers, got {v!r}")
    n = max(word)
    if n > len(word):
        # K letters cannot hold every value 1..n, so the refusal names n
        # rather than the values missing below it, which may be many more.
        raise DomainError(f"word value {n} exceeds the word's length {len(word)}, "
                          f"so some value 1..{n} is missing")
    counts = [0] * n
    for v in word:
        counts[v - 1] += 1
    if any(c == 0 for c in counts):
        missing = [i + 1 for i, c in enumerate(counts) if c == 0]
        raise DomainError(f"word {word!r} misses values {missing}; every value 1..n must occur")
    return Multiset(tuple(counts))


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a permutation word.

    Accepts decimal values separated by commas or by any whitespace; as a
    convenience a bare digit string like ``"1221"`` is read one value per
    character.  Every comma-separated part must be a value, so an empty
    one is refused, as :meth:`Multiset.parse` refuses it.
    """
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = text.split()
        if len(parts) == 1 and text.isdigit():
            parts = list(text)
    return parse_ints(parts, text, "permutation word")


def is_stirling(word, multiset: Multiset) -> bool:
    """Check the letters, the multiplicities and the Stirling condition.

    Every letter must be an int in 1..n: a bool or a float is refused.  The
    condition for value v only needs checking between the first and
    last occurrence of v, as :func:`first_last_positions` finds them,
    which covers every pair of equal letters.
    """
    word = tuple(word)
    n = multiset.n
    if len(word) != multiset.K:
        return False
    counts = [0] * (n + 1)
    for v in word:
        if type(v) is not int or not 1 <= v <= n:
            return False
        counts[v] += 1
    if tuple(counts[1:]) != multiset.mults:
        return False
    first, last = first_last_positions(word, n)
    # 1-based positions: word[first[v]:last[v] - 1] lies strictly between them.
    return all(min(word[first[v]:last[v] - 1], default=v) >= v for v in range(1, n + 1))


def count_stirling(multiset: Multiset) -> int:
    """|Q_m| by the insertion product: prod_{i>=2} (1 + k_1 + ... + k_{i-1})."""
    return prod(insertion_factors(multiset))


def insertion_factors(multiset: Multiset) -> Iterator[int]:
    """The factors of :func:`count_stirling`, in order: 1 + k_1 + ... + k_{i-1}
    for i = 2..n, the gaps that block i can go into."""
    prefix = 1
    for k in multiset.mults[:-1]:
        prefix += k
        yield prefix


def stirling_words(multiset: Multiset) -> Iterator[tuple[int, ...]]:
    """The bare words of all Stirling permutations of the multiset, each once.

    Words are built by inserting the block n^kn into each of the K'+1 gaps
    of every Stirling permutation of {1^k1, ..., (n-1)^k(n-1)}; distinct
    gaps give distinct words, so this realises the counting product.  An
    explicit stack holds, per value, a partial word and the next gap to try
    in it, so the stream holds O(n K) letters, has no depth limit, and
    yields in insertion order, not lexicographic order.
    """
    blocks = [(value,) * k for value, k in enumerate(multiset.mults, start=1)]
    # The last two blocks go in by two nested loops; an empty block stands
    # in for a missing one, and goes into the one gap of the empty word.
    block = blocks.pop() if blocks else ()
    before = blocks.pop() if blocks else ()
    depth = len(blocks)
    # The stack, one level per other value: words[i] holds blocks 0..i-1,
    # and gaps[i] is the next gap of words[i] to put block i in.
    words = [()] * (depth + 1)
    gaps = [0] * (depth + 1)
    i = 0
    while i >= 0:
        w = words[i]
        if i == depth:
            for g in range(len(w) + 1):
                u = w[:g] + before + w[g:]
                for gap in range(len(u) + 1):
                    yield u[:gap] + block + u[gap:]
            i -= 1
            continue
        gap = gaps[i]
        if gap > len(w):
            i -= 1
            continue
        gaps[i] = gap + 1
        i += 1
        words[i] = w[:gap] + blocks[i - 1] + w[gap:]
        gaps[i] = 0


def enumerate_stirling(multiset: Multiset) -> Iterator[tuple[int, ...]]:
    """The words of all Stirling permutations of the multiset, as bare
    tuples in lexicographic order, each the successor of the one before:
    one word is held.

    The values started but not finished form a stack increasing to its
    top (one opened after v closes before v's next copy), so the next
    letter is the top again or an unused value above it, and the least
    completion of a prefix finishes the stack from the top down, then
    writes each unused value as a whole block, in increasing order.  The
    greatest completion writes every letter left in decreasing order, so
    the successor backs up over the nonincreasing suffix to the last
    ascent, whose lower letter a it changes: every value above a in the
    suffix is unused, and the least of them, u, takes a's place, then the
    rest is completed.
    """
    k = (0, *multiset.mults)
    word = [v for v in range(1, len(k)) for _ in range(k[v])]
    last = len(word) - 1
    while True:
        yield tuple(word)
        i = last - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        a = word[i]
        p = last  # the suffix is word[i + 1:]: its letters above a, then those up to a
        while word[p] <= a:
            p -= 1
        u = word[p]
        ku = k[u]
        # The unused values above u, in increasing order: the suffix's
        # blocks before u's, reversed.
        above = word[p - ku:i:-1]
        if p == last:  # no letter of the suffix is up to a: a is left alone
            word[i:] = [u] * ku + [a] + above
            continue
        # a and the suffix's letters up to it, nonincreasing, a run per
        # value: a value is open when the run lacks some of its copies.
        opened: list[int] = []
        unused: list[int] = []
        v, c = a, 1
        for w in word[p + 1:]:
            if w == v:
                c += 1
                continue
            if c < k[v]:
                opened += [v] * c
            else:
                unused[:0] = [v] * c
            v, c = w, 1
        if c < k[v]:
            opened += [v] * c
        else:
            unused[:0] = [v] * c
        word[i:] = [u] * ku + opened + unused + above


class StatProfile(NamedTuple):
    """All position statistics of one Stirling permutation.

    Positions are 1-based.  An index i is an ascent when sigma_{i-1} <
    sigma_i, a descent when sigma_i > sigma_{i+1} and a plateau when
    sigma_i = sigma_{i+1}, under the zero boundary convention.  A plateau
    is keyed by j when its right copy is the j-th occurrence of its value.
    A descent at i is a double fall when the position before the first
    occurrence of sigma_i is itself a descent.  A plateau is an ascent- or
    descent-plateau according to the step that enters it.  A named tuple:
    the harness builds one per word, and a frozen dataclass cost about five
    times as much to build.
    """

    asc: int
    des: int
    plat: int
    plat_by_j: dict[int, int]
    dfall: int
    aplat: int
    dplat: int
    ascent_positions: frozenset[int]
    descent_positions: frozenset[int]
    plateau_positions: frozenset[int]
    dfall_positions: frozenset[int]
    aplat_positions: frozenset[int]
    dplat_positions: frozenset[int]

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.asc, self.des, self.plat)


def statistics(word: tuple[int, ...], n: int) -> StatProfile:
    """The full :class:`StatProfile` of a word over 1..n, in one left-to-right pass.

    Each step (sigma_{p}, sigma_{p+1}) is one of three kinds, and the loop
    branches once on it: an ascent at p + 1, or a descent or a plateau at
    p.  A plateau's key is the rank of its right copy, and it is an ascent-
    or descent-plateau by the kind of the step before it.  A double fall is
    a descent at a value whose first occurrence was entered by a descent,
    which is known once that occurrence is read.
    """
    ascents: list[int] = []
    descents: list[int] = []
    plateaus: list[int] = []
    dfalls: list[int] = []
    aplats: list[int] = []
    dplats: list[int] = []
    plat_by_j: dict[int, int] = {}
    rank = [0] * (n + 1)  # occurrences of each value read so far
    fell = [False] * len(rank)  # first occurrence is entered by a descent
    prev = 0
    entered = 0  # the kind of the step into position p: 1 ascent, -1 descent, 0 plateau
    for p, cur in enumerate(word):
        r = rank[cur] = rank[cur] + 1
        if prev < cur:
            ascents.append(p + 1)
            entered = 1
        elif prev > cur:
            descents.append(p)
            if fell[prev]:
                dfalls.append(p)
            if r == 1:
                fell[cur] = True
            entered = -1
        else:
            plateaus.append(p)
            plat_by_j[r] = plat_by_j.get(r, 0) + 1
            if entered > 0:
                aplats.append(p)
            elif entered:
                dplats.append(p)
            entered = 0
        prev = cur
    if prev:  # the last step, down to the boundary zero
        descents.append(len(word))
        if fell[prev]:
            dfalls.append(len(word))

    fs = frozenset
    return StatProfile(
        len(ascents), len(descents), len(plateaus), plat_by_j,
        len(dfalls), len(aplats), len(dplats),
        fs(ascents), fs(descents), fs(plateaus), fs(dfalls), fs(aplats), fs(dplats),
    )


def first_last_positions(word: tuple[int, ...], n: int) -> tuple[list[int], list[int]]:
    """``(first, last)``: the 1-based positions of the first and of the last
    occurrence of each value v in 1..n, at ``first[v]`` and ``last[v]``, in
    one scan of the word.  Entry 0, and the entry of a value the word lacks,
    is 0.
    """
    first = [0] * (n + 1)
    last = [0] * (n + 1)
    for p, c in enumerate(word, 1):
        if not first[c]:
            first[c] = p
        last[c] = p
    return first, last


def asc_des_plat(word: tuple[int, ...]) -> tuple[int, int, int]:
    """``(asc, des, plat)`` of a word, equal to ``statistics(word, n).triple``.

    Every step (sigma_{i-1}, sigma_i) for i = 1..K+1, boundary zeros
    included, is exactly one of: an ascent at i, a descent at i-1, or a
    plateau at i-1.  Counting the steps by kind needs no positions.
    """
    asc = des = plat = 0
    prev = 0
    for cur in word:
        if prev < cur:
            asc += 1
        elif prev > cur:
            des += 1
        else:
            plat += 1
        prev = cur
    if prev:
        des += 1
    return asc, des, plat
