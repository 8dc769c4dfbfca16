import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from gesselgamma import (
    DomainError,
    Multiset,
    ParseError,
    StatProfile,
    StirlingPermutation,
    count_stirling,
    enumerate_stirling,
    is_stirling,
    parse_word,
    statistics,
)

from oracles import brute_stirling

BIG_WORD = (3, 3, 5, 5, 2, 2, 1, 7, 7, 1, 4, 6, 6, 4)
DFALL_WORD = (2, 5, 3, 3, 1, 1, 4, 6, 6, 4)


def profile_of(word):
    """The statistics of a word, checked to be a Stirling permutation first."""
    s = StirlingPermutation.from_word(word)
    return statistics(s.word, s.multiset.n)


def small_family(max_n=3, max_k=3, max_total=7):
    for n in range(1, max_n + 1):
        for mults in product(range(1, max_k + 1), repeat=n):
            if sum(mults) <= max_total:
                yield Multiset(mults)


# ---------------------------------------------------------------- is_stirling


@pytest.mark.parametrize("word,mults,expected", [
    ((1, 2, 2, 1), (2, 2), True),
    ((1, 2, 1, 2), (2, 2), False),
    ((2, 2, 1, 1), (2, 2), True),
    ((1, 2, 3, 2, 1), (2, 2, 1), True),
    ((2, 1, 2), (1, 2), False),
    (BIG_WORD, (2, 2, 2, 2, 2, 2, 2), True),
    ((), (), True),
])
def test_is_stirling_cases(word, mults, expected):
    assert is_stirling(word, Multiset(mults)) is expected


def test_is_stirling_checks_multiplicities():
    assert not is_stirling((1, 1, 2), Multiset((2, 2)))
    assert not is_stirling((1, 1, 3, 3), Multiset((2, 2)))  # value out of range
    assert not is_stirling((1, 1), Multiset((2, 2)))


def test_is_stirling_refuses_letters_that_are_not_ints():
    assert is_stirling((1, 1), Multiset((2,)))
    assert not is_stirling((True, True), Multiset((2,)))
    assert not is_stirling((1.0, 1), Multiset((2,)))


# ---------------------------------------------------------------- enumeration


def test_enumerate_doubled_pair_explicitly():
    words = list(enumerate_stirling(Multiset((2, 2))))
    assert words == [(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)]


def test_enumeration_matches_brute_force():
    for m in small_family():
        got = list(enumerate_stirling(m))
        assert got == brute_stirling(m.mults), f"mismatch for {m}"


def test_enumeration_is_sorted_and_distinct():
    for m in [Multiset((3, 2, 1)), Multiset((1, 3, 2)), Multiset((2, 2, 2))]:
        words = list(enumerate_stirling(m))
        assert words == sorted(words)
        assert len(set(words)) == len(words)


def test_count_formula_values():
    doubled = [count_stirling(Multiset.uniform(n, 2)) for n in range(1, 6)]
    assert doubled == [1, 3, 15, 105, 945]
    assert count_stirling(Multiset((2, 1, 2, 2, 2, 3, 1))) == 74880
    for n in range(1, 7):
        assert count_stirling(Multiset.uniform(n, 1)) == math.factorial(n)
    assert count_stirling(Multiset(())) == 1


def test_count_matches_enumeration_length():
    for m in small_family(max_n=4, max_k=3, max_total=8):
        assert count_stirling(m) == sum(1 for _ in enumerate_stirling(m))


def test_enumerate_empty_multiset():
    words = list(enumerate_stirling(Multiset(())))
    assert words == [()]


# ----------------------------------------------------------------- statistics


def test_statistics_of_big_example():
    prof = profile_of(BIG_WORD)
    assert prof.triple == (5, 5, 5)
    assert prof.ascent_positions == frozenset({1, 3, 8, 11, 12})
    assert prof.descent_positions == frozenset({4, 6, 9, 13, 14})
    assert prof.plateau_positions == frozenset({1, 3, 5, 8, 12})
    assert prof.plat_by_j == {2: 5}
    assert prof.aplat == 4 and prof.dplat == 1
    assert prof.dplat_positions == frozenset({5})
    assert prof.dfall_positions == frozenset({6})


def test_statistics_double_fall_example():
    prof = profile_of(DFALL_WORD)
    assert prof.descent_positions == frozenset({2, 4, 9, 10})
    assert prof.dfall_positions == frozenset({4})
    assert prof.dfall == 1


def test_statistics_smallest_cases():
    prof = profile_of((1, 1))
    assert prof.triple == (1, 1, 1)
    assert prof.plat_by_j == {2: 1}
    assert prof.aplat == 1 and prof.dplat == 0

    prof = profile_of((2, 2, 1, 1))
    assert prof.triple == (1, 2, 2)
    assert prof.dfall_positions == frozenset({4})
    assert prof.dplat_positions == frozenset({3})

    empty = profile_of(())
    assert empty.triple == (0, 0, 0) and empty.plat_by_j == {}


def test_a_profile_keeps_its_fields_in_order_and_cannot_be_changed():
    prof = profile_of(BIG_WORD)
    assert StatProfile._fields == (
        "asc", "des", "plat", "plat_by_j", "dfall", "aplat", "dplat",
        "ascent_positions", "descent_positions", "plateau_positions",
        "dfall_positions", "aplat_positions", "dplat_positions")
    assert prof[:3] == prof.triple == (5, 5, 5)
    assert prof[3] is prof.plat_by_j and prof[-1] == prof.dplat_positions == frozenset({5})
    for field in [*StatProfile._fields, "triple"]:
        with pytest.raises(AttributeError):
            setattr(prof, field, 0)
    assert prof == profile_of(BIG_WORD)


def test_plateau_occurrence_keys_for_triples():
    prof = profile_of((1, 1, 1))
    assert prof.plat_by_j == {2: 1, 3: 1}
    prof = profile_of((2, 1, 1, 1))
    assert prof.plat_by_j == {2: 1, 3: 1}


def test_statistic_invariants_over_family():
    for m in small_family():
        for w in enumerate_stirling(m):
            prof = statistics(w, m.n)
            K = m.K
            assert prof.asc + prof.des + prof.plat == K + 1
            assert sum(prof.plat_by_j.values()) == prof.plat
            assert all(2 <= j <= max(m.mults) for j in prof.plat_by_j)
            assert prof.plat <= K - m.n
            assert prof.dfall_positions <= prof.descent_positions
            assert prof.aplat_positions <= prof.plateau_positions
            assert prof.dplat_positions <= prof.plateau_positions
            assert prof.aplat + prof.dplat <= prof.plat


def test_reverse_swaps_ascents_and_descents():
    for m in small_family():
        for w in enumerate_stirling(m):
            prof = statistics(w, m.n)
            rprof = statistics(w[::-1], m.n)
            assert (rprof.asc, rprof.des, rprof.plat) == (prof.des, prof.asc, prof.plat)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(0, 10**9))
def test_enumerated_words_satisfy_the_definition(mults, seed):
    m = Multiset(tuple(mults))
    words = list(enumerate_stirling(m))
    w = words[seed % len(words)]
    assert is_stirling(w, m)
    # round-trips through the validating constructor
    assert StirlingPermutation.from_word(w, m) == StirlingPermutation(w, m)


# ----------------------------------------------------------------- word forms


@pytest.mark.parametrize("text,expected", [
    ("1 2 2 1", (1, 2, 2, 1)),
    ("1,2,2,1", (1, 2, 2, 1)),
    ("1221", (1, 2, 2, 1)),
    ("12,13,1", (12, 13, 1)),
    ("7", (7,)),
    ("", ()),
    ("1\t2\t2\t1", (1, 2, 2, 1)),
    ("1\n2\n2\n1", (1, 2, 2, 1)),
    ("12 \t13\r\n1", (12, 13, 1)),
    (" 1, 2 ,2,1 ", (1, 2, 2, 1)),
])
def test_parse_word_forms(text, expected):
    assert parse_word(text) == expected


def test_parse_word_rejects_garbage():
    with pytest.raises(ParseError):
        parse_word("1 2 x")
    # every comma-separated part is a value, as in Multiset.parse
    for text in (",", "1,,1", ",1,1,", "1, ,1", " , ,"):
        with pytest.raises(ParseError, match="^bad permutation word "):
            parse_word(text)


def test_from_word_validates():
    with pytest.raises(DomainError):
        StirlingPermutation.from_word((1, 2, 1, 2))
    with pytest.raises(DomainError):
        StirlingPermutation.from_word((1, 3, 3, 1))  # value 2 missing
    with pytest.raises(DomainError):
        StirlingPermutation.from_word((1, 1), Multiset((2, 1)))


@pytest.mark.parametrize("multiset", [None, Multiset((2,))], ids=["inferred", "given"])
def test_from_word_refuses_bool_letters(multiset):
    # True == 1, so without a type test (True, True) passed as a word over {1^2}
    with pytest.raises(DomainError, match="^word values must be integers, got True$"):
        StirlingPermutation.from_word((True, True), multiset)
    with pytest.raises(DomainError, match="got False$"):
        StirlingPermutation.from_word((1, False), multiset)


@pytest.mark.parametrize("word", [(1, 10000000), (1, 1, 10 ** 40)])
def test_from_word_names_an_outlying_value_briefly(word):
    with pytest.raises(DomainError) as info:
        StirlingPermutation.from_word(word)
    assert len(str(info.value)) < 200
    assert f"word value {word[-1]} exceeds" in str(info.value)
