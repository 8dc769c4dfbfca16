"""The bare words streamed by ``stirling.stirling_words``, the counting
routes that tally straight off them, and ``enumerate_stirling``'s
lexicographic successor, against the list-and-sort enumerator they
replaced (``reference_kernels``), which is the order oracle, and the
brute-force oracle."""

import tracemalloc
from collections import Counter
from itertools import islice

import pytest

import reference_kernels as ref
from oracles import brute_stirling
from test_stirling import small_family
from test_word_checks import counting

from gesselgamma import (
    GAMMA_ROUTES,
    FamilySpec,
    Multiset,
    StirlingPermutation,
    default_campaign_family,
    enumerate_stirling,
    stirling_words,
)
from gesselgamma import stirling

FAMILIES = {"default": default_campaign_family, "5,3,11": FamilySpec(5, 3, 11).members}


@pytest.mark.parametrize("family", FAMILIES)
def test_the_successor_gives_the_reference_order(family):
    for m in FAMILIES[family]():
        words = list(enumerate_stirling(m))
        assert words == [s.word for s in ref.enumerate_stirling(m)], m
        assert all(type(w) is tuple for w in words), m


def test_the_successor_gives_every_word_once():
    for m in [Multiset(()), *small_family()]:
        assert list(enumerate_stirling(m)) == brute_stirling(m.mults), m


def test_the_successor_holds_no_list_of_words():
    m = Multiset.uniform(8, 1)  # sorting its 40 320 words peaked near 5 MiB
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_stirling(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 40320
    assert peak < 64 * 1024, peak


def test_the_successor_needs_no_recursion():
    words = list(islice(enumerate_stirling(Multiset((1,) * 1100)), 3))
    head = tuple(range(1, 1098))
    assert words == [head + (1098, 1099, 1100), head + (1098, 1100, 1099),
                     head + (1099, 1098, 1100)]
    assert list(enumerate_stirling(Multiset((100000,)))) == [(1,) * 100000]


@pytest.mark.parametrize("family", FAMILIES)
def test_words_and_routes_match_the_list_and_sort_reference(family):
    # the perms route on FamilySpec(5, 3, 11) is
    # test_route_kernels.test_perms_route_matches_the_reference
    for m in FAMILIES[family]():
        perms = list(ref.enumerate_stirling(m))
        assert sorted(stirling_words(m)) == [s.word for s in perms], m
        assert GAMMA_ROUTES["extract"](m).to_json() == \
            ref.gamma_extract(ref.c_polynomial_enum(perms), m.K).to_json(), m
        if family == "default":
            assert GAMMA_ROUTES["perms"](m).to_json() == \
                ref.gamma_count_perms(m, perms).to_json(), m


def test_mma_route_matches_the_reference():
    for n in range(1, 8):
        m = Multiset.uniform(n, 2)
        assert GAMMA_ROUTES["mma"](m).to_json() == \
            ref.gamma_count_mma(m, ref.enumerate_stirling(m)).to_json(), m


def test_sorted_words_equal_brute_force():
    for m in [Multiset(()), *small_family()]:
        assert sorted(stirling_words(m)) == brute_stirling(m.mults), m


@pytest.mark.parametrize("spec", ["3,1,2", "1,3,2", "2,1,3", "3,2,1", "1,2,3,1"])
def test_every_word_has_the_multiplicities_of_its_multiset(spec):
    # a generator that captured the loop's last block would insert it for
    # every value, so the letter counts would be wrong
    m = Multiset.parse(spec)
    words = list(stirling_words(m))
    expected = Counter({v: k for v, k in enumerate(m.mults, start=1)})
    assert words and all(Counter(w) == expected for w in words)
    assert len(set(words)) == len(words)


def test_the_stream_holds_no_list_of_words():
    m = Multiset.uniform(8, 1)  # 40 320 words; the list-and-sort body peaks near 5 MiB
    tracemalloc.start()
    try:
        count = sum(1 for _ in stirling_words(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 40320
    assert peak < 64 * 1024, peak


def constructions(monkeypatch):
    """The arguments of every ``StirlingPermutation`` built from now on."""
    made = []
    init = StirlingPermutation.__init__

    def counted_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(StirlingPermutation, "__init__", counted_init)
    return made


@pytest.mark.parametrize("route", ["perms", "mma", "extract"])
def test_routes_build_no_permutation_and_call_no_enumerate_stirling(monkeypatch, route):
    made = constructions(monkeypatch)
    calls = counting(monkeypatch, enumerate_stirling)
    GAMMA_ROUTES[route](Multiset((2, 2, 2, 2)))
    assert made == [] and calls == []
    # the counters see what they count
    m = Multiset((2, 2))
    [StirlingPermutation(w, m) for w in stirling.enumerate_stirling(m)]
    assert len(made) == 3 and len(calls) == 1


def insertion_order(m):
    """The words in insertion order: block by block, gap by gap, as lists."""
    words = [()]
    for value, k in enumerate(m.mults, start=1):
        block = (value,) * k
        words = [w[:gap] + block + w[gap:] for w in words for gap in range(len(w) + 1)]
    return words


@pytest.mark.parametrize("spec", ["", "3", "1,2", "2,1,3", "1,1,1,1,1,1", "2,2,2,2,2",
                                  "3,1,2,1", "1,1,4,1"])
def test_words_come_in_insertion_order(spec):
    m = Multiset.parse(spec) if spec else Multiset(())
    assert list(stirling_words(m)) == insertion_order(m)


def test_many_values_need_no_recursion():
    first = next(stirling_words(Multiset((1,) * 1100)))
    assert first == tuple(range(1100, 0, -1))
