"""The gap kernels of the enumerated polynomial and the perms and mma
routes, the state count of the trees and ternary routes, the
first/last-occurrence scans and the segments read off the slot table,
against the full profiles and censuses and against the bodies they
replaced (``reference_kernels``)."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from test_cli import ROUTE_OUTPUTS, run
from test_word_checks import counting, rebind_everywhere

from gesselgamma import (
    GAMMA_ROUTES,
    FamilySpec,
    GesselTree,
    Multiset,
    StirlingPermutation,
    c_polynomial_enum,
    count_stirling,
    default_campaign_family,
    enumerate_stirling,
    first_last_occurrence_flags,
    gessel_decomposition,
    leaf_census,
    segment,
    segment_word,
    statistics,
    stirling_words,
)
from gesselgamma import counts
from gesselgamma.action import placements
from gesselgamma.cli import main
from gesselgamma.errors import FamilyTooLargeError
from gesselgamma.harness import admit_enumeration
from gesselgamma.stirling import first_last_positions
from gesselgamma.trees import table_of_word

DOUBLED = [Multiset.uniform(n, 2) for n in range(1, 7)]


def reference_table(route, m):
    return getattr(ref, f"gamma_count_{route}")(m, ref.enumerate_stirling(m)).to_json()


def test_perms_route_matches_the_reference():
    members = FamilySpec(5, 3, 11).members()
    assert len(members) == 311
    for m in members:
        assert GAMMA_ROUTES["perms"](m).to_json() == reference_table("perms", m), m


@pytest.mark.parametrize("route", ["perms", "mma", "ternary"])
def test_doubled_routes_match_the_reference(route):
    for m in DOUBLED:
        assert GAMMA_ROUTES[route](m).to_json() == reference_table(route, m), m


def _weighted(keys):
    """The weighted keys of a gap kernel as a Counter of the positive weights;
    a weight below 0 is never right."""
    total = Counter()
    for key, weight in keys:
        total[key] += weight
    assert min(total.values(), default=0) >= 0, keys
    return Counter({key: w for key, w in total.items() if w})


def test_gap_kernels_weigh_the_words_made_from_each_u():
    # Each word of m is a word u of m without its last block, with the
    # block put into one of u's gaps; the kernel's weighted keys for u must
    # count exactly the keys of those words' full reference profiles.
    members = [*FamilySpec(5, 3, 11).members(), *map(Multiset, zip(range(1, 6))), *DOUBLED]
    for m in members:
        *below, k = m.mults
        block = (m.n,) * k
        for u in stirling_words(Multiset(tuple(below))):
            profiles = [ref.statistics(StirlingPermutation(u[:g] + block + u[g:], m))
                        for g in range(len(u) + 1)]
            assert _weighted(counts._enum_keys(u, k)) == Counter(
                p.triple for p in profiles), (m, u)
            assert _weighted(counts._perms_keys(u, k)) == Counter(
                (p.plat, p.des) for p in profiles if p.dfall == 0), (m, u)
            if m.is_uniform(2):
                assert _weighted(counts._mma_keys(u, k)) == Counter(
                    (p.des, p.aplat) for p in profiles if p.dplat == 0), (m, u)


def ternary_key(census):
    return census.yleaf, sum(1 for has_x, _, z in census.per_vertex.values() if has_x and z)


def test_the_ternary_key_matches_the_full_census():
    # The state count gives the (yleaf, both_xz) census of every full table
    # placements yields with the middle slot watched.
    members = [m for m in [*default_campaign_family(), *FamilySpec(5, 3, 11).members(), *DOUBLED]
               if m.is_uniform(2)]
    assert len(members) > len(DOUBLED)
    for m in members:
        expected = Counter()
        for table in placements(m, 1):
            expected[ternary_key(leaf_census(GesselTree(tuple(map(tuple, table)), m)))] += 1
        assert Counter(dict(counts._slot_keys(m))) == expected, m


@pytest.mark.parametrize("spec, argv", [
    (spec, argv) for spec in ("2,2,2,2", "3,1,2,2") for argv in (
        ["gamma", "--via", "extract"], ["gamma", "--via", "perms"], ["gamma", "--via", "mma"],
        ["poly", "--via", "enum"], ["poly", "--via", "enum", "--format", "csv"],
    ) if spec == "2,2,2,2" or argv[-1] != "mma"
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_counting_routes_read_only_the_words_without_the_last_block(
        capsys, monkeypatch, spec, argv):
    # perms on 2,2,2,2 reads the 15 words of 2,2,2, not its own 105.
    m = Multiset.parse(spec)
    read = []

    def counted(multiset):
        for word in stirling_words(multiset):
            read.append(word)
            yield word

    monkeypatch.setattr(counts, "stirling_words", counted)
    assert main([*argv, "--multiset", spec]) == 0
    assert capsys.readouterr().out
    assert len(read) == count_stirling(Multiset(m.mults[:-1])) < count_stirling(m)
    assert all(len(word) == m.K - m.mults[-1] for word in read)


@pytest.mark.parametrize("argv, digest", [
    (argv, digest) for argv, digest in ROUTE_OUTPUTS if argv[2] in ("trees", "ternary")
], ids=lambda v: " ".join(v) if isinstance(v, list) else v[:8])
def test_tree_routes_list_no_table_or_word(capsys, monkeypatch, argv, digest):
    # The state count reads no table and no word, so every lister may raise.
    def refuse(*args):
        raise AssertionError("listed")

    for original in (placements, stirling_words, enumerate_stirling, table_of_word):
        rebind_everywhere(monkeypatch, original, refuse)
    assert hashlib.sha256(run(capsys, *argv)[1].encode()).hexdigest() == digest


# Multisets far past the word cap; the random one has n = 40 and k <= 4.
PAST_THE_CAP = {
    "2^30": Multiset.uniform(30, 2),
    "1^60": Multiset.uniform(60, 1),
    "random": Multiset(tuple(random.Random(40).choices(range(1, 5), k=40))),
}


@pytest.mark.parametrize("route, name", [
    ("trees", "2^30"), ("trees", "1^60"), ("trees", "random"), ("ternary", "2^30"),
])
def test_tree_routes_match_the_grammar_past_the_word_cap(route, name):
    m = PAST_THE_CAP[name]
    with pytest.raises(FamilyTooLargeError):
        admit_enumeration([m])
    assert GAMMA_ROUTES[route](m) == GAMMA_ROUTES["grammar"](m)


small_multisets = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=6),
    st.integers(1, 5).map(lambda n: [2] * n),
).map(lambda mults: Multiset(tuple(mults))).filter(lambda m: count_stirling(m) <= 10**4)


@settings(max_examples=60)
@given(small_multisets)
def test_gap_routes_match_the_per_word_routes(m):
    perms = list(ref.enumerate_stirling(m))
    assert c_polynomial_enum(m) == ref.c_polynomial_enum(perms)
    assert GAMMA_ROUTES["perms"](m) == ref.gamma_count_perms(m, perms)
    assert GAMMA_ROUTES["trees"](m) == ref.gamma_count_trees(m, perms)
    if m.is_uniform(2):
        assert GAMMA_ROUTES["mma"](m) == ref.gamma_count_mma(m, perms)
        assert GAMMA_ROUTES["ternary"](m) == ref.gamma_count_ternary(m, perms)


@pytest.mark.parametrize("route, kernel", [
    ("perms", statistics), ("mma", statistics), ("ternary", leaf_census),
])
def test_routes_take_no_full_profile_or_census(monkeypatch, route, kernel):
    calls = counting(monkeypatch, kernel)
    GAMMA_ROUTES[route](Multiset((2, 2, 2, 2)))
    assert calls == []


def test_occurrence_scans_match_the_reference():
    for m in default_campaign_family():
        for w in enumerate_stirling(m):
            s = StirlingPermutation(w, m)
            first, last = first_last_positions(w, m.n)
            assert first[0] == last[0] == 0, s
            for i in range(1, m.n + 1):
                positions = ref._positions(w, i)
                assert (first[i], last[i]) == (positions[0], positions[-1]), (s, i)
                assert first_last_occurrence_flags(s, i) == \
                    ref.first_last_occurrence_flags(s, i), (s, i)
                assert segment(s, i) == ref.segment(s, i), (s, i)


def test_segment_words_and_decompositions_match_the_reference_window():
    # The package reads these off the slot table; the reference cuts the
    # window of its own segment out of the word and splits it at each i.
    for m in default_campaign_family():
        for w in enumerate_stirling(m):
            s = StirlingPermutation(w, m)
            for i in range(1, m.n + 1):
                assert segment_word(s, i) == ref.segment_word(s, i), (s, i)
                assert gessel_decomposition(s, i) == ref.gessel_decomposition(s, i), (s, i)
