"""The gap kernels of the enumerated polynomial and the perms and mma
routes, the slot kernels of the trees and ternary routes, the
first/last-occurrence scans and the segments read off the slot table,
against the full profiles and censuses and against the bodies they
replaced (``reference_kernels``)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from test_word_checks import counting

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
    is_canonical,
    is_canonical_ternary,
    leaf_census,
    segment,
    segment_word,
    statistics,
    stirling_words,
)
from gesselgamma import counts
from gesselgamma.action import placements
from gesselgamma.cli import main
from gesselgamma.stirling import first_last_positions

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


def completions(table, m):
    """The trees made from a table with every vertex but n placed: vertex n
    put into each free slot, the root's included."""
    n = m.n
    for v, row in enumerate(table[:n]):
        for p, child in enumerate(row):
            if not child:
                done = [list(r) for r in table]
                done[v][p] = n
                yield GesselTree(tuple(map(tuple, done)), m)


def ternary_key(census):
    return census.yleaf, sum(1 for has_x, _, z in census.per_vertex.values() if has_x and z)


def test_tree_kernels_weigh_the_trees_made_from_each_partial_table():
    # Each canonical tree of m is a table placements yields one vertex
    # early, with vertex n put into one of its free slots; the kernel's
    # weighted keys for the table must count exactly the keys of those
    # completions that have no bad vertex.
    members = [*default_campaign_family(), *FamilySpec(5, 3, 11).members(), *DOUBLED,
               *map(Multiset, zip(range(1, 6))), *map(Multiset, [(1, 1), (3, 1), (2, 2)])]
    routes = [(-1, is_canonical, lambda c: (c.zleaf, c.yleaf)),
              (1, is_canonical_ternary, ternary_key)]
    tables = Counter()
    for m in members:
        for watched, canonical, key in routes:
            if watched == 1 and not m.is_uniform(2):
                continue
            for table in placements(m, watched, all_but_last=True):
                trees = [t for t in completions(table, m) if canonical(t)]
                assert _weighted(counts._slot_keys(table, m.mults[-1], watched)) == Counter(
                    key(leaf_census(t)) for t in trees), (m, table)
                tables[watched] += 1
    assert tables[-1] > tables[1] > 0


def test_the_ternary_key_matches_the_full_census():
    # The ternary kernel over the tables with vertex n left out counts the
    # (yleaf, both_xz) census of every full table placements yields.
    counted = 0
    for m in default_campaign_family():
        if m.is_uniform(2):
            expected = Counter()
            for table in placements(m, 1):
                expected[ternary_key(leaf_census(GesselTree(tuple(map(tuple, table)), m)))] += 1
                counted += 1
            got = _weighted(kernel for table in placements(m, 1, all_but_last=True)
                            for kernel in counts._slot_keys(table, 2, 1))
            assert got == expected, m
    assert 0 < counted < 25960


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


@pytest.mark.parametrize("spec, route, tables", [
    ("2,2,2,2", "trees", 14), ("3,1,2,2", "trees", 19), ("2,2,2,2", "ternary", 14),
])
def test_tree_routes_place_no_last_vertex(capsys, monkeypatch, spec, route, tables):
    # trees on 2,2,2,2 reads 14 tables with vertex 4 left out, not its 46 trees.
    m = Multiset.parse(spec)
    last_rows = []

    def counted(multiset, watched, **options):
        for table in placements(multiset, watched, **options):
            last_rows.append(list(table[m.n]))
            yield table

    monkeypatch.setattr(counts, "placements", counted)
    assert main(["gamma", "--via", route, "--multiset", spec]) == 0
    assert capsys.readouterr().out
    assert len(last_rows) == tables
    assert all(not any(row) for row in last_rows)


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
