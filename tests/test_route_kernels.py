"""The one-pass key kernels of the perms and mma routes, the slot-table key
of the ternary route, the first/last-occurrence scans and the segments
read off the slot table, against the full profiles and censuses and
against the bodies they replaced (``reference_kernels``)."""

import pytest

import reference_kernels as ref
from test_word_checks import counting

from gesselgamma import (
    GAMMA_ROUTES,
    FamilySpec,
    GesselTree,
    Multiset,
    StirlingPermutation,
    default_campaign_family,
    enumerate_stirling,
    first_last_occurrence_flags,
    gessel_decomposition,
    leaf_census,
    segment,
    segment_word,
    statistics,
)
from gesselgamma import counts
from gesselgamma.action import placements
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


def test_keys_match_the_full_profile_and_census():
    counted = {"perms": 0, "mma": 0, "ternary": 0}
    for m in default_campaign_family():
        doubled = m.is_uniform(2)
        for w in enumerate_stirling(m):
            prof = statistics(w, m.n)
            key = counts._perms_key(w)
            assert (key is None) == (prof.dfall > 0), w
            assert key in (None, (prof.plat, prof.des)), w
            key = counts._mma_key(w)
            assert (key is None) == (prof.dplat > 0), w
            assert key in (None, (prof.des, prof.aplat)), w
            counted["perms"] += prof.dfall == 0
            counted["mma"] += prof.dplat == 0
        if doubled:
            for table in placements(m, 1):
                census = leaf_census(GesselTree(tuple(map(tuple, table)), m))
                both_xz = sum(1 for has_x, _, z in census.per_vertex.values() if has_x and z)
                assert counts._ternary_key(table) == (census.yleaf, both_xz), table
                counted["ternary"] += 1
    # every word kernel both counts and refuses words of the family
    assert all(0 < c < 25960 for c in counted.values()), counted


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
