"""The slot tables of ``action.placements`` against the words the trees and
ternary routes no longer read: every word's tree, kept when canonical
(``reference_kernels``)."""

import ast
import inspect
import textwrap
from collections import Counter

import pytest

import reference_kernels as ref
from test_cli import run
from test_word_checks import counting

from gesselgamma import (
    GAMMA_ROUTES,
    FamilySpec,
    GesselTree,
    Multiset,
    StirlingPermutation,
    default_campaign_family,
    enumerate_canonical,
    enumerate_stirling,
    gessel_forward,
    is_canonical,
    is_canonical_ternary,
    leaf_census,
    serialize,
)
from gesselgamma import action, counts
from gesselgamma.action import placements

DOUBLED = [Multiset.uniform(n, 2) for n in range(1, 8)]


def perms_of(m):
    """The words of m, each wrapped for the tree APIs."""
    return (StirlingPermutation(w, m) for w in enumerate_stirling(m))


def canonical_texts_of_the_words(m, canonical):
    return {serialize(t) for t in map(gessel_forward, perms_of(m)) if canonical(t)}


def test_enumerate_canonical_yields_the_canonical_trees_of_the_words():
    for m in default_campaign_family():
        listed = [serialize(t) for t in enumerate_canonical(m)]
        expected = canonical_texts_of_the_words(m, is_canonical)
        assert len(set(listed)) == len(listed) == len(expected), m
        assert set(listed) == expected, m


def test_ternary_placements_are_the_canonical_ternary_trees_of_the_words():
    for m in DOUBLED[:6]:
        listed = [serialize(GesselTree(tuple(map(tuple, table)), m))
                  for table in placements(m, 1)]
        expected = canonical_texts_of_the_words(m, is_canonical_ternary)
        assert len(set(listed)) == len(listed) == len(expected), m
        assert set(listed) == expected, m


@pytest.mark.parametrize("family", ["default", "5,3,11", "doubled"])
@pytest.mark.parametrize("route", ["trees", "ternary"])
def test_routes_match_the_reference(route, family):
    members = {"default": default_campaign_family, "doubled": lambda: DOUBLED,
               "5,3,11": FamilySpec(5, 3, 11).members}[family]()
    if route == "ternary":
        members = [m for m in members if m.is_uniform(2)]
    assert members
    reference = getattr(ref, f"gamma_count_{route}")
    for m in members:
        got = GAMMA_ROUTES[route](m).to_json()
        assert got == reference(m, perms_of(m)).to_json(), m


def test_trees_key_matches_the_census_of_the_table_tree():
    # The trees kernel over the tables with vertex n left out counts the
    # (zleaf, yleaf) census of every full table placements yields.
    for m in default_campaign_family():
        expected = Counter()
        for table in placements(m, -1):
            census = leaf_census(GesselTree(tuple(map(tuple, table)), m))
            expected[census.zleaf, census.yleaf] += 1
        got = Counter()
        for table in placements(m, -1, all_but_last=True):
            for key, weight in counts._slot_keys(table, m.mults[-1], -1):
                got[key] += weight
        assert +got == expected, m


@pytest.mark.parametrize("route", ["trees", "ternary"])
def test_tree_routes_read_no_word(monkeypatch, route):
    calls = [counting(monkeypatch, f) for f in (enumerate_stirling, gessel_forward)]
    table = GAMMA_ROUTES[route](Multiset((2, 2, 2, 2)))
    assert sum(table.entries.values()) == 46
    assert calls == [[], []]


def test_the_empty_multiset(capsys):
    assert [serialize(t) for t in enumerate_canonical(Multiset(()))] == ["*"]
    assert run(capsys, "gamma", "--via", "trees", "--multiset", "") == (
        2, "", "error: gamma tables are defined for nonempty multisets\n")


def test_placements_do_not_recurse():
    body = ast.parse(textwrap.dedent(inspect.getsource(action.placements)))
    called = {node.func.id for node in ast.walk(body)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called and "placements" not in called
    assert not any(isinstance(node, ast.YieldFrom) for node in ast.walk(body))
