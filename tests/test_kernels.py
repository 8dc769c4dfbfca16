"""The fast per-word kernels against their slow reference versions.

Every word of the default campaign family is run through both paths; the
results must be equal, and dicts must list their keys in the same order.
The flips, which the package runs on slot tables, are compared with the
object-tree flips of the reference on the same trees, each reference
result written as a package tree by ``reference_kernels.gessel_tree``.
"""

import ast
import importlib
import inspect

import pytest

import reference_kernels as ref
from oracles import boundary_asc_des

from gesselgamma import (
    FamilySpec,
    Multiset,
    StirlingPermutation,
    TreeValidationError,
    asc_des_plat,
    canonical_representative,
    default_campaign_family,
    enumerate_stirling,
    gessel_forward,
    gessel_inverse,
    is_canonical,
    leaf_census,
    orbit,
    psi,
    statistics,
    toggle,
)

# Labels that do not increase away from the root: 2 above 1 above 3.
NON_INCREASING = ref.Tree(
    ref.Vertex(2, (ref.Vertex(1, (None, ref.Vertex(3, (None, None)))), None, None)),
    Multiset((1, 2, 1)))


def test_oracles_stay_independent_of_the_package():
    import oracles

    tree = ast.parse(open(oracles.__file__).read())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not any(name.startswith("gesselgamma") for name in imported)


def test_reference_kernels_import_no_package_function():
    tree = ast.parse(open(ref.__file__).read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.startswith("gesselgamma")
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert not inspect.isroutine(getattr(importlib.import_module(module), name)), name


def test_fast_kernels_match_the_reference_on_the_default_family():
    words = 0
    for m in default_campaign_family():
        for w in enumerate_stirling(m):
            s = StirlingPermutation(w, m)
            words += 1
            prof = statistics(w, m.n)
            want = ref.statistics(s)
            assert prof == want, s
            assert list(prof.plat_by_j.items()) == list(want.plat_by_j.items()), s
            triple = asc_des_plat(w)
            assert triple == prof.triple, s
            assert triple[:2] == boundary_asc_des(w), s

            t = gessel_forward(s)
            rt = ref.gessel_forward(s)
            assert t == ref.gessel_tree(rt), s
            assert gessel_inverse(t) == ref.gessel_inverse(rt) == s

            census = leaf_census(t)
            want_census = ref.leaf_census(rt)
            assert census == want_census, s
            assert list(census.per_vertex.items()) == list(want_census.per_vertex.items()), s
            assert list(census.zleaf_by_j.items()) == list(want_census.zleaf_by_j.items()), s
            assert is_canonical(t) is ref.is_canonical(rt), s
            want = ref.gessel_tree(ref.canonical_representative(rt))
            assert canonical_representative(t) == want, s
    assert words == 25960


def ref_orbit(rt):
    """The reference orbit of a reference tree, as package trees."""
    return frozenset(map(ref.gessel_tree, ref.orbit(rt)))


def test_orbits_match_the_reference_on_the_default_family():
    classes = 0
    for m in default_campaign_family():
        seen = set()
        for w in enumerate_stirling(m):
            s = StirlingPermutation(w, m)
            t = gessel_forward(s)
            canon = canonical_representative(t)
            if canon not in seen:
                seen.add(canon)
                assert orbit(t) == ref_orbit(ref.gessel_forward(s)), s
        classes += len(seen)
    assert classes == 8744


def test_psi_and_toggle_match_the_reference_at_every_vertex():
    for m in FamilySpec(3, 3, 7).members():
        for w in enumerate_stirling(m):
            s = StirlingPermutation(w, m)
            t = gessel_forward(s)
            rt = ref.gessel_forward(s)
            for v in range(1, m.n + 1):
                assert psi(t, v) == ref.gessel_tree(ref.psi(rt, v)), (s, v)
                assert toggle(t, v) == ref.gessel_tree(ref.toggle(rt, v)), (s, v)


def test_flips_of_a_tree_whose_labels_do_not_increase():
    # The reference flips such a tree; the package refuses to build one.
    with pytest.raises(TreeValidationError) as info:
        ref.gessel_tree(NON_INCREASING)
    assert str(info.value) == "invalid tree: edge (2 -> 1) is not label-increasing"


def test_asc_des_plat_of_the_empty_word():
    assert asc_des_plat(()) == (0, 0, 0)
