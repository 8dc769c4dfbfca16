"""Flip action on the trees: balance classes, psi, toggle, orbits, pruning."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from gesselgamma import action

from gesselgamma import (
    BalanceStatus,
    DomainError,
    Multiset,
    NotCanonicalError,
    OrbitTooLargeError,
    StirlingPermutation,
    TreeValidationError,
    balance_report,
    canonical_representative,
    enumerate_canonical,
    enumerate_stirling,
    gessel_forward,
    gessel_inverse,
    is_canonical,
    is_canonical_ternary,
    leaf_census,
    orbit,
    parse_tree,
    prune,
    psi,
    serialize,
    serialize_pruned,
    statistics,
    toggle,
)
from gesselgamma.trees import GesselTree

SEG_TREE = "(1 (2 (3 (5 * * *) * *) *) * (4 * (6 * * * (7 * *)) *))"
FLIPPED_TREE = "(1 (2 * (3 (5 * * *) * *)) * (4 * (6 * * * (7 * *)) *))"
CANONICAL_TREE = "(1 (2 * (3 * * (5 * * *))) * (4 * (6 * * * (7 * *)) *))"
PRUNED_TEXT = "(1 (2:v (3:v * (5:u *))) * (4:u (6:v * * (7:u))))"


def tree_of(word):
    return gessel_forward(StirlingPermutation.from_word(word))


def small_family(max_n=3, max_k=3, max_total=7):
    for n in range(1, max_n + 1):
        for mults in product(range(1, max_k + 1), repeat=n):
            if sum(mults) <= max_total:
                yield Multiset(mults)


class TestBalance:
    def test_worked_example_statuses(self):
        report = balance_report(parse_tree(SEG_TREE))
        assert {v: st.value for v, st in report.status.items()} == {
            1: "no-xy-leaf",
            2: "unbalanced-y",
            3: "unbalanced-y",
            4: "balanced-pair",
            5: "balanced-pair",
            6: "unbalanced-x",
            7: "balanced-pair",
        }
        assert (report.uxleaf, report.bxleaf, report.uyleaf) == (1, 3, 2)
        assert report.vertices_with(BalanceStatus.UNBALANCED_Y) == [2, 3]
        assert report.vertices_with(BalanceStatus.BALANCED) == [4, 5, 7]

    def test_doubled_pair(self):
        report = balance_report(tree_of((1, 1, 2, 2)))
        assert report.status[1] is BalanceStatus.UNBALANCED_X
        assert report.status[2] is BalanceStatus.BALANCED
        report = balance_report(tree_of((2, 2, 1, 1)))
        assert report.status[1] is BalanceStatus.UNBALANCED_Y

    def test_counts_match_census(self):
        for m in small_family():
            for w in enumerate_stirling(m):
                t = gessel_forward(StirlingPermutation(w, m))
                report = balance_report(t)
                census = leaf_census(t)
                assert report.uxleaf + report.bxleaf == census.xleaf
                assert report.uyleaf + report.bxleaf == census.yleaf


class TestPsi:
    def test_deep_chain(self):
        # Word 1200 ... 1: vertex i < 1200 has children (tree of i+1, leaf).
        t = gessel_forward(StirlingPermutation.from_word(range(1200, 0, -1)))
        flipped = psi(t, 1199)
        assert serialize(flipped) == (
            "".join(f"({v} " for v in range(1, 1199))
            + "(1199 * (1200 * *))" + " *)" * 1198)
        assert serialize(toggle(flipped, 1199)) == serialize(t)
        assert serialize(psi(t, 1200)) == serialize(t)

    def test_flips_unbalanced_y(self):
        assert serialize(psi(parse_tree(SEG_TREE), 2)) == FLIPPED_TREE

    def test_identity_elsewhere(self):
        t = parse_tree(SEG_TREE)
        for v in (1, 4, 5, 6, 7):  # no-xy, balanced, unbalanced-x
            assert psi(t, v) == t

    def test_absent_vertex(self):
        for flip in (psi, toggle):
            for v in (0, 8):
                with pytest.raises(DomainError):
                    flip(parse_tree(SEG_TREE), v)
        # A table with fewer vertices than its multiset has values is refused
        # when it is built, so there is no such tree to flip.
        with pytest.raises(TreeValidationError) as info:
            GesselTree(((1,), (0, 0)), Multiset((1, 1)))
        assert str(info.value) == "invalid tree: vertex 2 is missing"

    def test_preserves_validity_and_z_leaves(self):
        for m in small_family():
            for w in enumerate_stirling(m):
                t = gessel_forward(StirlingPermutation(w, m))
                census = leaf_census(t)
                for v in range(1, m.n + 1):
                    u = psi(t, v)
                    gessel_inverse(u)  # validates
                    assert leaf_census(u).zleaf_by_j == census.zleaf_by_j


class TestToggle:
    def test_flips_both_unbalanced_kinds(self):
        t = tree_of((1, 1, 2, 2))
        assert serialize(toggle(t, 1)) == "(1 (2 * * *) * *)"
        assert toggle(toggle(t, 1), 1) == t
        assert toggle(t, 2) == t  # balanced vertex is fixed

    def test_involution_exhaustive(self):
        for m in small_family():
            for w in enumerate_stirling(m):
                t = gessel_forward(StirlingPermutation(w, m))
                for v in range(1, m.n + 1):
                    assert toggle(toggle(t, v), v) == t

    @given(st.data())
    def test_involution_random(self, data):
        m = data.draw(st.sampled_from([
            Multiset((2, 2, 2)), Multiset((3, 1, 2)), Multiset((1, 2, 2, 1)),
            Multiset((2, 3)), Multiset((4, 2)),
        ]))
        words = list(enumerate_stirling(m))
        w = words[data.draw(st.integers(0, len(words) - 1))]
        v = data.draw(st.integers(1, m.n))
        t = gessel_forward(StirlingPermutation(w, m))
        assert toggle(toggle(t, v), v) == t


class TestCanonical:
    def test_examples(self):
        assert not is_canonical(parse_tree(SEG_TREE))
        assert is_canonical(parse_tree(CANONICAL_TREE))
        assert serialize(canonical_representative(parse_tree(SEG_TREE))) == CANONICAL_TREE
        assert canonical_representative(tree_of((2, 2, 1, 1))) == tree_of((1, 1, 2, 2))

    def test_fixed_points(self):
        for word in ((1, 1, 2, 2), (1, 2, 2, 1), ()):
            t = tree_of(word)
            assert is_canonical(t)
            assert canonical_representative(t) is t

    def test_canonical_is_idempotent_and_preserves_z(self):
        for m in small_family():
            for w in enumerate_stirling(m):
                t = gessel_forward(StirlingPermutation(w, m))
                c = canonical_representative(t)
                assert is_canonical(c)
                assert canonical_representative(c) == c
                assert leaf_census(c).zleaf_by_j == leaf_census(t).zleaf_by_j

    def test_flip_order_does_not_matter(self):
        rng = random.Random(20214)
        pool = [m for m in small_family()]
        for _ in range(300):
            m = rng.choice(pool)
            words = list(enumerate_stirling(m))
            t = gessel_forward(StirlingPermutation(rng.choice(words), m))
            u = t
            while True:
                bad = balance_report(u).vertices_with(BalanceStatus.UNBALANCED_Y)
                if not bad:
                    break
                u = psi(u, rng.choice(bad))
            assert u == canonical_representative(t)

    def test_enumerate_canonical(self):
        trees = list(enumerate_canonical(Multiset((2, 2))))
        assert {serialize(t) for t in trees} == {
            "(1 * * (2 * * *))",
            "(1 * (2 * * *) *)",
        }
        for m in small_family():
            listed = list(enumerate_canonical(m))
            assert all(is_canonical(t) for t in listed)
            assert len(set(map(serialize, listed))) == len(listed)


class TestOrbit:
    def test_doubled_pair(self):
        o = orbit(tree_of((1, 1, 2, 2)))
        assert o == {tree_of((1, 1, 2, 2)), tree_of((2, 2, 1, 1))}
        assert orbit(tree_of((2, 2, 1, 1))) == o
        assert orbit(tree_of((1, 2, 2, 1))) == {tree_of((1, 2, 2, 1))}

    def test_partitions_the_family(self):
        for m in small_family(max_n=3, max_k=2, max_total=6):
            trees = [gessel_forward(StirlingPermutation(w, m)) for w in enumerate_stirling(m)]
            orbits = {frozenset(orbit(t)) for t in trees}
            assert sum(len(o) for o in orbits) == len(trees)
            assert len(orbits) == sum(1 for _ in enumerate_canonical(m))
            for o in orbits:
                canon = {serialize(canonical_representative(t)) for t in o}
                assert len(canon) == 1
                sizes = {len(orbit(t)) for t in o}
                assert sizes == {len(o)}

    def test_orbit_size_is_a_power_of_two(self):
        for m in small_family(max_n=3, max_k=2, max_total=6):
            for t in enumerate_canonical(m):
                size = len(orbit(t))
                report = balance_report(t)
                assert size == 2 ** report.uxleaf

    def test_cost_cap_bounds_members_times_letters(self, monkeypatch):
        # (1 * * (2 * * *)) has 2 members of 4 letters: 8 letters in all.
        t = tree_of((1, 1, 2, 2))
        monkeypatch.setattr(action, "ORBIT_COST_CAP", 8)
        assert len(orbit(t)) == 2
        monkeypatch.setattr(action, "ORBIT_COST_CAP", 7)
        with pytest.raises(OrbitTooLargeError) as info:
            orbit(t)
        assert (info.value.uxleaf, info.value.K, info.value.cost) == (1, 4, 8)


class TestTernary:
    def test_examples(self):
        assert is_canonical_ternary(tree_of((1, 2, 2, 1)))
        assert is_canonical_ternary(tree_of((1, 1, 2, 2)))
        # z-leaf at a vertex with no x-leaf:
        assert not is_canonical_ternary(tree_of((2, 2, 1, 1)))

    def test_requires_doubled_multiset(self):
        with pytest.raises(DomainError):
            is_canonical_ternary(tree_of((1,)))
        with pytest.raises(DomainError):
            is_canonical_ternary(tree_of((1, 2, 2, 2, 1)))

    def test_matches_dplat_free(self):
        for n in (1, 2, 3):
            m = Multiset((2,) * n)
            for w in enumerate_stirling(m):
                prof = statistics(w, m.n)
                t = gessel_forward(StirlingPermutation(w, m))
                assert is_canonical_ternary(t) == (prof.dplat == 0)


class TestPrune:
    def test_worked_example(self):
        p = prune(parse_tree(CANONICAL_TREE))
        assert serialize_pruned(p) == PRUNED_TEXT
        assert p.weight() == (3, 3)
        assert p.zleaf == 5

    @pytest.mark.parametrize("word,text,weight", [
        ((1, 2, 2, 1), "(1:u (2:u *))", (2, 0)),
        ((1, 1, 2, 2), "(1:v * (2:u *))", (1, 1)),
        ((1, 1), "(1:u *)", (1, 0)),
        ((1,), "(1:u)", (1, 0)),
    ])
    def test_small_cases(self, word, text, weight):
        p = prune(tree_of(word))
        assert serialize_pruned(p) == text
        assert p.weight() == weight
        assert (p.u_count, p.v_count) == weight

    def test_weight_requires_canonical(self):
        p = prune(tree_of((2, 2, 1, 1)))
        with pytest.raises(NotCanonicalError) as exc:
            p.weight()
        assert exc.value.vertex == 1

    def test_zleaf_preserved(self):
        for m in small_family():
            for w in enumerate_stirling(m):
                t = gessel_forward(StirlingPermutation(w, m))
                assert prune(t).zleaf == leaf_census(t).zleaf

    def test_labels_that_do_not_increase(self):
        # Such a table is refused when it is built, so there is none to prune.
        with pytest.raises(TreeValidationError) as info:
            GesselTree(((2,), (0, 0), (1, 0)), Multiset((1, 1)))
        assert str(info.value) == "invalid tree: edge (2 -> 1) is not label-increasing"


class TestLabels:
    @pytest.mark.parametrize("table, message", [
        (((1,), (2, 2), (0, 0)), "vertex 2 appears more than once"),
        (((1,), (3, 0), (0, 0)),
         "vertex label 3 outside 1..2; vertex 2 is not reached from the root"),
    ], ids=["duplicate", "gap"])
    @pytest.mark.parametrize("kernel", [leaf_census, prune, canonical_representative])
    def test_labels_other_than_one_to_n_are_refused(self, kernel, table, message):
        # The table is refused when the tree is built, before the kernel runs.
        with pytest.raises(TreeValidationError) as info:
            kernel(GesselTree(table, Multiset((1, 1))))
        assert str(info.value) == "invalid tree: " + message

    @pytest.mark.parametrize("table, mults, message", [
        (((1,), (2, 0), ()), (1, 1), "vertex 2 has 0 children, expected 2"),
        (((1,), (2, 0), (0,)), (1, 1), "vertex 2 has 1 children, expected 2"),
        # 2 and 3 in each other's rows: a cycle has an edge that does not increase
        (((1,), (0, 0), (3, 0), (2, 0)), (1, 1, 1), "edge (3 -> 2) is not label-increasing"),
        (((0,), (0, 0)), (1, 1), "root must be an internal vertex for {1,1}"),
        (((1,), (1, 0)), (1,), "vertex 1 appears more than once"),
        (((0, 1), (0, 0)), (1, 1), "row 0 of a slot table must hold the root alone"),
    ], ids=["empty-row", "one-slot-row", "cycle", "no-root", "loop", "two-roots"])
    def test_tables_that_are_not_one_tree_are_refused(self, table, mults, message):
        with pytest.raises(TreeValidationError) as info:
            GesselTree(table, Multiset(mults))
        assert str(info.value) == "invalid tree: " + message
