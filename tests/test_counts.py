"""Counting routes: the trivariate polynomial and the four gamma tabulations."""

import argparse
from itertools import product

import pytest

from gesselgamma import (
    DomainError,
    GAMMA_ROUTES,
    Multiset,
    Poly3,
    c_polynomial_enum,
    count_stirling,
    gamma_count_mma,
    gamma_count_perms,
    gamma_count_ternary,
    gamma_count_trees,
    gamma_extract,
)
from gesselgamma import cli, counts
from oracles import bivariate_eulerian, eulerian_row


def small_family(max_n=3, max_k=3, max_total=7):
    for n in range(1, max_n + 1):
        for mults in product(range(1, max_k + 1), repeat=n):
            if sum(mults) <= max_total:
                yield Multiset(mults)


class TestCPolynomial:
    def test_examples(self):
        assert c_polynomial_enum(Multiset(())) == Poly3.variable("x")
        assert c_polynomial_enum(Multiset((1,))).terms == {(1, 1, 0): 1}
        for k in (1, 2, 3, 5):
            assert c_polynomial_enum(Multiset((k,))).terms == {(1, 1, k - 1): 1}
        assert c_polynomial_enum(Multiset((2, 2))).terms == {
            (1, 2, 2): 1, (2, 1, 2): 1, (2, 2, 1): 1,
        }

    def test_total_mass_is_the_count(self):
        for m in small_family():
            p = c_polynomial_enum(m)
            assert sum(p.terms.values()) == count_stirling(m)

    def test_degree_invariants(self):
        for m in small_family():
            for (a, b, c), coeff in c_polynomial_enum(m).terms.items():
                assert coeff > 0
                assert a + b + c == m.K + 1
                assert a >= 1 and b >= 1
                assert c <= m.K - m.n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_single_copies_give_eulerian_polynomials(self, n):
        p = c_polynomial_enum(Multiset((1,) * n))
        slices = p.z_slices()
        assert set(slices) == {0}
        assert slices[0] == bivariate_eulerian(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_descent_marginal_is_the_eulerian_row(self, n):
        p = c_polynomial_enum(Multiset((1,) * n))
        marginal: dict[int, int] = {}
        for (_, b, _), coeff in p.terms.items():
            marginal[b] = marginal.get(b, 0) + coeff
        row = eulerian_row(n)
        assert marginal == {b: row[b - 1] for b in range(1, n + 1) if row[b - 1]}

    @pytest.mark.parametrize("n,row", [
        (1, (1,)),
        (2, (1, 2)),
        (3, (1, 8, 6)),
        (4, (1, 22, 58, 24)),
    ])
    def test_doubled_descent_marginal_is_second_order_eulerian(self, n, row):
        p = c_polynomial_enum(Multiset.uniform(n, 2))
        marginal: dict[int, int] = {}
        for (_, b, _), coeff in p.terms.items():
            marginal[b] = marginal.get(b, 0) + coeff
        assert marginal == {b: row[b - 1] for b in range(1, n + 1)}


class TestGammaRoutes:
    def test_doubled_pair_tables(self):
        expected = {(1, 2): 1, (2, 1): 1}
        m = Multiset((2, 2))
        assert gamma_count_trees(m).entries == expected
        assert gamma_count_perms(m).entries == expected
        assert gamma_count_mma(m).entries == expected
        assert gamma_count_ternary(m).entries == expected

    def test_mma_key_order_on_three_values(self):
        # {1^2, 2^2} is symmetric in (i, j) and cannot pin the key order down;
        # {1^2, 2^2, 3^2} is not, and this table does
        assert gamma_count_mma(Multiset.uniform(3, 2)).entries == {
            (1, 3): 1, (2, 2): 4, (3, 1): 1, (3, 2): 2,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mma_agrees_with_ternary(self, n):
        m = Multiset.uniform(n, 2)
        assert gamma_count_mma(m) == gamma_count_ternary(m)

    def test_all_routes_agree_with_extraction(self):
        for m in small_family():
            table = gamma_extract(c_polynomial_enum(m), m.K)
            assert gamma_count_trees(m) == table
            assert gamma_count_perms(m) == table

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_doubled_routes_agree_with_extraction(self, n):
        m = Multiset.uniform(n, 2)
        table = gamma_extract(c_polynomial_enum(m), m.K)
        assert gamma_count_mma(m) == table
        assert gamma_count_ternary(m) == table

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma_count_trees(Multiset(()))
        with pytest.raises(DomainError):
            gamma_count_perms(Multiset(()))
        for m in (Multiset(()), Multiset((2, 1)), Multiset((1, 1))):
            with pytest.raises(DomainError, match="doubled"):
                gamma_count_mma(m)
            with pytest.raises(DomainError, match="doubled"):
                gamma_count_ternary(m)

    def test_gamma_mass_counts_canonical_members(self):
        # each gamma entry counts whole orbits once
        for m in small_family(max_n=3, max_k=2, max_total=6):
            total = sum(gamma_count_trees(m).entries.values())
            assert total == sum(gamma_count_perms(m).entries.values())
            assert total <= count_stirling(m)


def via_choices(command):
    """The --via choices the command-line parser offers for a command."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (via,) = [a for a in sub.choices[command]._actions if a.dest == "via"]
    return via.choices


class TestRouteRegistry:
    def test_six_routes_in_order(self):
        assert list(GAMMA_ROUTES) == ["extract", "grammar", "trees", "perms", "mma", "ternary"]

    def test_gamma_via_choices_are_the_registry(self):
        assert via_choices("gamma") == list(GAMMA_ROUTES)

    @pytest.mark.parametrize("route, name", [
        ("trees", "gamma_count_trees"), ("perms", "gamma_count_perms"),
        ("mma", "gamma_count_mma"), ("ternary", "gamma_count_ternary"),
        ("extract", "c_polynomial_enum"), ("extract", "gamma_extract"),
        ("grammar", "gamma_polynomial_grammar"), ("grammar", "gamma_table_from_uvz"),
    ])
    def test_routes_look_their_functions_up_when_called(self, monkeypatch, route, name):
        # A tracer rebinds module names, so a route must not hold a function.
        class Called(Exception):
            pass

        def stand_in(*args):
            raise Called(name)

        monkeypatch.setattr(counts, name, stand_in)
        with pytest.raises(Called):
            GAMMA_ROUTES[route](Multiset((2, 2)))
