"""Sparse trivariate polynomials, gamma tables, and basis extraction."""

import json
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from gesselgamma import (
    UVZ,
    XYZ,
    GammaExtractionError,
    GammaTable,
    Multiset,
    ParseError,
    Poly3,
    c_polynomial_enum,
    gamma_extract,
    gamma_reconstruct,
    gamma_table_from_uvz,
    gamma_table_to_uvz,
    is_symmetric,
)

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")


def small_family(max_n=3, max_k=3, max_total=7):
    for n in range(1, max_n + 1):
        for mults in product(range(1, max_k + 1), repeat=n):
            if sum(mults) <= max_total:
                yield Multiset(mults)


class TestArithmetic:
    def test_binomial_square(self):
        assert ((X + Y) ** 2).terms == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}

    def test_zero_terms_are_stripped(self):
        assert (X - X).is_zero()
        assert Poly3(XYZ, {(1, 0, 0): 0}).terms == {}
        assert ((X + Y) * (X - Y)).terms == {(2, 0, 0): 1, (0, 2, 0): -1}

    def test_scalar_and_power(self):
        assert 3 * X == X * 3 == Poly3.monomial((1, 0, 0), 3)
        assert X ** 0 == Poly3.one()
        assert (X * Y * Z) ** 4 == Poly3.monomial((4, 4, 4))
        with pytest.raises(ParseError):
            X ** -1

    def test_signature_mismatch(self):
        with pytest.raises(ParseError):
            X + Poly3.variable("u", UVZ)
        with pytest.raises(ParseError):
            Poly3(("x", "y"))

    def test_big_coefficients_stay_exact(self):
        big = 10 ** 30
        p = Poly3.monomial((1, 1, 0), big)
        assert (p + p).coefficient((1, 1, 0)) == 2 * big
        assert (p * p).coefficient((2, 2, 0)) == big * big

    def test_str(self):
        assert str(Poly3.zero()) == "0"
        assert str(X * Y - 2 * Z ** 3 + Poly3.one()) == "1 - 2*z^3 + x*y"

    def test_z_slices(self):
        p = X * Y * Z + (X + Y) * Z + Poly3.one()
        assert p.z_slices() == {
            0: {(0, 0): 1},
            1: {(1, 1): 1, (1, 0): 1, (0, 1): 1},
        }


class TestSerialization:
    def test_poly_json_exact(self):
        p = 2 * X * Y + Z
        assert p.to_json_dict() == {
            "vars": ["x", "y", "z"],
            "terms": [
                {"e": [0, 0, 1], "c": "1"},
                {"e": [1, 1, 0], "c": "2"},
            ],
        }
        assert Poly3.from_json(p.to_json()) == p

    def test_poly_csv(self):
        assert (2 * X * Y + Z).to_csv() == "x,y,z,coeff\n0,0,1,1\n1,1,0,2\n"

    def test_poly_json_rejects_garbage(self):
        with pytest.raises(ParseError):
            Poly3.from_json_dict({"vars": ["x", "y", "z"]})
        with pytest.raises(ParseError):
            Poly3.from_json('{"vars": ["x","y","z"], "terms": [{"e": [1,0,0]}]}')
        with pytest.raises(ParseError, match="^bad polynomial JSON: "):
            Poly3.from_json('{"vars": ["x","y","z"], ')
        bad_terms = [
            [{"e": [1, 2], "c": "1"}],
            [{"e": [1, 2, 3, 4], "c": "1"}],
            [{"e": ["a", 2, 3], "c": "1"}],
            [{"e": [-1, 2, 3], "c": "1"}],
            [{"e": [True, 2, 3], "c": "1"}],
            [{"e": [1.0, 2, 3], "c": "1"}],
            [{"e": [1, 2, 3], "c": "1"}, {"e": [1, 2, 3], "c": "5"}],
            [{"e": [1, 2, 3], "c": 1.7}],
            [{"e": [1, 2, 3], "c": "1.7"}],
            [{"e": [1, 2, 3], "c": " 5"}],
            [{"e": [1, 2, 3], "c": True}],
        ]
        for terms in bad_terms:
            with pytest.raises(ParseError, match="^bad polynomial JSON: "):
                Poly3.from_json_dict({"vars": ["x", "y", "z"], "terms": terms})
        bad_lists = [
            '{"vars": [1, 2, 3], "terms": []}',
            '{"vars": [["x"], ["y"], ["z"]], "terms": []}',
            '{"vars": ["x", "x", "z"], "terms": []}',
            '{"vars": ["x", "y", "z", "w"], "terms": []}',
            '{"vars": "xyz", "terms": []}',
            '{"vars": ["x", "y", "z"], "terms": {}}',
            '{"vars": ["x", "y", "z"], "terms": "[]"}',
        ]
        for text in bad_lists:
            with pytest.raises(ParseError, match="^bad polynomial JSON: "):
                Poly3.from_json(text)

    def test_poly_variables_are_three_distinct_names(self):
        for vars in [(1, 2, 3), ("x", "x", "z"), ("x", "y"), (None, "y", "z")]:
            with pytest.raises(ParseError, match="3 distinct variable names"):
                Poly3(vars)
        assert Poly3(["u", "v", "z"]).vars == UVZ

    def test_poly_json_reads_ints_and_decimal_strings(self):
        terms = [{"e": [0, 0, 1], "c": -3}, {"e": [1, 1, 0], "c": "-12"}]
        p = Poly3.from_json_dict({"vars": ["u", "v", "z"], "terms": terms})
        assert p.terms == {(0, 0, 1): -3, (1, 1, 0): -12}
        assert Poly3.from_json(p.to_json()) == p

    def test_table_json_exact(self):
        t = GammaTable(3, {(1, 1): 2, (0, 1): 1})
        assert t.to_json_dict() == {
            "K": 3,
            "entries": [{"i": 0, "j": 1, "g": 1}, {"i": 1, "j": 1, "g": 2}],
        }
        assert GammaTable.from_json(t.to_json()) == t
        assert t.to_csv() == "i,j,g\n0,1,1\n1,1,2\n"

    def test_table_json_rejects_garbage(self):
        good = {"i": 0, "j": 1, "g": 1}
        bad = [
            {"K": "6", "entries": [good]},
            {"K": 6.0, "entries": [good]},
            {"K": True, "entries": [good]},
            {"K": 6, "entries": [good, {"i": 0, "j": 1, "g": 2}]},
            {"K": 6, "entries": [{"i": -1, "j": 1, "g": 1}]},
            {"K": 6, "entries": [{"i": 0, "j": -1, "g": 1}]},
            {"K": 6, "entries": [{"i": "0", "j": 1, "g": 1}]},
            {"K": 6, "entries": [{"i": 0, "j": 1, "g": 1.5}]},
            {"K": 6, "entries": [{"i": 0, "j": 1, "g": "1.5"}]},
            {"K": 6, "entries": [{"i": 0, "j": 1}]},
            {"K": -3, "entries": [good]},
            {"K": 3, "entries": {}},
            {"K": 3, "entries": "[]"},
        ]
        for data in bad:
            with pytest.raises(ParseError, match="^bad gamma table JSON: "):
                GammaTable.from_json_dict(data)
        with pytest.raises(ParseError, match="^bad gamma table JSON: "):
            GammaTable.from_json('{"K": 6, ')
        table = GammaTable.from_json_dict({"K": 6, "entries": [good, {"i": 2, "j": 1, "g": "7"}]})
        assert table == GammaTable(6, {(0, 1): 1, (2, 1): 7})

    def test_json_roundtrip_preserves_huge_coefficients(self):
        p = Poly3.monomial((1, 2, 3), 10 ** 40)
        q = Poly3.from_json(p.to_json())
        assert q == p and isinstance(q.coefficient((1, 2, 3)), int)
        assert json.loads(p.to_json())["terms"][0]["c"] == str(10 ** 40)


def permuted(p, idxs, perm):
    """p with the exponent at position idxs[t] moved to perm[t]."""
    terms = {}
    for e, c in p.terms.items():
        f = list(e)
        for i, j in zip(idxs, perm):
            f[j] = e[i]
        terms[tuple(f)] = c
    return Poly3(XYZ, terms)


class TestSymmetry:
    def test_examples(self):
        assert is_symmetric(X + Y, ("x", "y"))
        assert not is_symmetric(X + 2 * Y, ("x", "y"))
        assert is_symmetric(X * Y * Z + X + Y + Z, ("x", "y", "z"))
        assert not is_symmetric(X * Y, ("x", "y", "z"))
        assert is_symmetric(Poly3.zero(), ("x", "y", "z"))

    @given(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-2, 2).filter(bool),
                           max_size=8),
           st.permutations(XYZ), st.integers(0, 3))
    def test_matches_every_permutation_of_the_named_variables(self, terms, order, size):
        p = Poly3(XYZ, terms)
        names = order[:size]
        idxs = [XYZ.index(v) for v in names]
        images = [permuted(p, idxs, perm) for perm in permutations(idxs)]
        assert is_symmetric(p, names) == all(q == p for q in images)
        # the sum of all images is symmetric, so both answers are seen
        assert is_symmetric(sum(images, Poly3.zero()), names)

    def test_bad_names(self):
        with pytest.raises(ParseError):
            is_symmetric(X, ("x", "w"))
        with pytest.raises(ParseError):
            is_symmetric(X, ("x", "x"))


class TestGammaExtract:
    def test_doubled_pair(self):
        # tabulated from the three words on {1,1,2,2}
        p = (
            Poly3.monomial((1, 2, 2)) + Poly3.monomial((2, 1, 2))
            + Poly3.monomial((2, 2, 1))
        )
        assert gamma_extract(p, 4).entries == {(1, 2): 1, (2, 1): 1}

    def test_j_zero_slice(self):
        assert gamma_extract(Z ** 2, 1).entries == {(2, 0): 1}
        assert gamma_extract((X + Y) ** 2, 1).entries == {(0, 0): 1}

    def test_asymmetric_input_names_witness(self):
        with pytest.raises(GammaExtractionError) as exc:
            gamma_extract(X ** 2 * Y, 2)
        assert exc.value.i == 0
        assert exc.value.value == (2, 1)

    def test_inhomogeneous_slice(self):
        with pytest.raises(GammaExtractionError) as exc:
            gamma_extract(X * Y * Z + (X * Y) ** 2 * Z, 3)
        assert exc.value.i == 1

    def test_negative_peel(self):
        with pytest.raises(GammaExtractionError) as exc:
            gamma_extract(X ** 2 + Y ** 2, 1)
        assert (exc.value.i, exc.value.j, exc.value.value) == (0, 1, -2)

    def test_reconstruct_examples(self):
        t = GammaTable(4, {(1, 2): 1, (2, 1): 1})
        p = gamma_reconstruct(t)
        assert p == (X * Y) ** 2 * Z + X * Y * (X + Y) * Z ** 2
        assert gamma_extract(p, 4) == t

    def test_extract_inverts_reconstruct_on_c_polynomials(self):
        for m in small_family():
            p = c_polynomial_enum(m)
            table = gamma_extract(p, m.K)
            assert gamma_reconstruct(table) == p
            assert table.support_violations(m.n) == []

    @given(st.data())
    def test_extract_inverts_reconstruct_randomly(self, data):
        K = data.draw(st.integers(1, 7))
        keys = []
        for i in range(0, K + 1):
            for j in range(0, (K + 1 - i) // 2 + 1):
                keys.append((i, j))
        picked = data.draw(st.sets(st.sampled_from(keys), min_size=1, max_size=6))
        entries = {
            key: data.draw(st.integers(1, 50)) for key in sorted(picked)
        }
        table = GammaTable(K, entries)
        assert gamma_extract(gamma_reconstruct(table), K) == table


class TestUvz:
    def test_to_uvz(self):
        t = GammaTable(4, {(1, 2): 1, (2, 1): 1})
        p = gamma_table_to_uvz(t)
        assert p.vars == UVZ
        assert p.terms == {(2, 0, 1): 1, (1, 1, 2): 1}
        assert gamma_table_from_uvz(p, 4) == t

    def test_from_uvz_validates_shape(self):
        with pytest.raises(GammaExtractionError):
            gamma_table_from_uvz(Poly3.monomial((1, 1, 1), vars=UVZ), 4)  # v-degree off
        with pytest.raises(GammaExtractionError):
            gamma_table_from_uvz(Poly3.monomial((1, 1, 2), -1, vars=UVZ), 4)

    def test_roundtrip_over_family(self):
        for m in small_family():
            table = gamma_extract(c_polynomial_enum(m), m.K)
            assert gamma_table_from_uvz(gamma_table_to_uvz(table), m.K) == table


class TestSupport:
    def test_support_violations(self):
        t = GammaTable(4, {(1, 2): 1, (3, 1): 1, (0, 0): 2, (1, 3): 1})
        assert t.support_violations(2) == [(0, 0), (1, 3), (3, 1)]
        assert GammaTable(4, {(1, 2): 1}).support_violations(2) == []
