"""The shift-table derivative and the half-row peel against their slow references.

``reference_kernels`` keeps the generic Leibniz loop and the full-row peel
the grammar tier started from.  The package kernels must give equal
polynomials and tables on every input, and on a bad input raise the same
error class with the same message and the same ``(i, j, value)``.
"""

import ast
import importlib
import inspect
from itertools import product

import pytest
import reference_kernels as ref
from hypothesis import given, strategies as st

from gesselgamma import (
    GammaExtractionError,
    Multiset,
    Poly3,
    UVZ,
    XYZ,
    c_polynomial_grammar,
    change_of_variables_check,
    count_stirling,
    derive,
    DomainError,
    FamilySpec,
    GammaTable,
    gamma_extract,
    gamma_polynomial_grammar,
    gamma_reconstruct,
    gamma_table_from_uvz,
    substitute_uv,
    uvz_rules,
    xyz_rules,
)
from gesselgamma.grammar import GrammarRuleSet, shift_table

X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")

exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
coeffs = st.integers(-9, 9).filter(bool)
signed_polys = st.dictionaries(exponents, coeffs, max_size=8).map(
    lambda terms: Poly3(XYZ, terms))
# small exponents and unit coefficients, so that terms meet and cancel often
rule_bodies = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([-2, -1, 1, 2]), max_size=3).map(lambda terms: Poly3(XYZ, terms))
rule_sets = st.tuples(rule_bodies, rule_bodies, rule_bodies).map(
    lambda bodies: GrammarRuleSet(XYZ, dict(zip(XYZ, bodies))))


def outcome(f, *args, **kwargs):
    """The result, or the error's class, message and fields."""
    try:
        return ("ok", f(*args, **kwargs))
    except GammaExtractionError as exc:
        return ("error", type(exc), str(exc), exc.reason, exc.i, exc.j, exc.value)


def test_reference_kernels_import_no_package_function():
    tree = ast.parse(open(ref.__file__).read())
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module.startswith("gesselgamma")
             for alias in node.names]
    assert names
    for module, name in names:
        assert not inspect.isroutine(getattr(importlib.import_module(module), name)), name


class TestDerive:
    def test_shift_table_rows(self):
        assert shift_table(xyz_rules(3)) == (
            (0, 0, 1, 2, 1), (1, 1, 0, 2, 1), (2, 1, 1, 1, 1))
        assert shift_table(uvz_rules(2)) == (
            (0, 0, 1, 1, 1), (1, 1, -1, 1, 2), (2, 1, 0, 0, 1))

    @given(signed_polys, rule_sets)
    def test_matches_reference_on_signed_multi_monomial_rules(self, p, rules):
        got = derive(p, rules)
        assert got == ref.derive(p, rules)
        assert all(got.terms.values())

    def test_cancellation_to_zero_drops_every_term(self):
        # x -> y, y -> -x: D(x^2 + y^2) = 2xy - 2yx = 0, and D(z) = z is kept
        rules = GrammarRuleSet(XYZ, {"x": Y, "y": -X, "z": Z})
        assert derive(X ** 2 + Y ** 2, rules).terms == {}
        assert derive(X ** 2 + Y ** 2 + Z, rules).terms == {(0, 0, 1): 1}
        assert ref.derive(X ** 2 + Y ** 2 + Z, rules).terms == {(0, 0, 1): 1}

    def test_cancelling_rule_monomials(self):
        # x -> x y - x y + z: the first two rows meet on one key and cancel
        rules = GrammarRuleSet(XYZ, {
            "x": Poly3(XYZ, {(1, 1, 0): 1, (0, 0, 1): 1}) - X * Y,
            "y": X * Y - Y * Z, "z": Poly3(XYZ, {(0, 1, 0): 3, (1, 0, 0): -3})})
        for p in (X, X * Y * Z, (X + Y - Z) ** 3, 2 * X ** 2 - 5 * Y * Z):
            got = derive(p, rules)
            assert got == ref.derive(p, rules)
            assert all(got.terms.values())


def small_multisets(max_n=6, max_k=4):
    for n in range(1, max_n + 1):
        yield from (Multiset(mults) for mults in product(range(1, max_k + 1), repeat=n))


def test_chains_match_reference_chains():
    for m in small_multisets():
        p = X
        for k in m.mults:
            p = ref.derive(p, xyz_rules(k))
        assert c_polynomial_grammar(m) == p, m
        q = Poly3.monomial((1, 0, m.mults[0] - 1), 1, UVZ)
        for k in m.mults[1:]:
            q = ref.derive(q, uvz_rules(k))
        assert gamma_polynomial_grammar(m) == q, m


def reference_chains(mults):
    """The xyz and uvz polynomials of mults by chains of reference derive
    steps; the uvz one is None for the empty multiset, which has no seed."""
    p = X
    for k in mults:
        p = ref.derive(p, xyz_rules(k))
    if not mults:
        return p, None
    q = Poly3.monomial((1, 0, mults[0] - 1), 1, UVZ)
    for k in mults[1:]:
        q = ref.derive(q, uvz_rules(k))
    return p, q


def assert_xyz_terms_are_stored_whole(p, m):
    # the half kernel writes each term and its mirror: none may be zero,
    # and every term lies on the weight a + b + c = K + 1
    assert all(p.terms.values())
    assert {a + b + c for a, b, c in p.terms} == {m.K + 1}


def test_rule_rows_have_the_shape_the_slice_kernel_reads():
    # pins xyz_rules/uvz_rules, the definition derive reads, to the effects
    # that c_polynomial_grammar and gamma_polynomial_grammar apply directly:
    # one row per variable, in order; each raises the weight w*a + b + c
    # (w = 1 for xyz, 2 for uvz) by k, so b is read off the weight; a never
    # falls, the first two rows share a z-shift and the third shifts z by
    # one less, and every coefficient is positive
    for k in range(1, 9):
        for rules, w in ((xyz_rules(k), 1), (uvz_rules(k), 2)):
            rows = shift_table(rules)
            assert [idx for idx, *_ in rows] == [0, 1, 2]
            assert {w * da + db + dc for _, da, db, dc, _ in rows} == {k}
            assert all(da >= 0 and rc > 0 for _, da, _, _, rc in rows)
            assert rows[0][3] == rows[1][3] == rows[2][3] + 1
        # the xyz half kernel: the x-row keeps a and raises b by one, the
        # y-row is its mirror image (da and db swapped, the same dc and
        # coefficient), and the z-row raises a and b by one
        (_, xda, xdb, xdc, xc), (_, yda, ydb, ydc, yc), (_, zda, zdb, _, _) = \
            shift_table(xyz_rules(k))
        assert (xda, xdb) == (0, 1)
        assert (yda, ydb, ydc, yc) == (xdb, xda, xdc, xc)
        assert (zda, zdb) == (1, 1)


@pytest.mark.parametrize("mults", [
    (2,) * 60,
    (1,) * 100,
    (4,) * 30,
    (4, 1, 3, 1, 1, 4, 2, 1) * 4,  # k = 1 between larger ones: the z-row shifts by -1
    (1, 4) * 12 + (1,),
    (3, 1, 1, 1, 2, 1, 4, 1, 1, 3),
    # the empty chain is the seed x, and one step leaves the single
    # diagonal term x y z^(k-1)
    (),
    *((k,) for k in range(1, 7)),
    (1, 1),
    (1,) * 40,
    (2,) * 40,
    # multiplicities past 6: the seed slice k_1 - 1 and the z-image's shift k - 2
    (40,),
    (1, 40),
    (12, 1, 7),
    (3, 25, 2, 9),
    (7,) * 6,
    (9, 1, 1, 13),
])
def test_chains_match_reference_chains_on_large_shapes(mults):
    p, q = reference_chains(mults)
    m = Multiset(mults)
    got = c_polynomial_grammar(m)
    assert got == p
    assert sum(p.terms.values()) == count_stirling(m)
    assert_xyz_terms_are_stored_whole(got, m)
    if q is None:
        with pytest.raises(DomainError):
            gamma_polynomial_grammar(m)
    else:
        assert gamma_polynomial_grammar(m) == q


@given(st.lists(st.integers(1, 6), min_size=1, max_size=25))
def test_chains_match_reference_chains_on_random_multiplicities(mults):
    p, q = reference_chains(mults)
    m = Multiset(tuple(mults))
    got = c_polynomial_grammar(m)
    assert got == p
    assert_xyz_terms_are_stored_whole(got, m)
    assert gamma_polynomial_grammar(m) == q


def basis_element(i, j, d):
    """(xy)^j (x+y)^(d-2j) z^i."""
    return (X * Y) ** j * (X + Y) ** (d - 2 * j) * Z ** i


@st.composite
def symmetric_polys(draw, K=None, signed=True):
    """A symmetric polynomial with homogeneous z-slices, of degree K+1-i when
    K is given: a sum of basis elements plus, when signed, some symmetric
    noise (x^a y^b + x^b y^a alone has no positive expansion)."""
    p = Poly3.zero()
    top = 6 if K is None else K + 1
    for i in draw(st.sets(st.integers(0, top), min_size=1, max_size=3)):
        d = draw(st.integers(0, 8)) if K is None else K + 1 - i
        for j in draw(st.sets(st.integers(0, d // 2), max_size=3)):
            g = draw(st.integers(-4, 9) if signed else st.integers(1, 9))
            p = p + g * basis_element(i, j, d)
        if signed and draw(st.booleans()):
            a = draw(st.integers(0, d))
            c = draw(st.integers(-3, 3))
            p = p + c * (X ** a * Y ** (d - a) + X ** (d - a) * Y ** a) * Z ** i
    return p


class TestPeel:
    @given(symmetric_polys(signed=True))
    def test_signed_change_of_variables_matches_reference(self, p):
        assert (outcome(change_of_variables_check, p, signed=True)
                == outcome(ref.change_of_variables_check, p, signed=True))

    @given(symmetric_polys(signed=True))
    def test_unsigned_change_of_variables_matches_reference(self, p):
        assert outcome(change_of_variables_check, p) == outcome(ref.change_of_variables_check, p)

    @given(st.integers(0, 7).flatmap(lambda K: st.tuples(
        st.just(K), symmetric_polys(K=K, signed=True))))
    def test_gamma_extract_matches_reference(self, case):
        K, p = case
        assert outcome(gamma_extract, p, K) == outcome(ref.gamma_extract, p, K)

    @given(st.integers(0, 7).flatmap(lambda K: st.tuples(
        st.just(K), symmetric_polys(K=K, signed=False))))
    def test_gamma_extract_of_positive_expansions(self, case):
        K, p = case
        got = outcome(gamma_extract, p, K)
        assert got[0] == "ok"
        assert got == outcome(ref.gamma_extract, p, K)

    @given(signed_polys, st.integers(0, 9))
    def test_arbitrary_polynomials_give_the_reference_outcome(self, p, K):
        assert outcome(gamma_extract, p, K) == outcome(ref.gamma_extract, p, K)
        for signed in (False, True):
            assert (outcome(change_of_variables_check, p, signed=signed)
                    == outcome(ref.change_of_variables_check, p, signed=signed))

    def test_errors_keep_message_and_fields(self):
        cases = [
            (gamma_extract, (X ** 2 * Y, 2), {}),                         # asymmetric
            (gamma_extract, (X * Y * Z + (X * Y) ** 2 * Z, 3), {}),       # inhomogeneous
            (gamma_extract, (X ** 2 + Y ** 2, 1), {}),                    # negative peel
            (gamma_extract, (X * Y + 2 * (X + Y) * Z - 7 * X * Y * Z, 1), {}),
            (change_of_variables_check, (X,), {}),
            (change_of_variables_check, (X * Y + X + Y,), {}),
            (change_of_variables_check, (X ** 2 + Y ** 2,), {}),
            (change_of_variables_check, ((X + Y) ** 4 - 9 * X ** 2 * Y ** 2,), {}),
        ]
        for f, args, kwargs in cases:
            got = outcome(f, *args, **kwargs)
            assert got[0] == "error", (f.__name__, args)
            assert got == outcome(getattr(ref, f.__name__), *args, **kwargs)
        assert outcome(gamma_extract, X ** 2 + Y ** 2, 1)[4:] == (0, 1, -2)
        assert outcome(change_of_variables_check,
                       (X + Y) ** 4 - 9 * X ** 2 * Y ** 2)[4:] == (0, 2, -9)

    def test_negative_exponents_peel_like_the_reference(self):
        p = Poly3(XYZ, {(-1, 3, 0): 2, (3, -1, 0): 2, (1, 1, 0): 5})
        assert outcome(gamma_extract, p, 1) == outcome(ref.gamma_extract, p, 1)
        assert (outcome(change_of_variables_check, p, signed=True)
                == outcome(ref.change_of_variables_check, p, signed=True))


uvz_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 3)),
    coeffs, max_size=8).map(lambda terms: Poly3(UVZ, terms))


@st.composite
def signed_tables(draw):
    """A table of signed entries, all inside the basis range of its K."""
    K = draw(st.integers(0, 8))
    keys = st.integers(0, K + 1).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(0, (K + 1 - i) // 2)))
    return GammaTable(K, draw(st.dictionaries(keys, coeffs, max_size=6)))


class TestUvExpansion:
    def test_bounded_family_matches_reference(self):
        for m in FamilySpec().members():
            q = gamma_polynomial_grammar(m)
            assert substitute_uv(q) == ref.substitute_uv(q), m
            table = gamma_table_from_uvz(q, m.K)
            assert gamma_reconstruct(table) == ref.gamma_reconstruct(table), m

    @given(uvz_polys)
    def test_signed_polynomials_match_reference(self, q):
        got = substitute_uv(q)
        assert got == ref.substitute_uv(q)
        assert all(got.terms.values())

    @given(signed_tables())
    def test_signed_tables_match_reference(self, table):
        got = gamma_reconstruct(table)
        assert got == ref.gamma_reconstruct(table)
        assert all(got.terms.values())

    def test_cancelled_terms_are_not_stored(self):
        U, V = Poly3.variable("u", UVZ), Poly3.variable("v", UVZ)
        got = substitute_uv(V ** 2 - 2 * U)
        assert got.terms == {(2, 0, 0): 1, (0, 2, 0): 1}
        assert got == ref.substitute_uv(V ** 2 - 2 * U)
        got = substitute_uv(V ** 3 * U - 3 * U ** 2 * V)
        assert got.terms == {(4, 1, 0): 1, (1, 4, 0): 1}
        assert substitute_uv(Poly3.zero(UVZ)).terms == {}

    def test_errors_match_reference(self):
        for f in (substitute_uv, ref.substitute_uv):
            with pytest.raises(DomainError, match=r"expected a polynomial over \('u', 'v', 'z'\)"):
                f(X)
        for table in (GammaTable(2, {(0, 2): 1}), GammaTable(2, {(1, 2): 3, (0, 2): 1})):
            got = outcome(gamma_reconstruct, table)
            assert got[0] == "error"
            assert got == outcome(ref.gamma_reconstruct, table)
            assert got[3:] == ("table entry outside the basis range", 0, 2, 1)
