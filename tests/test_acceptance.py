"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines stream.
Criteria with a stated time budget fail when the budget is exceeded.
"""

import random
import time
from contextlib import contextmanager

from gesselgamma import (
    FamilySpec,
    GAMMA_ROUTES,
    GammaTable,
    Multiset,
    Poly3,
    StirlingPermutation,
    XYZ,
    balance_report,
    BalanceStatus,
    c_polynomial_enum,
    c_polynomial_grammar,
    canonical_representative,
    count_stirling,
    derive,
    enumerate_stirling,
    first_last_occurrence_flags,
    gamma_count_mma,
    gamma_count_ternary,
    gamma_extract,
    gamma_polynomial_grammar,
    gamma_reconstruct,
    gamma_table_to_uvz,
    gessel_forward,
    gessel_inverse,
    golden_examples,
    is_canonical_ternary,
    is_symmetric,
    leaf_census,
    psi,
    statistics,
    toggle,
    verify,
    xyz_rules,
)
from oracles import bivariate_eulerian, eulerian_row

BOUNDED = FamilySpec().members()  # n <= 4, k <= 3, K <= 10


def with_doubled(members, up_to):
    seen = {m.mults: m for m in members}
    for n in range(1, up_to + 1):
        m = Multiset.uniform(n, 2)
        seen.setdefault(m.mults, m)
    return sorted(seen.values(), key=lambda m: m.mults)


@contextmanager
def criterion(num, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {num} {name}: FAIL ({elapsed:.2f}s, budget {budget:.0f}s)")
        raise AssertionError(
            f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_counts():
    with criterion(1, "counts", budget=10):
        doubled = [1, 3, 15, 105, 945, 10395]
        for n, expected in enumerate(doubled, start=1):
            assert count_stirling(Multiset.uniform(n, 2)) == expected
        for m in BOUNDED:
            assert count_stirling(m) == sum(1 for _ in enumerate_stirling(m))


def test_criterion_02_bijection():
    with criterion(2, "bijection", budget=60):
        for m in with_doubled(BOUNDED, 6):
            for w in enumerate_stirling(m):
                t = gessel_forward(StirlingPermutation(w, m))
                assert gessel_inverse(t).word == w
                prof = statistics(w, m.n)
                census = leaf_census(t)
                assert census.triple == prof.triple
                assert census.zleaf_by_j == prof.plat_by_j


def test_criterion_03_golden_examples():
    with criterion(3, "golden-examples"):
        report = golden_examples()
        for item in report.items:
            assert item.passed, (
                f"{item.name}: expected {item.expected}, got {item.actual}")
        assert report.passed


def test_criterion_04_gamma_routes():
    with criterion(4, "gamma-routes", budget=120):
        for m in with_doubled(BOUNDED, 5):
            table = gamma_extract(c_polynomial_enum(m), m.K)
            for name, route in GAMMA_ROUTES.items():
                if name in ("mma", "ternary") and not m.is_uniform(2):
                    continue
                assert route(m) == table, (name, m.spec())


def test_criterion_05_grammar_chains():
    with criterion(5, "grammar-chains"):
        for m in BOUNDED:
            assert c_polynomial_grammar(m) == c_polynomial_enum(m)
            expected = gamma_table_to_uvz(gamma_extract(c_polynomial_enum(m), m.K))
            assert gamma_polynomial_grammar(m) == expected
        x = Poly3.variable("x")
        y = Poly3.variable("y")
        z = Poly3.variable("z")
        for k in range(1, 6):
            rs = xyz_rules(k)
            zk = z ** (k - 1)
            assert derive(x * y, rs) == x * y * (x + y) * zk
            assert derive(x + y, rs) == 2 * x * y * zk
            assert derive(z, rs) == x * y * zk


def test_criterion_06_orbit_structure():
    with criterion(6, "orbit-structure"):
        report = verify("ORBIT", BOUNDED)
        for check in report.reports:
            for outcome in check.outcomes:
                assert outcome.status == "PASS", (outcome.multiset, outcome.counterexample)
        assert report.passed


def test_criterion_07_mma_closure():
    with criterion(7, "mma-closure", budget=120):
        for n in range(1, 6):
            m = Multiset.uniform(n, 2)
            table = gamma_extract(c_polynomial_enum(m), m.K)
            assert gamma_count_mma(m) == table
            assert gamma_count_ternary(m) == table
            for w in enumerate_stirling(m):
                s = StirlingPermutation(w, m)
                prof = statistics(w, m.n)
                t = gessel_forward(s)
                census = leaf_census(t)
                # plateau values against the leaf pattern of their vertex
                z_without_x = {v for v, (hx, _, zc) in census.per_vertex.items()
                               if zc and not hx}
                x_with_z = {v for v, (hx, _, zc) in census.per_vertex.items()
                            if zc and hx}
                assert {w[i - 1] for i in prof.dplat_positions} == z_without_x
                assert len(prof.dplat_positions) == len(z_without_x)
                assert {w[i - 1] for i in prof.aplat_positions} == x_with_z
                assert len(prof.aplat_positions) == len(x_with_z)
                assert (prof.dplat == 0) == is_canonical_ternary(t)
                # double-fall values against the unbalanced-y vertices
                unbalanced_y = set(
                    balance_report(t).vertices_with(BalanceStatus.UNBALANCED_Y))
                assert {w[i - 1] for i in prof.dfall_positions} == unbalanced_y
                assert len(prof.dfall_positions) == len(unbalanced_y)
                # first/last occurrence flags against x/y leaves
                for i in range(1, n + 1):
                    hx, hy, _ = census.per_vertex[i]
                    assert first_last_occurrence_flags(s, i) == (hx, hy)


def test_criterion_08_symmetry():
    with criterion(8, "symmetry"):
        for m in BOUNDED:
            assert is_symmetric(c_polynomial_enum(m), ("x", "y"))
        for n in range(1, 7):
            p = c_polynomial_enum(Multiset.uniform(n, 2))
            assert is_symmetric(p, ("x", "y", "z"))


def test_criterion_09_eulerian_specialization():
    with criterion(9, "eulerian-specialization"):
        for n in range(1, 8):
            p = c_polynomial_enum(Multiset.uniform(n, 1))
            slices = p.z_slices()
            assert set(slices) == {0}
            assert slices[0] == bivariate_eulerian(n)
            marginal = {}
            for (_, b, _), coeff in p.terms.items():
                marginal[b] = marginal.get(b, 0) + coeff
            row = eulerian_row(n)
            assert marginal == {b: row[b - 1] for b in range(1, n + 1) if row[b - 1]}
        table = gamma_extract(c_polynomial_enum(Multiset((1, 1))), 2)
        assert table.entries == {(0, 1): 1}
        q3 = {}
        for (_, b, _), coeff in c_polynomial_enum(Multiset.uniform(3, 2)).terms.items():
            q3[b] = q3.get(b, 0) + coeff
        assert q3 == {1: 1, 2: 8, 3: 6}


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        terms[e] = rng.choice([c for c in range(-9, 10) if c])
    return Poly3(XYZ, terms)


def test_criterion_10_algebraic_laws():
    with criterion(10, "algebraic-laws"):
        cases = 1000
        rng = random.Random(96218)

        for _ in range(cases):  # Leibniz rule
            p, q = _random_poly(rng), _random_poly(rng)
            rs = xyz_rules(rng.randint(1, 3))
            assert derive(p * q, rs) == derive(p, rs) * q + p * derive(q, rs)

        for _ in range(cases):  # linearity
            p, q = _random_poly(rng), _random_poly(rng)
            a = rng.randint(-9, 9)
            rs = xyz_rules(rng.randint(1, 3))
            assert derive(a * p + q, rs) == a * derive(p, rs) + derive(q, rs)

        for _ in range(cases):  # extraction inverts reconstruction
            K = rng.randint(1, 8)
            entries = {}
            for _ in range(rng.randint(1, 6)):
                i = rng.randint(0, K)
                j = rng.randint(0, (K + 1 - i) // 2)
                entries[(i, j)] = rng.randint(1, 99)
            table = GammaTable(K, entries)
            assert gamma_extract(gamma_reconstruct(table), K) == table

        pool = FamilySpec(max_n=3, max_k=3, max_total=7).members()
        words = {m: [StirlingPermutation(w, m) for w in enumerate_stirling(m)] for m in pool}

        for _ in range(cases):  # toggle is an involution
            m = rng.choice(pool)
            t = gessel_forward(rng.choice(words[m]))
            v = rng.randint(1, m.n)
            assert toggle(toggle(t, v), v) == t

        for _ in range(cases):  # canonical form is independent of flip order
            m = rng.choice(pool)
            t = gessel_forward(rng.choice(words[m]))
            u = t
            while True:
                bad = balance_report(u).vertices_with(BalanceStatus.UNBALANCED_Y)
                if not bad:
                    break
                u = psi(u, rng.choice(bad))
            assert u == canonical_representative(t)
