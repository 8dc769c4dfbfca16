"""Context-free grammars and their formal derivatives.

A grammar assigns each variable a substitution polynomial; the formal
derivative D is the derivation determined by v -> rule(v) extended by
linearity and the Leibniz rule.  Two families are provided for each
multiplicity k >= 1:

    xyz rules:  x -> x y z^(k-1),  y -> x y z^(k-1),  z -> x y z^(k-1)
    uvz rules:  u -> u v z^(k-1),  v -> 2 u z^(k-1),  z -> u z^(k-1)

Applying D_{k_1}, ..., D_{k_n} to the seed x builds the ascent/descent/
plateau polynomial of {1^k1, ..., n^kn}; the uvz chain applied to the
seed u z^(k_1 - 1) builds its gamma polynomial directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import DomainError, GammaExtractionError
from .multiset import Multiset
# substitute_uv is defined in poly, next to gamma_reconstruct, and kept public here.
from .poly import UVZ, XYZ, Exponent, Poly3, is_symmetric, peel_slice, substitute_uv


@dataclass(frozen=True)
class GrammarRuleSet:
    """Substitution rules v -> polynomial, all over one variable signature."""

    vars: tuple[str, str, str]
    rules: dict[str, Poly3]

    def rule(self, name: str) -> Poly3:
        return self.rules[name]


def xyz_rules(k: int) -> GrammarRuleSet:
    if k < 1:
        raise DomainError(f"multiplicity must be >= 1, got {k}")
    body = Poly3.monomial((1, 1, k - 1), 1, XYZ)
    return GrammarRuleSet(XYZ, {"x": body, "y": body, "z": body})


def uvz_rules(k: int) -> GrammarRuleSet:
    if k < 1:
        raise DomainError(f"multiplicity must be >= 1, got {k}")
    return GrammarRuleSet(UVZ, {
        "u": Poly3.monomial((1, 1, k - 1), 1, UVZ),
        "v": Poly3.monomial((1, 0, k - 1), 2, UVZ),
        "z": Poly3.monomial((1, 0, k - 1), 1, UVZ),
    })


def shift_table(rules: GrammarRuleSet) -> tuple[tuple[int, int, int, int, int], ...]:
    """One (idx, da, db, dc, coeff) row per monomial of each variable's rule.

    ``idx`` is the variable's position.  The shift (da, db, dc) is the
    rule monomial's exponent minus the unit vector of that variable: what
    d/dv followed by multiplication by the rule adds to a term's exponent.
    """
    rows = []
    for idx, name in enumerate(rules.vars):
        for e, coeff in rules.rule(name).terms.items():
            shift = list(e)
            shift[idx] -= 1
            rows.append((idx, shift[0], shift[1], shift[2], coeff))
    return tuple(rows)


def derive(p: Poly3, rules: GrammarRuleSet) -> Poly3:
    """Apply the formal derivative once: Leibniz across each monomial.

    A term k x^a y^b z^c meets every shift-table row whose variable has a
    nonzero exponent e in it, and adds k * e * coeff at the term's exponent
    plus the row's shift.  Cancelled terms are dropped once, at the end.
    """
    if p.vars != rules.vars:
        raise DomainError(
            f"polynomial is over {p.vars} but the rules are over {rules.vars}")
    rows = shift_table(rules)
    out: dict[Exponent, int] = {}
    get = out.get
    for e, coeff in p.terms.items():
        a, b, c = e
        for idx, da, db, dc, rc in rows:
            mult = e[idx]
            if mult:
                key = (a + da, b + db, c + dc)
                out[key] = get(key, 0) + coeff * (mult * rc)
    if 0 in out.values():
        out = {e: s for e, s in out.items() if s}
    return Poly3._wrap(p.vars, out)


def derive_chain(seed: Poly3, rule_sets: Iterable[GrammarRuleSet]) -> Iterator[Poly3]:
    """Derive the seed by each rule set in turn, yielding every step."""
    p = seed
    for rules in rule_sets:
        p = derive(p, rules)
        yield p


def chain_cost(m: Multiset) -> int:
    """A bound on the work of m's xyz derivative chain: the sum over its
    steps of terms times rule monomials.

    Before the step by k_t the polynomial is homogeneous of degree K + 1 in
    three variables, K = k_1 + ... + k_(t-1), so it has at most
    (K + 2)(K + 3)/2 terms.  The uvz chain of m takes one step fewer, over
    polynomials with fewer terms, so this bounds it too.
    """
    cost = K = 0
    for k in m.mults:
        cost += (K + 2) * (K + 3) // 2 * len(shift_table(xyz_rules(k)))
        K += k
    return cost


def _slice_chain(seed: Poly3, rules_of: Callable[[int], GrammarRuleSet],
                 ks: Iterable[int], w: int) -> Poly3:
    """Derive the monomial seed by rules_of(k) for each k in turn, z-slice by z-slice.

    The polynomial is carried as {c: {a: coeff}}, c the third exponent and
    a the first.  Every term has the same weight W = w*a + b + c, and each
    of the three shift-table rows of rules_of(k) (one rule monomial per
    variable) adds k to it, w = 1 for the xyz rules and w = 2 for the uvz
    rules.  So the middle exponent b = W - c - w*a is not stored.  Each row
    is one loop over one slice, multiplying a term by a, by b, or by c,
    which is constant across the slice.

    The first two rows take slice c to slice c + dc, the third to c + dc - 1.
    Slices are kept in falling order of c, so the third row always reaches
    a slice below all those written so far and builds it by one
    comprehension; the first row adds into the slice the third row of
    slice c + 1 built, if there is one.  The seed and every row keep a >= 1,
    a zero b is skipped, and every rule coefficient is positive, so no
    stored coefficient is zero.  Each distinct k builds its shift table
    once, and the Poly3 is built once, at the end.
    """
    [((a, b, c), coeff)] = seed.terms.items()
    W = w * a + b + c
    slices = {c: {a: coeff}}
    tables = {}
    for k in ks:
        rows = tables.get(k)
        if rows is None:
            rows = tables[k] = shift_table(rules_of(k))
        (_, da0, _, dc, r0), (_, da1, _, _, r1), (_, da2, _, _, r2) = rows
        out: dict[int, dict[int, int]] = {}
        for c, row in slices.items():
            t = out.get(c + dc)
            if t is None:
                t = out[c + dc] = {a + da0: a * r0 * v for a, v in row.items()}
            else:
                get = t.get
                for a, v in row.items():
                    key = a + da0
                    t[key] = get(key, 0) + a * r0 * v
            get = t.get
            Wc = W - c
            for a, v in row.items():
                b = Wc - w * a
                if b:
                    key = a + da1
                    t[key] = get(key, 0) + b * r1 * v
            if c:
                m = c * r2
                out[c + dc - 1] = {a + da2: m * v for a, v in row.items()}
        W += k
        slices = out
    return Poly3._wrap(seed.vars, {(a, W - c - w * a, c): v
                                   for c, row in slices.items() for a, v in row.items()})


def c_polynomial_grammar(m: Multiset) -> Poly3:
    """Build the ascent/descent/plateau polynomial by the xyz derivative chain.

    Applies D_{k_1}, ..., D_{k_n} to the seed x.  The chain runs slice by
    slice in a private kernel and gives the polynomial that
    :func:`derive_chain` ends on; :func:`derive` is the general one-step
    kernel.
    """
    return _slice_chain(Poly3.variable("x", XYZ), xyz_rules, m.mults, 1)


def uvz_seed(k: int) -> Poly3:
    """The seed u z^(k - 1) of the uvz chain whose first multiplicity is k."""
    return Poly3.monomial((1, 0, k - 1), 1, UVZ)


def gamma_polynomial_grammar(m: Multiset) -> Poly3:
    """Build the gamma polynomial in (u, v, z) by the uvz derivative chain.

    The chain starts from the seed u z^(k_1 - 1), the image of the first
    value's block, and applies D_{k_2}, ..., D_{k_n}.  Like
    :func:`c_polynomial_grammar` it runs slice by slice and gives the
    polynomial that :func:`derive_chain` ends on.
    """
    if m.n == 0:
        raise DomainError("the gamma polynomial is defined for nonempty multisets")
    return _slice_chain(uvz_seed(m.mults[0]), uvz_rules, m.mults[1:], 2)


def change_of_variables_check(p: Poly3, signed: bool = False) -> Poly3:
    """Rewrite p(x, y, z), symmetric in x and y, in the variables u = xy, v = x + y.

    Works z-slice by z-slice; each slice must be homogeneous in x, y (its
    own degree d, not tied to any global size).  In the default mode every
    peeled coefficient must be positive, mirroring gamma extraction; with
    ``signed=True`` arbitrary integer coefficients are allowed, e.g.
    x^2 + y^2 -> v^2 - 2u.  The result expands back to p via
    :func:`substitute_uv`.
    """
    if not is_symmetric(p, p.vars[:2]):
        raise GammaExtractionError(
            f"polynomial is not symmetric in {p.vars[0]}, {p.vars[1]}")
    out: dict[Exponent, int] = {}
    nonpositive = None if signed else "peeled coefficient is not positive"
    for i, slice_terms in sorted(p.z_slices().items()):
        degrees = {a + b for (a, b) in slice_terms}
        if len(degrees) > 1:
            raise GammaExtractionError(
                "z-slice is not homogeneous in the first two variables", i=i)
        if not degrees:
            continue
        d = degrees.pop()
        for j, g in peel_slice(slice_terms, d, i, nonpositive):
            out[(j, d - 2 * j, i)] = g
    return Poly3._wrap(UVZ, out)
