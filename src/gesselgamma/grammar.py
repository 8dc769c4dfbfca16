"""Context-free grammars and their formal derivatives.

A grammar assigns each variable a substitution polynomial; the formal
derivative D is the derivation determined by v -> rule(v) extended by
linearity and the Leibniz rule.  Two families are provided for each
multiplicity k >= 1:

    xyz rules:  x -> x y z^(k-1),  y -> x y z^(k-1),  z -> x y z^(k-1)
    uvz rules:  u -> u v z^(k-1),  v -> 2 u z^(k-1),  z -> u z^(k-1)

Applying D_{k_1}, ..., D_{k_n} to the seed x builds the ascent/descent/
plateau polynomial of {1^k1, ..., n^kn}; the uvz chain applied to the
seed u z^(k_1 - 1) builds its gamma polynomial directly.  Each family's
chain builder has a slice kernel of its own; the xyz one keeps only the
half a <= b of each polynomial in x^a y^b z^c, since each D_k commutes with
swapping x and y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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
    (K + 2)(K + 3)/2 terms, each met by one rule monomial per variable.
    The uvz chain of m takes one step fewer, over polynomials with fewer
    terms, so this bounds it too.
    :func:`c_polynomial_grammar` keeps only the lower half of each z-slice,
    so it does about half of this work.
    """
    cost = K = 0
    for k in m.mults:
        cost += (K + 2) * (K + 3) // 2 * 3
        K += k
    return cost


def c_polynomial_grammar(m: Multiset) -> Poly3:
    """Build the ascent/descent/plateau polynomial by the xyz derivative chain.

    Applies D_{k_1}, ..., D_{k_n} to the seed x and gives the polynomial
    that :func:`derive_chain` ends on, z-slice by z-slice, with no Poly3
    per step; :func:`derive` is the general one-step kernel.

    Each D_k commutes with swapping x and y, and the seed x becomes
    x y z^(k_1 - 1).  So every later polynomial is symmetric, and the chain
    keeps only the lower half a <= b as {c: {a: coeff}}, reading
    b = W - c - a off the weight W = a + b + c, which each step raises by
    k.  With dc = k - 1, D_k sends a lower term (a, b) of slice c with
    coefficient v
      - a * v to (a, b + 1) in slice c + dc, by x -> x y z^dc;
      - b * v to (a + 1, b) in slice c + dc, by y -> x y z^dc, when a < b,
        and 2b * v when b = a + 1, since its mirror's x-image is the same
        diagonal term; nothing when a = b, as that image lies above it;
      - c * v to (a + 1, b + 1) in slice c + dc - 1, by z -> x y z^dc.
    Slices are kept in falling order of c, so the z-image always builds a
    new slice, by one comprehension.  a >= 1 throughout, and the y- and
    z-images arise only for b >= 1 and c >= 1, so no stored coefficient is
    zero.  The Poly3 is built once, at the end, from each term and its
    mirror.
    """
    if not m.n:
        return Poly3.variable("x", XYZ)
    k, *ks = m.mults
    slices = {k - 1: {1: 1}}
    W = 1 + k
    for k in ks:
        dc = k - 1
        out: dict[int, dict[int, int]] = {}
        for c, row in slices.items():
            t = out.get(c + dc)
            if t is None:
                t = out[c + dc] = {a: a * v for a, v in row.items()}
            else:
                get = t.get
                for a, v in row.items():
                    t[a] = get(a, 0) + a * v
            get = t.get
            Wc = W - c
            for a, v in row.items():
                t[a + 1] = get(a + 1, 0) + (Wc - a) * v
            # the half's top term h: (h, h + 1) also gets its mirror's
            # x-image, and the y-image of (h, h) lies above the diagonal
            h, odd = divmod(Wc, 2)
            v = row.get(h)
            if v is not None:
                if odd:
                    t[h + 1] += (h + 1) * v
                else:
                    del t[h + 1]
            if c:
                out[c + dc - 1] = {a + 1: c * v for a, v in row.items()}
        W += k
        slices = out
    terms: dict[Exponent, int] = {}
    for c, row in slices.items():
        Wc = W - c
        for a, v in row.items():
            terms[a, Wc - a, c] = terms[Wc - a, a, c] = v
    return Poly3._wrap(XYZ, terms)


def uvz_seed(k: int) -> Poly3:
    """The seed u z^(k - 1) of the uvz chain whose first multiplicity is k."""
    return Poly3.monomial((1, 0, k - 1), 1, UVZ)


def gamma_polynomial_grammar(m: Multiset) -> Poly3:
    """Build the gamma polynomial in (u, v, z) by the uvz derivative chain.

    The chain starts from the seed u z^(k_1 - 1), the image of the first
    value's block, and applies D_{k_2}, ..., D_{k_n}.  Like
    :func:`c_polynomial_grammar` it runs z-slice by z-slice, as
    {c: {a: coeff}} with b = W - c - 2a read off the weight W = 2a + b + c,
    which each step raises by k, and gives the polynomial that
    :func:`derive_chain` ends on.  With dc = k - 1, D_k sends a term
    (a, b) of slice c with coefficient v to slice c + dc, in one loop, by
    u -> u v z^dc (a * v to (a, b + 1)) and v -> 2 u z^dc (2b * v to
    (a + 1, b - 1), skipped when b = 0), and to slice c + dc - 1, by one
    comprehension, by z -> u z^dc (c * v to (a + 1, b)).
    """
    if m.n == 0:
        raise DomainError("the gamma polynomial is defined for nonempty multisets")
    k, *ks = m.mults
    slices = {k - 1: {1: 1}}
    W = 1 + k
    for k in ks:
        dc = k - 1
        out: dict[int, dict[int, int]] = {}
        for c, row in slices.items():
            t = out.get(c + dc)
            if t is None:
                t = out[c + dc] = {}
            get = t.get
            Wc = W - c
            for a, v in row.items():
                t[a] = get(a, 0) + a * v
                b = Wc - 2 * a
                if b:
                    t[a + 1] = get(a + 1, 0) + 2 * b * v
            if c:
                out[c + dc - 1] = {a + 1: c * v for a, v in row.items()}
        W += k
        slices = out
    return Poly3._wrap(UVZ, {(a, W - c - 2 * a, c): v
                             for c, row in slices.items() for a, v in row.items()})


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
        d = degrees.pop()
        for j, g in peel_slice(slice_terms, d, i, nonpositive):
            out[(j, d - 2 * j, i)] = g
    return Poly3._wrap(UVZ, out)
