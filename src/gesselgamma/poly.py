"""Exact sparse polynomials in three variables, and gamma tables.

Coefficients are Python ints (arbitrary precision); zero coefficients are
never stored.  A polynomial carries its variable signature, normally
``("x", "y", "z")`` or ``("u", "v", "z")``; mixing signatures in
arithmetic is an error.

A gamma table for total size K holds coefficients gamma_{i,j} of the
basis (xy)^j (x+y)^(K+1-i-2j) z^i.  ``gamma_extract`` peels a symmetric
polynomial against that basis slice by slice: within the z^i slice the
minimal x-exponent j can only come from the basis element with that j, so
its coefficient is forced, subtracted, and the slice shrinks.
"""

from __future__ import annotations

import json
import re

from .errors import DomainError, GammaExtractionError, ParseError

XYZ = ("x", "y", "z")
UVZ = ("u", "v", "z")

Exponent = tuple[int, int, int]

_DECIMAL = re.compile(r"-?[0-9]+")


def _json_int(value: object, name: str, *, text: bool = False, least: int | None = None) -> int:
    """A JSON field as an int: an int that is not a bool, or with ``text`` a
    decimal string, and not below ``least``; otherwise ValueError."""
    if text and isinstance(value, str) and _DECIMAL.fullmatch(value):
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{name} is not an int{' or a decimal string' * text}: {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} is below {least}: {value}")
    return value


class Poly3:
    """A polynomial in three named variables with integer coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, str, str] = XYZ, terms: dict[Exponent, int] | None = None):
        self.vars = tuple(vars)
        if self.vars not in (XYZ, UVZ) and (  # the package's own signatures pass at once
                not all(isinstance(v, str) for v in self.vars) or len(set(self.vars)) != 3):
            raise ParseError(f"expected 3 distinct variable names, got {self.vars!r}")
        self.terms: dict[Exponent, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[(e[0], e[1], e[2])] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, vars: tuple[str, str, str], terms: dict[Exponent, int]) -> Poly3:
        """Adopt a term dict the package built itself, without copying it.

        The caller guarantees 3-tuple exponents, no zero coefficients, and
        that nothing else keeps a reference to ``terms``.
        """
        p = cls.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, vars: tuple[str, str, str] = XYZ) -> Poly3:
        return cls(vars)

    @classmethod
    def one(cls, vars: tuple[str, str, str] = XYZ) -> Poly3:
        return cls(vars, {(0, 0, 0): 1})

    @classmethod
    def monomial(cls, e: Exponent, c: int = 1, vars: tuple[str, str, str] = XYZ) -> Poly3:
        return cls(vars, {tuple(e): c})

    @classmethod
    def variable(cls, name: str, vars: tuple[str, str, str] = XYZ) -> Poly3:
        idx = vars.index(name)
        e = [0, 0, 0]
        e[idx] = 1
        return cls(vars, {tuple(e): 1})

    # -- arithmetic --------------------------------------------------------

    def _check_signature(self, other: Poly3) -> None:
        if self.vars != other.vars:
            raise ParseError(f"variable signatures differ: {self.vars} vs {other.vars}")

    def __add__(self, other: Poly3) -> Poly3:
        self._check_signature(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Poly3(self.vars, out)

    def __neg__(self) -> Poly3:
        return Poly3(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Poly3) -> Poly3:
        return self + (-other)

    def __mul__(self, other: Poly3 | int) -> Poly3:
        if isinstance(other, int):
            return Poly3(self.vars, {e: c * other for e, c in self.terms.items()})
        self._check_signature(other)
        out: dict[Exponent, int] = {}
        for (a1, b1, c1), k1 in self.terms.items():
            for (a2, b2, c2), k2 in other.terms.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                s = out.get(e, 0) + k1 * k2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Poly3(self.vars, out)

    def __rmul__(self, other: int) -> Poly3:
        return self * other

    def __pow__(self, exponent: int) -> Poly3:
        if exponent < 0:
            raise ParseError("negative powers are not defined")
        result = Poly3.one(self.vars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly3):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality is structural

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        return sorted(self.terms.items())

    def coefficient(self, e: Exponent) -> int:
        return self.terms.get(tuple(e), 0)

    def z_slices(self) -> dict[int, dict[tuple[int, int], int]]:
        """Group terms by the exponent of the third variable."""
        slices: dict[int, dict[tuple[int, int], int]] = {}
        for (a, b, i), c in self.terms.items():
            slices.setdefault(i, {})[(a, b)] = c
        return slices

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b, c), k in self.sorted_terms():
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, (a, b, c))
                if e
            ]
            body = "*".join(factors) if factors else "1"
            if k == 1 and factors:
                parts.append(body)
            elif k == -1 and factors:
                parts.append(f"-{body}")
            else:
                parts.append(f"{k}*{body}" if factors else str(k))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly3({self.vars!r}, {self.terms!r})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"e": list(e), "c": str(c)} for e, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> Poly3:
        try:
            if not (isinstance(data["vars"], list) and isinstance(data["terms"], list)):
                raise ValueError("vars and terms must be lists")
            vars = tuple(data["vars"])
            terms: dict[Exponent, int] = {}
            for t in data["terms"]:
                e = t["e"]
                if not isinstance(e, (list, tuple)) or len(e) != 3:
                    raise ValueError(f"an exponent is not three ints: {e!r}")
                e = tuple(_json_int(a, "an exponent", least=0) for a in e)
                if e in terms:
                    raise ValueError(f"exponent {list(e)} is listed twice")
                terms[e] = _json_int(t["c"], "a coefficient", text=True)
            return cls(vars, terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polynomial JSON: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> Poly3:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"bad polynomial JSON: {exc}") from None
        return cls.from_json_dict(data)

    def to_csv(self) -> str:
        header = ",".join(self.vars) + ",coeff"
        rows = [f"{a},{b},{c},{k}" for (a, b, c), k in self.sorted_terms()]
        return "\n".join([header, *rows]) + "\n"


def is_symmetric(p: Poly3, names) -> bool:
    """True when p is invariant under every permutation of the named variables."""
    names = tuple(names)
    try:
        idxs = [p.vars.index(v) for v in names]
    except ValueError as exc:
        raise ParseError(f"{exc}; polynomial variables are {p.vars}") from None
    if len(set(idxs)) != len(idxs):
        raise ParseError(f"repeated variable in {names!r}")

    get = p.terms.get
    # invariance under adjacent transpositions generates the full group
    for s, t in zip(idxs, idxs[1:]):
        # e swapped at s and t is (e[i0], e[i1], e[i2])
        i0, i1, i2 = (t if i == s else s if i == t else i for i in range(3))
        for e, c in p.terms.items():
            if get((e[i0], e[i1], e[i2]), 0) != c:
                return False
    return True


class GammaTable:
    """Sparse table of gamma coefficients keyed by (i, j) for a fixed K."""

    __slots__ = ("K", "entries")

    def __init__(self, K: int, entries: dict[tuple[int, int], int]):
        self.K = K
        self.entries = {(i, j): g for (i, j), g in entries.items() if g}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GammaTable):
            return NotImplemented
        return self.K == other.K and self.entries == other.entries

    __hash__ = None

    def sorted_entries(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.entries.items())

    def support_violations(self, n: int) -> list[tuple[int, int]]:
        """Keys outside 0 <= i <= K-n, 1 <= j <= floor((K+1-i)/2)."""
        bad = []
        for (i, j) in self.entries:
            if not (0 <= i <= self.K - n and 1 <= j <= (self.K + 1 - i) // 2):
                bad.append((i, j))
        return sorted(bad)

    def __repr__(self) -> str:
        return f"GammaTable(K={self.K}, entries={dict(self.sorted_entries())!r})"

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "entries": [
                {"i": i, "j": j, "g": g} for (i, j), g in self.sorted_entries()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> GammaTable:
        try:
            K = _json_int(data["K"], "K", least=0)
            if not isinstance(data["entries"], list):
                raise ValueError("entries is not a list")
            entries: dict[tuple[int, int], int] = {}
            for e in data["entries"]:
                key = (_json_int(e["i"], "i", least=0), _json_int(e["j"], "j", least=0))
                if key in entries:
                    raise ValueError(f"entry (i, j) = {key} is listed twice")
                entries[key] = _json_int(e["g"], "g", text=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad gamma table JSON: {exc}") from None
        return cls(K, entries)

    @classmethod
    def from_json(cls, text: str) -> GammaTable:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"bad gamma table JSON: {exc}") from None
        return cls.from_json_dict(data)

    def to_csv(self) -> str:
        rows = [f"{i},{j},{g}" for (i, j), g in self.sorted_entries()]
        return "\n".join(["i,j,g", *rows]) + "\n"


def peel_slice(row: dict[tuple[int, int], int], d: int, i: int,
               nonpositive: str | None) -> list[tuple[int, int]]:
    """Peel one z-slice against (xy)^j (x+y)^(d-2j); return its nonzero (j, g).

    ``row`` maps (a, b) to the coefficient of x^a y^b; it must be
    nonempty, symmetric and homogeneous of degree d, which the callers
    check.  A symmetric row minus a symmetric basis element stays
    symmetric, so only the lower half a <= d/2 is read and updated, and no
    residue can remain past j = d/2.  When ``nonpositive`` is given, a
    peeled g <= 0 raises GammaExtractionError with that reason.
    """
    lo = min(a for a, _ in row)
    h = d // 2
    work = [row.get((a, d - a), 0) for a in range(lo, h + 1)]
    peeled = []
    for k, g in enumerate(work):
        if not g:
            continue
        j = lo + k
        if nonpositive is not None and g <= 0:
            raise GammaExtractionError(nonpositive, i=i, j=j, value=g)
        peeled.append((j, g))
        n = d - 2 * j
        b = 1
        for t in range(1, h - j + 1):
            b = b * (n - t + 1) // t
            work[k + t] -= g * b
    return peeled


def gamma_extract(p: Poly3, K: int) -> GammaTable:
    """Peel p against the basis (xy)^j (x+y)^(K+1-i-2j) z^i.

    Requires p symmetric in its first two variables with every z-slice
    homogeneous of degree K+1-i.  Raises GammaExtractionError when the
    shape is wrong or a peeled coefficient fails to be positive, citing
    the slice i, the index j and the offending value.
    """
    sym_pair = p.vars[:2]
    if not is_symmetric(p, sym_pair):
        for (a, b, i), c in sorted(p.terms.items()):
            if p.terms.get((b, a, i), 0) != c:
                raise GammaExtractionError(
                    f"polynomial is not symmetric in {sym_pair[0]}, {sym_pair[1]}",
                    i=i, value=(a, b))
    entries: dict[tuple[int, int], int] = {}
    for i, slice_terms in sorted(p.z_slices().items()):
        d = K + 1 - i
        for a, b in slice_terms:
            if a + b != d:
                # report the first offending term in sorted order
                (a, b), c = min(((a, b), c) for (a, b), c in slice_terms.items() if a + b != d)
                raise GammaExtractionError(
                    f"z-slice is not homogeneous of degree K+1-i={d}: "
                    f"term has x,y-degree {a + b}", i=i, value=c)
        for j, g in peel_slice(slice_terms, d, i, "peeled gamma coefficient is not positive"):
            entries[(i, j)] = g
    return GammaTable(K, entries)


def substitute_uv(p: Poly3) -> Poly3:
    """Expand a (u, v, z) polynomial through u -> xy, v -> x + y.

    Each term c u^a v^b z^i adds c C(b, t) x^(a+t) y^(a+b-t) z^i for
    t = 0..b into one term dict; cancelled terms are dropped at the end.
    """
    if p.vars != UVZ:
        raise DomainError(f"expected a polynomial over {UVZ}, got {p.vars}")
    out: dict[Exponent, int] = {}
    get = out.get
    for (a, b, i), c in p.terms.items():
        for t in range(b + 1):
            key = (a + t, a + b - t, i)
            out[key] = get(key, 0) + c
            c = c * (b - t) // (t + 1)
    if 0 in out.values():
        out = {e: s for e, s in out.items() if s}
    return Poly3._wrap(XYZ, out)


def gamma_reconstruct(table: GammaTable) -> Poly3:
    """Sum of gamma_{i,j} (xy)^j (x+y)^(K+1-i-2j) z^i."""
    return substitute_uv(gamma_table_to_uvz(table))


def gamma_table_to_uvz(table: GammaTable) -> Poly3:
    """The same data as a polynomial: sum of gamma_{i,j} u^j v^(K+1-i-2j) z^i."""
    terms: dict[Exponent, int] = {}
    for (i, j), g in table.sorted_entries():
        e = table.K + 1 - i - 2 * j
        if e < 0:
            raise GammaExtractionError(
                "table entry outside the basis range", i=i, j=j, value=g)
        terms[(j, e, i)] = terms.get((j, e, i), 0) + g
    return Poly3(UVZ, terms)


def gamma_table_from_uvz(p: Poly3, K: int) -> GammaTable:
    """Invert :func:`gamma_table_to_uvz`, validating exponent shape and positivity."""
    entries: dict[tuple[int, int], int] = {}
    for (j, e, i), g in p.terms.items():
        if e != K + 1 - i - 2 * j:
            raise GammaExtractionError(
                f"term u^{j} v^{e} z^{i} does not match v-degree K+1-i-2j", i=i, j=j, value=g)
        if g <= 0:
            raise GammaExtractionError(
                "gamma coefficient is not positive", i=i, j=j, value=g)
        entries[(i, j)] = g
    return GammaTable(K, entries)
