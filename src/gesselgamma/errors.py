"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Raised when a textual input (multiset spec, word, tree, polynomial) is malformed."""


class DomainError(ValueError):
    """Raised when an argument is outside the domain of an operation."""


class TreeValidationError(ValueError):
    """Raised when a tree fails structural validation.

    Carries the full list of violations so callers can report every
    offending vertex, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations)
        super().__init__(f"invalid tree: {lines}")


class GammaExtractionError(ValueError):
    """Raised when a polynomial admits no nonnegative gamma-expansion.

    Attributes ``reason``, ``i``, ``j`` and ``value`` identify the z-slice,
    the basis index and the offending coefficient (where applicable).
    """

    def __init__(self, reason: str, i: int | None = None, j: int | None = None, value=None):
        self.reason = reason
        self.i = i
        self.j = j
        self.value = value
        where = "" if i is None else f" at z-slice i={i}" + ("" if j is None else f", j={j}")
        val = "" if value is None else f" (value {value})"
        super().__init__(f"{reason}{where}{val}")


class NotCanonicalError(DomainError):
    """Raised when a weight is requested for a pruned tree with a y-labelled vertex."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(
            f"tree is not canonical: vertex {vertex} keeps a y-leaf but no x-leaf, "
            "so the pruned tree carries no (u, v)-weight"
        )


# The largest cost a refusal writes out, 10^COST_DIGITS; a larger one is
# named by this bound.  Python writes no int of more than 4 300 digits as
# text, and a count that long would tell the reader nothing more.
COST_DIGITS = 100
COST_TEXT_BOUND = 10**COST_DIGITS


class FamilyTooLargeError(RuntimeError):
    """Raised when listing a family would pass the cap on its words or letters.

    A cost past COST_TEXT_BOUND reads "more than 10^100"; such a ``cost``
    may be a lower bound, counted only until it passed the bound.  The
    message names ``noun``, which a subclass sets to what it refuses.
    """

    noun = "family"

    def __init__(self, cost: int, cap: int, unit: str = "Stirling permutations"):
        self.cost = cost
        self.cap = cap
        amount = cost if cost <= COST_TEXT_BOUND else f"more than 10^{COST_DIGITS}"
        super().__init__(f"{self.noun} too large: {amount} {unit} requested, cap is {cap}")


class OrbitTooLargeError(FamilyTooLargeError):
    """Raised when a flip orbit's members would spell more letters than the cap allows.

    The orbit has 2^uxleaf members of K letters each.  The message keeps the
    power form, because 2^uxleaf can be too long to print as a decimal.
    """

    def __init__(self, uxleaf: int, K: int, cap: int):
        self.uxleaf = uxleaf
        self.K = K
        self.cap = cap
        RuntimeError.__init__(
            self,
            f"orbit too large: 2^{uxleaf} trees of {K} letters requested, "
            f"cap is {cap} letters",
        )

    @property
    def cost(self) -> int:
        return 2 ** self.uxleaf * self.K


class ChainTooLargeError(FamilyTooLargeError):
    """Raised when a derivative chain would cost more than the cap allows.

    The cost is ``grammar.chain_cost``: terms times rule monomials, summed
    over the steps of the chain.
    """

    noun = "derivative chain"

    def __init__(self, cost: int, cap: int):
        super().__init__(cost, cap, "term-rule products")
