"""Multisets of the form {1^k1, 2^k2, ..., n^kn}.

A multiset is described by its tuple of multiplicities ``(k1, ..., kn)``;
every value from 1 to n must occur at least once.  The empty multiset is
allowed and has n = K = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True, slots=True)
class Multiset:
    """The multiset {1^k1, ..., n^kn}, stored as its multiplicity vector."""

    mults: tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.mults) is not tuple:  # a list would neither hash nor equal its tuple
            object.__setattr__(self, "mults", tuple(self.mults))
        # type(k) is int refuses bools, which would pass as 1 and 0 but
        # render as "True" in spec()
        if not all(type(k) is int and k >= 1 for k in self.mults):
            raise ParseError(f"multiplicities must be positive integers, got {self.mults!r}")

    @property
    def n(self) -> int:
        """Number of distinct values."""
        return len(self.mults)

    @property
    def K(self) -> int:
        """Total number of elements, counted with multiplicity."""
        return sum(self.mults)

    def multiplicity(self, value: int) -> int:
        if not 1 <= value <= self.n:
            raise KeyError(value)
        return self.mults[value - 1]

    def is_uniform(self, k: int) -> bool:
        """True when every value has multiplicity exactly ``k`` (and n >= 1)."""
        return self.n >= 1 and all(m == k for m in self.mults)

    def spec(self) -> str:
        """Render as a comma-separated multiplicity list, e.g. ``"2,2"``."""
        return ",".join(str(k) for k in self.mults)

    @classmethod
    def parse(cls, text: str) -> Multiset:
        """Parse a comma-separated multiplicity list.

        ``"2,2"`` means {1^2, 2^2}; the empty string denotes the empty multiset.
        """
        text = text.strip()
        if not text:
            return cls(())
        mults = parse_ints([p.strip() for p in text.split(",")], text, "multiset spec")
        if any(k < 1 for k in mults):
            raise ParseError(f"bad multiset spec {text!r}: multiplicities must be >= 1")
        return cls(mults)

    @classmethod
    def uniform(cls, n: int, k: int) -> Multiset:
        """The multiset {1^k, ..., n^k}."""
        return cls((k,) * n)

    def __str__(self) -> str:
        return self.spec()


def parse_ints(parts: list[str], text: str, what: str) -> tuple[int, ...]:
    """The integers the parts of ``text`` spell; a part ``int`` refuses is a
    ParseError for a bad ``what``.  A decimal one has more digits than
    ``int`` converts, and is named by its digit count rather than echoed."""
    values = []
    for p in parts:
        try:
            values.append(int(p))
        except ValueError as exc:
            if p.isdecimal():
                raise ParseError(f"bad {what}: a value of {len(p)} digits is too long") from None
            raise ParseError(f"bad {what} {text!r}: {exc}") from None
    return tuple(values)
