"""Exactly large finite sets.

A finite set of naturals is *exactly large* when its cardinality is one
more than its minimum.  Every coloring in this package takes such sets
as input, so this module fixes the shared conventions: sets are strictly
increasing tuples of naturals, enumeration is lexicographic, and the
text form is ``{a,b,c}``.

The predicate is kept literal: ``{0}`` counts as exactly large (one
element, minimum zero).  Constructions that need their universe to start
at 1 or 2 restrict it themselves.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import combinations
from typing import Iterable, Iterator


class FinSet:
    """A strictly increasing tuple of naturals.

    Instances are immutable by convention and hashable; all higher-level
    code treats them as values.
    """

    __slots__ = ("elems",)

    def __init__(self, elems: Iterable[int] = ()):
        if isinstance(elems, FinSet):
            # Already validated: reuse its tuple.
            self.elems = elems.elems
            return
        elems = tuple(elems)
        last = -1
        for v in elems:
            # Plain ints skip the isinstance calls; a negative element is
            # never above its predecessor (last starts at -1).
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
                raise ValueError(f"not a natural number: {v!r}")
            if v <= last:
                if v < 0:
                    raise ValueError(f"negative element: {v}")
                raise ValueError("elements must be strictly increasing")
            last = v
        self.elems = elems

    @classmethod
    def parse(cls, text: str) -> "FinSet":
        """Parse ``{a,b,c}`` with optional whitespace."""
        t = text.strip()
        if not (t.startswith("{") and t.endswith("}")):
            raise ValueError(f"bad set literal: {text!r}")
        body = t[1:-1].strip()
        if not body:
            return cls(())
        elems = []
        for part in body.split(","):
            try:
                elems.append(int(part))
            except ValueError:
                raise ValueError(f"not a natural number: {part.strip()!r}") from None
        return cls(elems)

    def render(self) -> str:
        return "{" + ",".join(str(v) for v in self.elems) + "}"

    def min(self) -> int:
        if not self.elems:
            raise ValueError("empty set has no minimum")
        return self.elems[0]

    def above(self, x: int) -> "FinSet":
        """Elements strictly greater than x."""
        return FinSet(self.elems[bisect_left(self.elems, x + 1):])

    def below(self, bound: int) -> "FinSet":
        """Elements strictly less than bound."""
        return FinSet(self.elems[:bisect_left(self.elems, bound)])

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.elems, x)
        return i < len(self.elems) and self.elems[i] == x

    def __iter__(self):
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __eq__(self, other) -> bool:
        # Of one class only: an ExactlyLargeSet is not equal to the
        # FinSet of its elements.
        return type(other) is type(self) and self.elems == other.elems

    def __hash__(self) -> int:
        return hash(self.elems)

    def __repr__(self) -> str:
        return f"FinSet({self.elems!r})"

    def __str__(self) -> str:
        return self.render()


class ExactlyLargeSet(FinSet):
    """A FinSet whose cardinality equals its minimum plus one."""

    __slots__ = ()

    def __init__(self, elems: Iterable[int]):
        FinSet.__init__(self, elems)
        elems = self.elems
        if not elems or len(elems) != elems[0] + 1:
            raise ValueError(f"not exactly large: {self.render()}")

    @classmethod
    def _of_valid(cls, elems: tuple) -> "ExactlyLargeSet":
        """The set of ``elems`` without the element loop.  The caller
        guarantees what ``__init__`` would check: ``elems`` is a tuple of
        plain ints (no bool), strictly increasing from 0 up, whose length
        is its first element plus one.  A stage table's row miss is the
        one caller: its row and read were validated whole."""
        s = object.__new__(cls)
        s.elems = elems
        return s

    def __hash__(self) -> int:
        return hash(("!", self.elems))

    def __repr__(self) -> str:
        return f"ExactlyLargeSet({self.elems!r})"


def enumerate_exactly_large(universe: FinSet) -> Iterator[ExactlyLargeSet]:
    """Yield every exactly large subset of the universe, lexicographically.

    Lazy by design: exactly large families explode combinatorially, so
    verifiers stream this rather than materializing it.
    """
    elems = universe.elems if isinstance(universe, FinSet) else tuple(universe)
    for i, m in enumerate(elems):
        rest = elems[i + 1:]
        if m > len(rest):
            continue
        for combo in combinations(rest, m):
            yield ExactlyLargeSet((m,) + combo)


def count_exactly_large(universe: FinSet) -> int:
    """Number of exactly large subsets, by the binomial sum."""
    elems = universe.elems if isinstance(universe, FinSet) else tuple(universe)
    total = 0
    for i, m in enumerate(elems):
        total += math.comb(len(elems) - i - 1, m)
    return total
