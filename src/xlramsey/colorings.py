"""Colorings of exactly large sets and fixed-arity tuples.

Every coloring here is a pure total function behind one of two small
wrappers: FiniteColoring for a fixed arity, ExactColoring for exactly
large sets.  Both memoize evaluations (purity makes that invisible) and
both may be shared freely between threads once built.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from collections import Counter
from itertools import combinations, repeat
from operator import ge, ne
from typing import Callable, NamedTuple, Optional

from .decoders import _ApproxJumpOracle, _halts, _no_threshold_in
from .largesets import ExactlyLargeSet, FinSet
from .machines import (
    OracleSet,
    ProgramSet,
    _least_querying_index,
    staged_jump_levels,
)


class _FiniteMemo(dict):
    """A FiniteColoring's memo.  Reading a missing tuple runs the whole
    validated miss: the length and increasing checks, the evaluation,
    the palette check and the store.  Holds no reference to its
    coloring, so a coloring is freed without a cycle collection."""

    __slots__ = ("fn", "dimension", "palette")

    def __init__(self, fn, dimension: int, palette: int):
        self.fn, self.dimension, self.palette = fn, dimension, palette

    def __missing__(self, t: tuple) -> int:
        if len(t) != self.dimension:
            raise ValueError(f"expected {self.dimension}-tuple, got {t}")
        if any(map(ge, t, t[1:])):
            raise ValueError(f"tuple must increase: {t}")
        v = self.fn(t)
        if not 0 <= v < self.palette:
            raise ValueError(f"color {v} outside palette of {self.palette}")
        self[t] = v
        return v


class _ExactMemo(dict):
    """An ExactColoring's memo, keyed by the tuple after the prefix.
    Reading a missing tuple validates it by building the exactly large
    set of prefix and tuple, evaluates, checks, checks the palette and
    stores."""

    __slots__ = ("fn", "prefix", "palette", "check")

    def __init__(self, fn, prefix: tuple, palette: Optional[int], check):
        self.fn, self.prefix, self.palette, self.check = fn, prefix, palette, check

    def __missing__(self, t: tuple) -> int:
        s = ExactlyLargeSet(self.prefix + t)
        v = self.fn(s)
        self.check(s, v)
        palette = self.palette
        if v < 0 or (palette is not None and v >= palette):
            raise ValueError(f"color {v} outside palette of {palette}")
        self[t] = v
        return v


class _Memoized:
    """The one read path of both coloring wrappers: every read, a call's
    or a stream's, is ``memo[t]``, and the memo's ``__missing__`` runs
    the validated miss.  ``_fn`` lives on the memo, so assigning it
    reaches the misses."""

    _fn = property(lambda self: self._memo.fn,
                   lambda self, fn: setattr(self._memo, "fn", fn))

    def colors(self, tuples):
        """The colors of ``tuples``, lazily and in order: one memo read
        each, so a stream stopped early has stored what the same calls
        in the same order would."""
        return map(self._memo.__getitem__, tuples)


class FiniteColoring(_Memoized):
    """A deterministic coloring of strictly increasing fixed-size tuples."""

    def __init__(self, dimension: int, fn: Callable[[tuple], int],
                 palette: int = 2, name: str = ""):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        self.dimension = dimension
        self.palette = palette
        self.name = name
        self._memo = _FiniteMemo(fn, dimension, palette)

    def __call__(self, tpl) -> int:
        return self._memo[tuple(tpl)]

    def __repr__(self) -> str:
        return f"FiniteColoring(dim={self.dimension}, name={self.name!r})"


class ExactColoring(_Memoized):
    """A deterministic coloring of exactly large sets."""

    _prefix = property(lambda self: self._memo.prefix)

    def __init__(self, fn: Callable[[ExactlyLargeSet], int],
                 palette: Optional[int] = 2, name: str = ""):
        self.palette = palette
        self.name = name
        self._memo = _ExactMemo(fn, (), palette, self._check)

    def at_min(self, a: int) -> "ExactColoring":
        """The stage coloring at minimum a: an increasing a-tuple above a
        gets the color of the exactly large set of a and the tuple.

        The stage shares this coloring's function and checks but keeps
        its own memo, keyed by the tuple, so each stage tuple is
        evaluated and stored once.  It has a ``dimension`` like a
        FiniteColoring, and palette 2 when this coloring has none.
        """
        stage = copy.copy(self)
        stage.palette = self.palette or 2
        stage._memo = _ExactMemo(self._fn, (a,), stage.palette, self._check)
        stage.dimension = a
        stage.name = f"{self.name}@{a}"
        return stage

    def __call__(self, s) -> int:
        # Only validated keys are stored, so the memo is read before validation.
        return self._memo[s if type(s) is tuple else (
            s.elems if isinstance(s, FinSet) else tuple(s))]

    @staticmethod
    def _check(s: ExactlyLargeSet, v: int) -> None:
        pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class RegressiveColoring(ExactColoring):
    """An exact coloring with color below the minimum (0 at minimum 0)."""

    def __init__(self, fn, name: str = ""):
        super().__init__(fn, palette=None, name=name)

    @staticmethod
    def _check(s: ExactlyLargeSet, v: int) -> None:
        m = s.min()
        if m == 0:
            if v != 0:
                raise ValueError(f"regressive coloring must be 0 at minimum 0, got {v}")
        elif v >= m:
            raise ValueError(f"regressive violation: color {v} with minimum {m}")


# ---------------------------------------------------------------------------
# the stage-comparison family

def c2_coloring(A: OracleSet, direction: str = "capture") -> FiniteColoring:
    """Three-place stage comparison: color 1 when halting behavior below
    the guard is consistent between the two stages.

    literal mode checks "halts by the earlier stage implies halts by the
    later" for every index up to the guard; under monotone step bounds
    that implication always holds, so literal mode is constant 1 (kept
    for fidelity experiments).  capture mode, the default, checks the
    reverse implication, which is what makes the matching decoder read
    jump membership off homogeneous sets.
    """
    if direction not in ("capture", "literal"):
        raise ValueError(f"unknown direction: {direction!r}")

    def fn(tpl):
        k, y, z = tpl
        if direction == "capture":
            return 1 if _no_threshold_in(k, A, y, z) else 0
        for e in range(k + 1):
            if _halts(e, A, y) and not _halts(e, A, z):
                return 0
        return 1

    return FiniteColoring(3, fn, name=f"c2[{direction}]")


def cn_from(prev: FiniteColoring, A: OracleSet,
            c2: Optional[FiniteColoring] = None) -> FiniteColoring:
    """One level up from a given stage-comparison coloring: the new
    color is 1 iff the tuple is homogeneous for the previous level and
    the capture implication holds between the second and third entries
    relative to the decoder-approximated oracle built from the tail.

    ``c2``, if given, must be A's capture-mode level-2 coloring.  When
    every index up to the first entry is query-free, the check cannot
    see the approximation, so it is c2's (memoized) color of the first
    three entries.  Without ``c2`` the check always runs.
    """
    dim = prev.dimension + 1

    def fn(tpl):
        colors = prev.colors(combinations(tpl, prev.dimension))
        first = next(colors)
        if any(map(ne, colors, repeat(first))):
            return 0
        if c2 is not None and tpl[0] < _least_querying_index():
            return c2(tpl[:3])
        # The approximating oracle runs the decoder one level below the
        # coloring being built, on the tail tuple.
        y = _ApproxJumpOracle(prev.dimension - 1, tpl[1:], A)
        return 1 if _no_threshold_in(tpl[0], y, tpl[1], tpl[2]) else 0

    return FiniteColoring(dim, fn, name=f"c{dim - 1}")


def cn_tower(A: OracleSet) -> Callable[[int], FiniteColoring]:
    """Lazy access to the stage-comparison levels over one oracle: level
    2 is the capture-mode c2 and level n is ``cn_from`` of level n-1,
    with c2 shared.  Each level is built once, so the homogeneity checks
    of every level read the memo of the level below."""
    levels = [c2_coloring(A, "capture")]

    def level(n: int) -> FiniteColoring:
        if n < 2:
            raise ValueError("levels start at 2")
        while len(levels) <= n - 2:
            levels.append(cn_from(levels[-1], A, levels[0]))
        return levels[n - 2]

    return level


def cn_coloring(n: int, A: OracleSet) -> FiniteColoring:
    """The level-n stage-comparison coloring ((n+1)-tuples), built on a
    fresh tower grounded at level 2.  Only decoder approximations of the
    iterated jumps are consulted, never the jumps themselves."""
    return cn_tower(A)(n)


def comega_coloring(A: OracleSet) -> ExactColoring:
    """Dispatch an exactly large set with minimum m >= 2 to the level-m
    coloring on its full tuple; minimum below 2 colors 0.  All minima
    share one ``cn_tower``, so a level and its memo are built once per
    coloring and every higher level reuses them."""
    level = cn_tower(A)

    def fn(s: ExactlyLargeSet) -> int:
        m = s.min()
        return level(m)(s.elems) if m >= 2 else 0

    return ExactColoring(fn, palette=2, name="comega")


# ---------------------------------------------------------------------------
# disagreement-hardness colorings

def _least_disagreement_level(X: OracleSet, elems: tuple, programs) -> int:
    """Least level i in [1, n] at which the two staged jumps read off an
    exactly large tuple with even minimum 2n disagree below the tuple's
    bounding entry elems[n - i]; 0 when they all agree or the minimum is
    odd.  Level i folds the stages elems[n], ..., elems[n-i+1] and
    elems[2n], ..., elems[2n-i+1], so the two folds advance one step per
    level, side by side, and stop at the first disagreement.
    """
    a0 = elems[0]
    if a0 % 2 or a0 == 0:
        return 0
    n = a0 // 2
    firsts = staged_jump_levels(X, elems[n:0:-1], programs)
    seconds = staged_jump_levels(X, elems[2 * n:n:-1], programs)
    for i, first, second in zip(range(1, n + 1), firsts, seconds):
        bound = elems[n - i]
        first, second = first.elems, second.elems
        if first[:bisect_left(first, bound)] != second[:bisect_left(second, bound)]:
            return i
    return 0


def dh_coloring(X: OracleSet, programs=None) -> ExactColoring:
    """The flagship hardness coloring: color 1 iff some level's staged
    jump approximations, read at stages taken from the middle and the
    top of the tuple, disagree below the tuple's bounding entry.  Odd
    minima color 0 (the value is irrelevant there)."""
    progs = None if programs is None else ProgramSet(programs)

    def fn(s: ExactlyLargeSet) -> int:
        return 1 if _least_disagreement_level(X, s.elems, progs) else 0

    return ExactColoring(fn, palette=2, name="dh")


def km_dh_coloring(X: OracleSet, programs=None) -> RegressiveColoring:
    """Regressive variant: the least disagreeing level itself (0 when
    none).  Regressive because the level is at most half the minimum."""
    progs = None if programs is None else ProgramSet(programs)

    def fn(s: ExactlyLargeSet) -> int:
        return _least_disagreement_level(X, s.elems, progs)

    return RegressiveColoring(fn, name="km-dh")


# ---------------------------------------------------------------------------
# regressive <-> two-color reductions

class KmRtReduction(NamedTuple):
    """Two-coloring derived from a regressive coloring, plus the witness
    transform (shift every element down by one)."""

    coloring: ExactColoring

    @staticmethod
    def transform(H: FinSet) -> FinSet:
        return FinSet([x - 1 for x in H.elems])


def km_to_rt(c: ExactColoring) -> KmRtReduction:
    """Two-color an exactly large set by whether every exactly large
    tuple drawn from its shifted-down elements (keeping the shifted
    minimum) gets one color under the regressive coloring.

    A homogeneous set for the result, shifted down, is min-homogeneous
    for the input.  The singleton {0} is fixed to color 0.
    """

    def fn(s: ExactlyLargeSet) -> int:
        elems = s.elems
        if elems[0] == 0:
            return 0
        shifted = [x - 1 for x in elems]
        head = shifted[0]
        seen = set()
        for combo in combinations(shifted[1:], head):
            seen.add(c(FinSet((head,) + combo)))
            if len(seen) > 1:
                return 0
        return 1

    return KmRtReduction(ExactColoring(fn, palette=2, name=f"km-to-rt[{c.name}]"))


class NotMinHomogeneous(ValueError):
    """A set offered as min-homogeneous has two exactly large subsets
    with one minimum and different colors."""


def rt_via_km(c: ExactColoring, H: FinSet) -> FinSet:
    """Thin a min-homogeneous set down to a homogeneous one.

    Each element's induced color is the color of exactly large subsets
    of H with that minimum; the pigeonhole keeps the most frequent
    induced color's class (ties to the least color) together with
    elements that induce nothing, which cannot carry a counterexample.
    Rejects H that is not min-homogeneous.
    """
    from .ramsey import verify_min_homogeneous  # ramsey imports this module

    report = verify_min_homogeneous(H, c)
    if not report.passed:
        a, ca, b, cb = report.counterexample
        raise NotMinHomogeneous(f"not min-homogeneous: {FinSet(a)} has color {ca} "
                                f"but {FinSet(b)} has color {cb}")
    return FinSet(_pigeonhole(H.elems, report.per_min)[0])


def _pigeonhole(elems, induced: dict) -> tuple[list, int]:
    """Thin elems to one induced color class: the most frequent induced
    color, ties to the least (color 0 when none is induced).  Elements
    with no induced color stay.  Returns the kept elements and the
    chosen color."""
    counts = Counter(induced.values())
    chosen = min(counts, key=lambda v: (-counts[v], v), default=0)
    return [x for x in elems if induced.get(x, chosen) == chosen], chosen
