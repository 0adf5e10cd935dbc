"""Colorings of exactly large sets and fixed-arity tuples.

Every coloring here is a pure total function that is its own memo:
the colors it has evaluated, keyed by tuple (a dict) or by rank (a
stage table), a missing one evaluated and stored on its first read.
Purity makes the memo invisible, and a coloring may be shared freely
between threads once built.  Its truth value, length and equality are
its memo's, so no code reads them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import combinations, islice, repeat
from math import comb
from operator import add, eq, getitem, index, lt, ne
from typing import Callable, NamedTuple, Optional

from .decoders import _ApproxJumpOracle, _halts, _no_threshold_in
from .largesets import ExactlyLargeSet, FinSet
from .machines import (
    ExplicitOracle,
    OracleSet,
    _least_late_index,
    staged_jump_levels,
)


# The stored byte of a stage tuple not evaluated yet; a stage whose
# palette reaches it is an ExactColoring keyed by tuple.
_UNREAD = 255
# The largest stage table, in bytes: 16 MiB, about the process's own
# footprint after import.  A stage table is allocated whole when the
# stage is built; a larger stage is keyed by tuple, and its size
# follows the tuples read, not all the tuples of the stage.
MAX_STAGE_TABLE = 1 << 24


def _outside(t: tuple, universe) -> ValueError:
    return ValueError(f"{t} is not a tuple of the stage universe {FinSet(sorted(universe))}")


def _color(v, palette: Optional[int]) -> int:
    """A miss's color checked: one with an integer value (a bool, say)
    reads as that int, anything else is refused, and the int must lie in
    the palette (no bound above when it is None)."""
    if type(v) is not int:
        try:
            v = index(v)
        except TypeError:
            raise ValueError(f"color {v!r} is not an integer") from None
    if v < 0 or palette is not None and v >= palette:
        raise ValueError(f"color {v} outside palette of {palette}")
    return v


class _Reads:
    """The stream and row reads of a coloring: each tuple read is
    ``self[t]``, which runs the validated miss on a miss."""

    __slots__ = ()

    def colors(self, tuples):
        """The colors of ``tuples``, lazily and in order: one memo read
        each, so a stream stopped early has stored what the same calls
        in the same order would."""
        return map(self.__getitem__, tuples)

    def row(self, heads):
        """A reader of rows: ``read(end)`` is the colors of h + end for the
        heads h in order, as one hashable sequence, every miss evaluated
        in order; ``read(end, color)`` is whether all of them have
        ``color``, read up to the first that has not.  Each read evaluates
        the same tuples in the same order as one call per tuple, and a
        malformed tuple fails as its call does.  The heads are increasing
        tuples of one length; the end fills the slots after them and lies
        above each of them.  A stage table reads a ``_Subsets`` by rank,
        validated once per row and once per read, and iterates it again
        from a read's first miss; other heads, and a row or read that
        fails the check, are read here, one tuple at a time through the
        validating tuple read."""
        get = self.__getitem__

        def read(end, color=None):
            colors = map(get, map(add, heads, repeat(end)))
            return tuple(colors) if color is None else all(map(eq, colors, repeat(color)))

        return read


class _Subsets:
    """The k-subsets of an increasing tuple in lexicographic order, each
    followed by ``tail``, as an iterable that holds none of them:
    iterating runs ``combinations``.  The heads of the node step's and
    the greedy step's row reads; a stage table ranks them by structure
    (``_StageTable.ranks``) and walks them from a row's first miss.  On
    a dh chain over interval:2..34 one greedy row holds 817,190 of them,
    and as a list of tuples they take the peak RSS from 70 to 147 MB."""

    __slots__ = ("elems", "k", "tail")

    def __init__(self, elems, k: int, tail: tuple = ()):
        self.elems, self.k, self.tail = tuple(elems), k, tail

    def __iter__(self):
        subsets = combinations(self.elems, self.k)
        return map(add, subsets, repeat(self.tail)) if self.tail else subsets


class _StageTable(_Reads):
    """A stage coloring (``ExactColoring.at_min``) with its colors in a
    table of one byte per stage tuple, allocated when the stage is built
    and indexed by the colex rank of a tuple's positions in the stage
    universe (Knuth, TAOCP 4A, 7.2.1.3): the tuple at positions p1 < ...
    < pa has rank C(p1, 1) + ... + C(pa, a).  A rank is a sum of per-slot
    terms, so a row of tuples that share a suffix is read as the heads'
    ranks plus the suffix's rank.  An unread rank reads ``_UNREAD``; its
    miss builds the tuple's exactly large set, evaluates, runs the check
    if there is one, checks the palette and stores.  A row's miss builds
    the set unchecked, since its row and read were validated whole
    (``row``).  Holds no reference to the coloring it was built from."""

    __slots__ = ("_fn", "prefix", "palette", "_check", "universe", "dimension", "name",
                 "slots", "store", "__weakref__")

    def __init__(self, fn, a: int, universe: tuple, palette: int, check, name: str):
        self._fn, self.prefix, self.palette, self._check = fn, (a,), palette, check
        self.universe, self.dimension, self.name = universe, a, name
        # slots[k][x]: the rank term of universe element x at slot k + 1
        self.slots = [dict(zip(universe, map(comb, range(len(universe)), repeat(k))))
                      for k in range(1, a + 1)]
        self.store = bytearray([_UNREAD]) * comb(len(universe), a)

    def _miss(self, t: tuple, r: int) -> int:
        s = ExactlyLargeSet(self.prefix + t)
        v = self._fn(s)
        if self._check:
            self._check(s, v)
        if type(v) is not int or not 0 <= v < self.palette:
            v = _color(v, self.palette)
        self.store[r] = v
        return v

    def __call__(self, s) -> int:
        # a FinSet or any iterable reads as its tuple, validated by the read
        return self[s if type(s) is tuple else s.elems if isinstance(s, FinSet) else tuple(s)]

    def __getitem__(self, t: tuple) -> int:
        # Only a plain increasing a-tuple of universe elements has a
        # rank; anything else fails as its exactly large set does, or
        # names the universe.
        slots = self.slots
        try:
            r = sum(map(getitem, slots, t))
        except (KeyError, TypeError):
            r = None
        if (r is None or len(t) != len(slots) or not all(map(lt, t, t[1:]))
                or not all([type(x) is int for x in t])):
            ExactlyLargeSet(self.prefix + t)
            raise _outside(t, self.universe)
        v = self.store[r]
        return self._miss(t, r) if v == _UNREAD else v

    def ranks(self, heads: _Subsets) -> list:
        """The ranks of the heads at the first slots, in order; KeyError
        or TypeError for an element outside the universe.  Ranked
        suffix-first: the ranks of the subsets' last slot, then of their
        last two slots, and so on, each the ranks before it with one
        slot's term added, one C-level ``extend`` per first element."""
        slots = self.slots
        elems, k, m = heads.elems, heads.k, len(heads.elems)
        if k > m:
            return []
        base = sum(map(getitem, slots[k:], heads.tail))
        if k == 0:
            return [base]
        # The ranks of the subsets at slots s + 1..k whose first element
        # lies at index s or above: the subsets from index g on are the
        # last C(m - g, k - s) of them.
        ranks = list(map(base.__add__, map(slots[k - 1].__getitem__, elems[k - 1:])))
        for s in range(k - 1, 0, -1):
            col, n, width, longer = slots[s - 1], len(ranks), k - s, []
            for f in range(s - 1, m - width):
                longer.extend(map(col[elems[f]].__add__, ranks[n - comb(m - f - 1, width):]))
            ranks = longer
        return ranks

    def row(self, heads):
        # Only a _Subsets row is read by rank, once it is validated whole:
        # it fills at most the a slots, its elements (tail included) are
        # plain increasing naturals, and they all have ranks, so every head
        # is an increasing tuple of universe elements.  Any other row reads
        # as tuple rows, validated per tuple.
        ranks = None
        if type(heads) is _Subsets and 0 <= heads.k <= len(self.slots) - len(heads.tail):
            try:
                top = FinSet(heads.elems + heads.tail).elems[-1:]
                ranks = self.ranks(heads)
            except (ValueError, KeyError, TypeError):
                pass
        if ranks is None:
            return _Reads.row(self, heads)
        rest = self.slots[heads.k + len(heads.tail):]
        store, prefix = self.store, self.prefix

        def read(end, color=None):
            # The end is validated once per read: it fills the slots the
            # heads leave, lies above the heads' top element and increases,
            # and its elements have ranks.
            try:
                FinSet(top + end)
                r = sum(map(getitem, rest, end))
            except (ValueError, KeyError, TypeError):
                r = None
            if r is None or len(end) != len(rest):
                return _Reads.row(self, heads)(end, color)
            colors = bytes(map(store.__getitem__, map(r.__add__, ranks)))
            first = colors.find(_UNREAD)
            if first < 0:
                return colors if color is None else colors.count(color) == len(colors)
            if color is not None and colors.count(color, 0, first) < first:
                return False
            # The misses, evaluated in order from the first, the heads
            # walked from there.  Each set is exactly large: the prefix
            # (a,) lies below the universe and the a slots are filled.
            out = bytearray(colors)
            fn, check, palette = self._fn, self._check, self.palette
            of_valid = ExactlyLargeSet._of_valid
            for i, h in enumerate(islice(heads, first, None), first):
                v = out[i]
                if v == _UNREAD:
                    rk = ranks[i] + r
                    v = store[rk]  # a repeated head may have been stored since
                    if v == _UNREAD:
                        s = of_valid(prefix + h + end)
                        v = fn(s)
                        if check:
                            check(s, v)
                        if type(v) is not int or not 0 <= v < palette:
                            v = _color(v, palette)
                        store[rk] = v
                    out[i] = v
                if color is not None and v != color:
                    return False
            return bytes(out) if color is None else True

        return read


class FiniteColoring(_Reads, dict):
    """A deterministic coloring of strictly increasing fixed-size tuples,
    and its own memo.  Reading a missing tuple runs the whole validated
    miss: the length check, one pass over the entries that checks each
    is a plain int (not a bool) above the one before it, the evaluation,
    the palette check and the store."""

    def __init__(self, dimension: int, fn: Callable[[tuple], int],
                 palette: int = 2, name: str = ""):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        self.dimension, self._fn, self.palette, self.name = dimension, fn, palette, name

    def __missing__(self, t: tuple) -> int:
        if len(t) != self.dimension:
            raise ValueError(f"expected {self.dimension}-tuple, got {t}")
        prev = None
        for x in t:
            if type(x) is not int:
                raise ValueError(f"not a natural number: {x!r}")
            if prev is not None and x <= prev:
                raise ValueError(f"tuple must increase: {t}")
            prev = x
        v = self._fn(t)
        if type(v) is not int or not 0 <= v < self.palette:
            v = _color(v, self.palette)
        self[t] = v
        return v

    def __call__(self, tpl) -> int:
        # Entries are checked before the memo is read, as an ExactColoring
        # call does: 9.0 and True hash as 9 and 1 do, so a stored hit would
        # serve them.  The miss refuses such a tuple before it evaluates.
        t = tuple(tpl)
        for x in t:
            if type(x) is not int:
                self.__missing__(t)
        return self[t]

    def __repr__(self) -> str:
        return f"FiniteColoring(dim={self.dimension}, name={self.name!r})"


class ExactColoring(_Reads, dict):
    """A deterministic coloring of exactly large sets, and its own memo,
    keyed by the tuple after ``prefix``.  Reading a missing tuple
    evaluates it (``evaluate``) and stores."""

    # a stage keyed by tuple (``at_min``) has prefix (a,) and a universe
    prefix, universe = (), None
    # A check of each evaluated color, or None; RegressiveColoring has one.
    _check = None

    def __init__(self, fn: Callable[[ExactlyLargeSet], int],
                 palette: Optional[int] = 2, name: str = ""):
        self._fn, self.palette, self.name = fn, palette, name

    def evaluate(self, t: tuple) -> int:
        """The color of t, not stored, for a tuple read once: validates t
        by building the exactly large set of prefix and tuple, checks
        that a stage's universe holds it, evaluates, runs the coloring's
        check if it has one and checks the palette."""
        s = ExactlyLargeSet(self.prefix + t)
        if self.universe is not None and not self.universe.issuperset(t):
            raise _outside(t, self.universe)
        v = self._fn(s)
        if self._check:
            self._check(s, v)
        return _color(v, self.palette)

    def __missing__(self, t: tuple) -> int:
        self[t] = v = self.evaluate(t)
        return v

    def at_min(self, a: int, universe):
        """The stage coloring at minimum a over ``universe`` (a FinSet or
        increasing naturals, all above a): an increasing a-tuple of
        universe elements gets the color of the exactly large set of a
        and the tuple.

        The stage shares this coloring's function and check but keeps
        its own colors, so each stage tuple is evaluated and stored
        once: by rank, in a table of one byte per stage tuple
        (``_StageTable``).  A stage with more than ``MAX_STAGE_TABLE``
        tuples or with a palette above 255 is an ExactColoring keyed by
        the tuple instead.  Either has a ``dimension`` like a
        FiniteColoring, and palette a (at least 2) when this coloring
        has none: a regressive color at minimum a lies below a.
        """
        palette = self.palette or max(a, 2)
        universe = (universe if isinstance(universe, FinSet) else FinSet(universe)).elems
        if universe and universe[0] <= a:
            raise ValueError(f"a stage universe at minimum {a} must lie above {a}")
        name = f"{self.name}@{a}"
        if comb(len(universe), a) <= MAX_STAGE_TABLE and palette <= _UNREAD:
            return _StageTable(self._fn, a, universe, palette, self._check, name)
        # Not through __init__: the stage takes this coloring's function as
        # it stands, with whatever has been wrapped around it.
        stage = ExactColoring.__new__(ExactColoring)
        vars(stage).update(_fn=self._fn, palette=palette, name=name, _check=self._check,
                           prefix=(a,), universe=frozenset(universe), dimension=a)
        return stage

    def __call__(self, s) -> int:
        # Only validated keys are stored, so the memo is read before
        # validation, once no entry is a non-int that hashes as one (9.0).
        if type(s) is not tuple:
            s = s.elems if isinstance(s, FinSet) else tuple(s)
        for x in s:
            if type(x) is not int:
                ExactlyLargeSet(self.prefix + s)
                break
        return self[s]

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


def cn_from(prev: FiniteColoring, A: OracleSet) -> FiniteColoring:
    """One level up from a given stage-comparison coloring: the new
    color is 1 iff the tuple is homogeneous for the previous level and
    the capture implication holds between the second and third entries
    relative to the decoder-approximated oracle built from the tail.

    The function reads the levels below through their memos, bound when
    the level is built.  Under ``comega_coloring`` the caller's memo
    holds the top level and the tower only the levels below.  The
    capture check is ``_no_threshold_in``'s, which skips the indices no
    oracle can move, so a guard below ``_least_late_index()`` (46)
    consults no run at all.
    """
    dim, below = prev.dimension + 1, prev.__getitem__

    def fn(tpl):
        colors = map(below, combinations(tpl, dim - 1))
        first = next(colors)
        if any(map(ne, colors, repeat(first))):
            return 0
        # The approximating oracle runs the decoder one level below the
        # coloring being built, on the tail tuple.
        y = _ApproxJumpOracle(prev.dimension - 1, tpl[1:], A)
        return 1 if _no_threshold_in(tpl[0], y, tpl[1], tpl[2]) else 0

    return FiniteColoring(dim, fn, name=f"c{dim - 1}")


def cn_tower(A: OracleSet) -> Callable[[int], FiniteColoring]:
    """Lazy access to the stage-comparison levels over one oracle: level
    2 is the capture-mode c2 and level n is ``cn_from`` of level n-1.
    Each level is built once, so the homogeneity checks of every level
    read the memo of the level below."""
    levels = [c2_coloring(A, "capture")]

    def level(n: int) -> FiniteColoring:
        if n < 2:
            raise ValueError("levels start at 2")
        while len(levels) <= n - 2:
            levels.append(cn_from(levels[-1], A))
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
    coloring and every higher level reuses them.

    Each set is stored once: the caller's memo (this coloring's or a
    stage's) holds the top level and the tower only the levels below.
    The dispatch runs level m's function without level m's memo: no
    level of the tower reads a tuple that starts with m, since a higher
    level reads level m only on tuples whose entries all lie above m.
    So only a second top-level reader re-evaluates a set that reaches
    the tower, such as a chain's closing verify after the stage tables
    are freed.

    A set with all entries below ``_least_late_index()`` (46) colors 1
    without the tower: for any guard k, each program e <= k halts with
    threshold at most e + 1 <= k + 1 or never, so no capture check at
    any level fails, under any oracle (README, "Desk-scale degeneracy").
    The tower's capture checks would consult no run for such a set
    either; the dispatch also skips their homogeneity recursion."""
    level = cn_tower(A)

    def fn(s: ExactlyLargeSet) -> int:
        m = s.min()
        # s is validated and the caller's miss checks the palette.
        if m < 2:
            return 0
        return 1 if s.elems[-1] < _least_late_index() else level(m)._fn(s.elems)

    return ExactColoring(fn, palette=2, name="comega")


# ---------------------------------------------------------------------------
# disagreement-hardness colorings

class _Folds(dict):
    """The staged-jump levels of one ``dh``/``km-dh`` coloring's folds,
    keyed by stage tuple: each value the levels folded so far, innermost
    first, as their ``elems`` tuples.  A value grows only as far as a
    comparison reads it and is replaced whole, so it takes no lock: a
    racing thread reads a shorter or a longer run, both true, and a
    write it loses costs only a later fold.  It lives and dies with its
    coloring, as the coloring's colors do."""

    __slots__ = ("oracle", "programs")

    def __init__(self, oracle: OracleSet, programs):
        self.oracle, self.programs = oracle, programs

    def read(self, stages: tuple):
        """The levels of the fold along ``stages``: the stored tuple when
        it is folded to its end, else ``_fold``'s lazy extension."""
        done = self.get(stages, ())
        return done if len(done) == len(stages) else self._fold(stages, done)

    def _fold(self, stages: tuple, done: tuple):
        yield from done
        # Level i's oracle is its jump set, as in the fold itself, so the
        # steps from there read the jump cache's entries.
        over = ExplicitOracle(done[-1]) if done else self.oracle
        for level in staged_jump_levels(over, stages[len(done):], self.programs):
            done += (level.elems,)
            self[stages] = done
            yield level.elems


def _least_disagreement_level(folds: _Folds, elems: tuple) -> int:
    """Least level i in [1, n] at which the two staged jumps read off an
    exactly large tuple with even minimum 2n disagree below the tuple's
    bounding entry elems[n - i]; 0 when they all agree or the minimum is
    odd.  Level i folds the stages elems[n], ..., elems[n-i+1] and
    elems[2n], ..., elems[2n-i+1], so the two folds advance one step per
    level, side by side, and stop at the first disagreement.  Each fold's
    levels are read through the coloring's memo of them (``_Folds``).
    """
    a0 = elems[0]
    if a0 % 2 or a0 == 0:
        return 0
    n = a0 // 2
    firsts, seconds = folds.read(elems[n:0:-1]), folds.read(elems[2 * n:n:-1])
    for i, first, second in zip(range(1, n + 1), firsts, seconds):
        bound = elems[n - i]
        if first[:bisect_left(first, bound)] != second[:bisect_left(second, bound)]:
            return i
    return 0


def dh_coloring(X: OracleSet, programs=None) -> ExactColoring:
    """The flagship hardness coloring: color 1 iff some level's staged
    jump approximations, read at stages taken from the middle and the
    top of the tuple, disagree below the tuple's bounding entry.  Odd
    minima color 0 (the value is irrelevant there)."""
    folds = _Folds(X, None if programs is None else frozenset(programs))

    def fn(s: ExactlyLargeSet) -> int:
        return 1 if _least_disagreement_level(folds, s.elems) else 0

    return ExactColoring(fn, palette=2, name="dh")


def km_dh_coloring(X: OracleSet, programs=None) -> RegressiveColoring:
    """Regressive variant: the least disagreeing level itself (0 when
    none).  Regressive because the level is at most half the minimum."""
    folds = _Folds(X, None if programs is None else frozenset(programs))

    def fn(s: ExactlyLargeSet) -> int:
        return _least_disagreement_level(folds, s.elems)

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
