import gc
import random
import sys
import threading
import tracemalloc
import weakref
from contextlib import contextmanager
from itertools import accumulate, combinations, islice, repeat
from math import comb
from operator import eq, getitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import UnkeyedOracle, crc_bit, random_regressive_coloring

from xlramsey import colorings, decoders, machines
from xlramsey.colorings import (
    ExactColoring,
    FiniteColoring,
    RegressiveColoring,
    c2_coloring,
    cn_coloring,
    cn_from,
    cn_tower,
    comega_coloring,
    dh_coloring,
    km_dh_coloring,
    km_to_rt,
    rt_via_km,
)
from xlramsey.decoders import _no_threshold_in, mn_raw
from xlramsey.largesets import ExactlyLargeSet, FinSet, enumerate_exactly_large
from xlramsey.machines import (
    EMPTY,
    HALT,
    INC,
    JZ,
    ExplicitOracle,
    OracleSet,
    Program,
    clear_caches,
    decode_program,
    halt_threshold,
    jump_pairs_approx,
    run_bounded,
    staged_jump,
)
from xlramsey.colorings import _UNREAD, _StageTable
from xlramsey.ramsey import (
    _Restricted,
    _Subsets,
    exact_homog_search,
    f_a_extract,
    iterate_rtomega,
    leftmost_path,
    verify_min_homogeneous,
)

DIVERGERS = (0, 2, 4, 7, 9)  # indices that never halt on any input


def els(*elems):
    return ExactlyLargeSet(FinSet(elems))


# ---------------------------------------------------------------------------
# calls and memos

@pytest.mark.parametrize("call, want", [
    (lambda: FiniteColoring(0, lambda t: 0), "ValueError: dimension must be at least 1"),
    (lambda: leftmost_path(FiniteColoring(2, lambda t: 0), FinSet([2, 3]), 0),
     "ValueError: length must be at least 1"),
    (lambda: iterate_rtomega(ExactColoring(lambda s: 0), FinSet()),
     "ValueError: universe must be nonempty"),
    # A stage at minimum 0 has dimension 0, which the extraction refuses.
    (lambda: f_a_extract(ExactColoring(lambda s: 0).at_min(0, FinSet([1, 2])), FinSet([1, 2]), 2),
     "ValueError: arity must be at least 1"),
    (lambda: OracleSet().member(0), "NotImplementedError: "),
    (lambda: mn_raw(1, 0, (2, 3), EMPTY), "ValueError: decoder levels start at 2"),
    (lambda: decode_program(-1), "ValueError: index must be a natural"),
    (lambda: FinSet().min(), "ValueError: empty set has no minimum"),
    (lambda: RegressiveColoring(lambda s: 1)((0,)),
     "ValueError: regressive coloring must be 0 at minimum 0, got 1"),
    (lambda: repr(Program([(INC, 1, 0), (JZ, 2, -1), (HALT, 0, 0)])),
     "Program([(INC, 1, 0), (JZ, 2, -1), (HALT, 0, 0)])"),
    (lambda: repr(FiniteColoring(3, lambda t: 0, name="flat")),
     "FiniteColoring(dim=3, name='flat')"),
    (lambda: repr(ExactColoring(lambda s: 0, name="zero")), "ExactColoring(name='zero')"),
])
def test_argument_guards_and_reprs(call, want):
    try:
        got = call()
    except (ValueError, NotImplementedError) as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == want


def test_a_stage_row_read_checks_each_color_it_evaluates():
    # A row read's miss goes through the palette check: a bool reads as
    # its int, a color outside the palette or not an integer is refused.
    def read(color):
        stage = ExactColoring(lambda s: color).at_min(2, FinSet(range(3, 8)))
        return stage.row(_Subsets((3, 4), 1))((5,))

    assert read(True) == b"\x01\x01"
    with pytest.raises(ValueError, match="^color 2 outside palette of 2$"):
        read(2)
    with pytest.raises(ValueError, match=r"^color 1\.0 is not an integer$"):
        read(1.0)


def test_finite_coloring_validation():
    c = FiniteColoring(2, lambda t: t[1] % 2)
    assert c((3, 4)) == 0 and c((3, 5)) == 1
    with pytest.raises(ValueError):
        c((4, 3))
    with pytest.raises(ValueError):
        c((1, 2, 3))
    bad = FiniteColoring(1, lambda t: 7)
    with pytest.raises(ValueError):
        bad((5,))


def test_exact_coloring_accepts_set_shapes():
    c = ExactColoring(lambda s: s.min() % 2)
    assert c(els(2, 3, 4)) == 0
    assert c(FinSet([3, 4, 5, 6])) == 1
    assert c((1, 9)) == 1
    with pytest.raises(ValueError):
        c(FinSet([3, 4]))


def test_an_int_subclass_read_gets_the_plain_tuples_color():
    # An int subclass that is not bool passes FinSet: such a read is
    # validated once and shares the plain tuple's memo entry.
    class Int(int):
        pass

    evaluated = []
    c = ExactColoring(lambda s: evaluated.append(s.elems) or s.elems[-1] % 2)
    assert c((2, 5, 8)) == 0 and c((Int(2), Int(5), 8)) == 0
    assert c((Int(2), 5, Int(7))) == 1 and c((2, 5, 7)) == 1
    assert evaluated == [(2, 5, 8), (2, 5, 7)] and len(c) == 2
    with pytest.raises(ValueError):
        c((Int(3), 5, 7))


def test_exact_coloring_rejects_bad_input_on_every_call():
    # The memo is consulted before validation; a rejected input is never
    # stored, so a repeat raises again, whatever its shape.
    c = ExactColoring(lambda s: s.min() % 2)
    stage = c.at_min(2, FinSet(range(3, 9)))
    off_palette = ExactColoring(lambda s: 2)
    not_regressive = RegressiveColoring(lambda s: s.min())
    for bad, coloring in [((3, 4), c), ([3, 4], c), (FinSet([3, 4]), c), ((2, 1), c),
                          ((), c), ((4,), stage), ((5, 4), stage), ((1, 9), off_palette),
                          (els(2, 3, 4), not_regressive)]:
        for _ in range(3):
            with pytest.raises(ValueError):
                coloring(bad)
    assert c((1, 9)) == 1 and c(FinSet([1, 9])) == 1 and c(els(1, 9)) == 1
    assert len(c) == 1


def test_stage_miss_builds_its_set_with_one_validation(monkeypatch):
    runs = []
    init = FinSet.__init__

    def counting_init(self, elems=()):
        runs.append(type(self))
        init(self, elems)

    monkeypatch.setattr(FinSet, "__init__", counting_init)
    for store in ("tuple", "table"):
        seen = []
        stage = _stage(ExactColoring(lambda s: seen.append(s) or 0), 2, range(3, 9), store)
        runs.clear()
        assert stage((3, 4)) == 0 and runs == [ExactlyLargeSet]
        assert [(type(s), s.elems) for s in seen] == [(ExactlyLargeSet, (2, 3, 4))]
        assert stage((3, 4)) == 0 and len(runs) == 1


def _raises_when_sum_is_a_multiple_of_5(s):
    if sum(s.elems) % 5 == 0:
        raise ArithmeticError(f"no color for {s.elems}")
    return s.min() % 2


_STAGE_SOURCES = {
    "plain": lambda: ExactColoring(lambda s: sum(s.elems) % 2),
    "fn raises": lambda: ExactColoring(_raises_when_sum_is_a_multiple_of_5),
    "palette breach": lambda: ExactColoring(lambda s: sum(s.elems) % 4 - 1),
    "regressive breach": lambda: RegressiveColoring(lambda s: sum(s.elems) % (s.min() + 1)),
}


@st.composite
def stage_reads(draw):
    """A stage minimum, a coloring kind and a read sequence: mostly
    well-formed stage tuples, with malformed ones mixed in."""
    a = draw(st.integers(2, 4))
    good = st.lists(st.integers(a + 1, a + 7), min_size=a, max_size=a,
                    unique=True).map(lambda xs: tuple(sorted(xs)))
    bad = st.one_of(
        good.map(lambda t: t[::-1]),                       # not increasing
        good.map(lambda t: (-t[0],) + t[1:]),              # a negative entry
        good.map(lambda t: t[:-1] + (True,)),              # a bool entry
        good.map(lambda t: t[:-1]),                        # too short
        good.map(lambda t: t + (t[-1] + 1,)),              # too long
        st.tuples(st.integers(0, a), good).map(lambda p: (p[0],) + p[1][1:]),  # at or below a
    )
    reads = draw(st.lists(st.one_of(good, good, good, bad), max_size=30))
    return a, draw(st.sampled_from(sorted(_STAGE_SOURCES))), reads


def _read_by_stream(stage, reads):
    colors, error = [], None
    try:
        for v in stage.colors(iter(reads)):
            colors.append(v)
    except Exception as exc:
        error = (type(exc), str(exc))
    return colors, _stored(stage), error


def _read_by_calls(stage, reads):
    colors, error = [], None
    for t in reads:
        try:
            colors.append(stage(t))
        except Exception as exc:
            error = (type(exc), str(exc))
            break
    return colors, _stored(stage), error


def _stored(c):
    """The (tuple, color) pairs a coloring holds: a dict's in the order
    stored, a stage table's in the order of the tuples."""
    if not isinstance(c, _StageTable):
        return list(c.items())
    tuples = {sum(map(getitem, c.slots, t)): t
              for t in combinations(c.universe, len(c.slots))}
    return sorted((tuples[r], v) for r, v in enumerate(c.store) if v != _UNREAD)


def _read_by_contract(stage, reads):
    # The read contract spelled out: memo first; a miss builds the
    # validated set, evaluates, checks, checks the palette, then stores.
    colors, memo = [], {}
    for t in reads:
        try:
            v = memo.get(t)
            if v is None:
                s = ExactlyLargeSet(FinSet(stage.prefix + t))
                v = stage._fn(s)
                if stage._check is not None:
                    stage._check(s, v)
                if not 0 <= v < stage.palette:
                    raise ValueError(f"color {v} outside palette of {stage.palette}")
                memo[t] = v
        except Exception as exc:
            return colors, list(memo.items()), (type(exc), str(exc))
        colors.append(v)
    return colors, list(memo.items()), None


@settings(max_examples=200, deadline=None)
@given(stage_reads())
def test_stage_stream_reads_as_calls_do(case):
    # The stream evaluates its misses itself; it must store, return and
    # raise exactly what one validated call per tuple does, and a stream
    # stopped at its first error must have stored what the calls stored.
    # Both must keep the contract, in the same order.
    # A stage table stores by rank, so its pairs are compared in the
    # order of the tuples.
    a, kind, reads = case
    c = _STAGE_SOURCES[kind]()
    universe = FinSet(range(a + 1, a + 8))  # holds every good tuple
    for store in ("tuple", "table"):
        colors, memo, error = _read_by_contract(_stage(c, a, universe, store), reads)
        expected = colors, memo if store == "tuple" else sorted(memo), error
        assert _read_by_stream(_stage(c, a, universe, store), reads) == expected
        assert _read_by_calls(_stage(c, a, universe, store), reads) == expected


def _raises_when_sum_is_a_multiple_of_7(t):
    if sum(t) % 7 == 0:
        raise ArithmeticError(f"no color for {t}")
    return t[0] % 2


_FINITE_SOURCES = {
    "plain": lambda dim: FiniteColoring(dim, lambda t: sum(t) % 2),
    "fn raises": lambda dim: FiniteColoring(dim, _raises_when_sum_is_a_multiple_of_7),
    "palette breach": lambda dim: FiniteColoring(dim, lambda t: sum(t) % 4 - 1),
}


@st.composite
def finite_reads(draw):
    """A dimension, a coloring kind and a read sequence: mostly
    increasing tuples of that length, with malformed ones mixed in."""
    dim = draw(st.integers(1, 4))
    good = st.lists(st.integers(0, 9), min_size=dim, max_size=dim,
                    unique=True).map(lambda xs: tuple(sorted(xs)))
    bad = st.one_of(
        good.map(lambda t: t[:-1]),                        # too short
        good.map(lambda t: t + (t[-1] + 1,)),              # too long
        good.map(lambda t: t[::-1]),                       # not increasing (dimension 2 up)
        good.map(lambda t: (-t[0] - 1,) + t[1:]),          # a negative entry
        good.map(lambda t: t[:-1] + (True,)),              # a bool entry
        good.map(lambda t: t[:-1] + (float(t[-1]),)),      # a float entry, hashed as its int
    )
    reads = draw(st.lists(st.one_of(good, good, good, bad), max_size=30))
    return dim, draw(st.sampled_from(sorted(_FINITE_SOURCES))), reads


def _read_finite_by_contract(c, reads, calls):
    # The read contract spelled out: memo first, except that a call reads
    # a tuple with an entry that is not a plain int as a miss; a miss
    # checks the length, then each entry in turn, a plain int above the
    # one before it, evaluates, checks the palette, then stores.
    colors, memo = [], {}
    for t in reads:
        try:
            v = None if calls and not all(type(x) is int for x in t) else memo.get(t)
            if v is None:
                if len(t) != c.dimension:
                    raise ValueError(f"expected {c.dimension}-tuple, got {t}")
                for i, x in enumerate(t):
                    if type(x) is not int:
                        raise ValueError(f"not a natural number: {x!r}")
                    if i and x <= t[i - 1]:
                        raise ValueError(f"tuple must increase: {t}")
                v = c._fn(t)
                if not 0 <= v < c.palette:
                    raise ValueError(f"color {v} outside palette of {c.palette}")
                memo[t] = v
        except Exception as exc:
            return colors, list(memo.items()), (type(exc), str(exc))
        colors.append(v)
    return colors, list(memo.items()), None


@settings(max_examples=200, deadline=None)
@given(finite_reads())
def test_finite_stream_reads_as_calls_do(case):
    # The FiniteColoring twin of the stage property: stream, calls and
    # the written-out contract store, return and raise the same, except
    # that a stream, unchecked, serves 3.0 or True a stored hit of 3 or 1.
    dim, kind, reads = case
    make = _FINITE_SOURCES[kind]
    assert _read_by_stream(make(dim), reads) == _read_finite_by_contract(make(dim), reads, False)
    assert _read_by_calls(make(dim), reads) == _read_finite_by_contract(make(dim), reads, True)


class _CountingIter:
    def __init__(self, items):
        self._it, self.pulled = iter(items), 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self.pulled += 1
        return item


@pytest.mark.parametrize("kind", ["stage", "finite"])
def test_stream_read_stops_at_first_other_color(kind):
    # Colors 0, 0, 0, 1, 0, ...: an all-equal read must stop at the
    # fourth tuple, pull nothing past it and have stored the four misses,
    # whatever the stage's store.
    if kind == "stage":
        cs = [_stage(ExactColoring(lambda s: int(s.elems[1] == 6)), 1, range(3, 12), store)
              for store in ("tuple", "table")]
    else:
        cs = [FiniteColoring(1, lambda t: int(t[0] == 6))]
    for c in cs:
        tuples = _CountingIter([(x,) for x in range(3, 12)])
        assert not all(map(eq, c.colors(tuples), repeat(0)))
        assert tuples.pulled == 4
        assert _stored(c) == [((3,), 0), ((4,), 0), ((5,), 0), ((6,), 1)]


# ---------------------------------------------------------------------------
# stage tables

def _logged_source(kind, palette, seed, log):
    """An exact coloring that appends every set it evaluates to log."""
    def color(s):
        log.append(s.elems)
        v = crc_bit(seed, s.elems, palette)
        if kind == "fn raises" and sum(s.elems) % 7 == 0:
            raise ArithmeticError(f"no color for {s.elems}")
        if kind == "palette breach" and sum(s.elems) % 9 == 0:
            return palette
        if kind == "float color" and sum(s.elems) % 5 == 0:
            return float(v)
        if kind == "bool color":
            return v == 1
        return v

    if kind == "regressive breach":
        return RegressiveColoring(lambda s: log.append(s.elems) or sum(s.elems) % (s.min() + 1))
    return ExactColoring(color, palette=palette)


def _stage(source, a, universe, store):
    """The stage at minimum a over universe, its colors kept in ``store``:
    "tuple" (an ExactColoring keyed by tuple, as an oversize stage is,
    forced by lowering ``MAX_STAGE_TABLE``) or "table" (by rank, one byte
    per stage tuple)."""
    with pytest.MonkeyPatch.context() as mp:
        if store == "tuple":
            mp.setattr(colorings, "MAX_STAGE_TABLE", -1)
        stage = source.at_min(a, universe)
    assert type(stage) is (ExactColoring if store == "tuple" else _StageTable)
    return stage


@st.composite
def stage_table_ops(draw):
    """A stage (arity 1 to 5, palette 2 or 3, a random universe above the
    minimum) and reads of it: streams and calls of mostly good tuples,
    with malformed tuples and tuples outside the universe mixed in; row
    reads, full or stopped at the first other color, of the stage, a
    view of it or a view of a view, with malformed heads and candidates
    not above every head mixed in, now and then after every good tuple
    is stored."""
    a, palette = draw(st.integers(1, 5)), draw(st.integers(2, 3))
    elems = sorted(draw(st.sets(st.integers(a + 1, a + 12), min_size=a, max_size=9)))
    wider = list(range(a + 1, a + 15))  # the universe and elements outside it
    good = st.lists(st.sampled_from(elems), min_size=a, max_size=a,
                    unique=True).map(lambda xs: tuple(sorted(xs)))
    tuples = st.one_of(
        good, good, good,
        st.lists(st.integers(a + 1, a + 14), min_size=a, max_size=a,       # maybe outside
                 unique=True).map(lambda xs: tuple(sorted(xs))),
        good.map(lambda t: t[::-1]),                                       # not increasing
        good.map(lambda t: t[:-1]),                                        # too short
        good.map(lambda t: t + (t[-1] + 1,)),                              # too long
        good.map(lambda t: t[:-1] + (True,)),                              # a bool entry
        good.map(lambda t: (-t[0],) + t[1:]),                              # a negative entry
    )
    # No float entries: 7.0 hashes as 7 does, so the tuple memo serves
    # (5, 7.0) once (5, 7) is stored; the table never does (the test
    # after this one).

    @st.composite
    def row(draw):
        # Mostly universe elements; elements outside it in the paths, the
        # candidate or the heads fail where one call per tuple would.
        paths, pool = [], draw(st.sampled_from([elems, elems, wider]))
        for _ in range(draw(st.integers(0, min(2, a - 1)))):
            if len(pool) < 2:
                break
            path = sorted(draw(st.sets(st.sampled_from(pool), min_size=2)))
            paths.append(tuple(path))
            pool = path[:-1]  # every element here has a tail
        j = draw(st.sampled_from(pool) if paths else st.sampled_from(wider))
        below = [x for x in draw(st.sampled_from([elems, elems, wider])) if x < j]
        k = a - len(paths) - 1
        head = (st.lists(st.sampled_from(below), min_size=k, max_size=k, unique=True)
                .map(lambda xs: tuple(sorted(xs))) if len(below) >= k > 0 else st.just(()))
        heads = draw(st.lists(head, max_size=6)) if len(below) >= k else []
        if below and draw(st.booleans()):
            # The greedy step's heads, or the node step's (a tail of one
            # element, the top one); some malformed: elements not
            # increasing, a bool element, or the tail below the elements.
            chosen = sorted(draw(st.sets(st.sampled_from(below), min_size=min(k, len(below)))))
            flaw = draw(st.sampled_from([None, "decreasing", "bool", "low tail"]))
            n, tail = k, ()
            if chosen and k and (flaw == "low tail" or draw(st.booleans())):
                n, tail = k - 1, (chosen.pop(0 if flaw == "low tail" else -1),)
            if flaw == "decreasing":
                chosen.reverse()
            elif flaw == "bool" and chosen:
                chosen[0] = True
            heads = _Subsets(chosen, n, tail)
        held = sorted({x for h in heads for x in h})
        if held and draw(st.booleans()):  # a candidate not above every head
            j = draw(st.sampled_from(held))
        return paths, heads, j, draw(st.none() | st.integers(0, palette - 1))

    # Every good tuple stored first, now and then, so that a malformed
    # tuple's rank would find a stored color.
    fill = [("stream", list(combinations(elems, a)))] if draw(st.booleans()) else []
    ops = fill + draw(st.lists(st.one_of(
        st.tuples(st.just("stream"), st.lists(tuples, max_size=6)),
        st.tuples(st.just("call"), tuples),
        st.tuples(st.just("row"), row()),
    ), max_size=10))
    kind = draw(st.sampled_from(["plain", "fn raises", "palette breach", "regressive breach",
                                 "float color", "bool color"]))
    return a, palette, FinSet(elems), kind, draw(st.integers(0, 99)), ops


def _apply(stage, op):
    verb, arg = op
    if verb == "call":
        return stage(arg)
    if verb == "stream":
        colors = []
        try:
            for v in stage.colors(iter(arg)):
                colors.append(v)
        except Exception as exc:
            colors.append((type(exc), str(exc)))
        return colors
    paths, heads, j, color = arg
    c = stage
    for path in paths:
        c = _Restricted(c, path)
    read = c.row(heads)
    return tuple(read((j,))) if color is None else read((j,), color=color)


@settings(max_examples=200, deadline=None)
@given(stage_table_ops())
def test_stage_table_reads_as_the_tuple_memo_does(case):
    # The same reads of a stage stored by rank in a table and of a stage
    # with a tuple memo give the same colors and exceptions and evaluate
    # the same sets in the same order: streams, calls, rows through views
    # of views, and row reads stopped at the first other color.
    a, palette, universe, kind, seed, ops = case
    runs = []
    for store in ("tuple", "table"):
        log = []
        stage = _stage(_logged_source(kind, palette, seed, log), a, universe, store)
        results = []
        for op in ops:
            try:
                results.append(_apply(stage, op))
            except Exception as exc:
                results.append((type(exc), str(exc)))
        runs.append((results, log))
    assert runs[1] == runs[0]


@settings(max_examples=100, deadline=None)
@given(stage_table_ops())
def test_every_set_a_row_read_evaluates_revalidates(case):
    # A row miss builds its set without the element loop, trusting the
    # row and the read it validated whole; every such set must pass that
    # loop all the same.
    a, palette, universe, kind, seed, ops = case
    stage = _stage(_logged_source(kind, palette, seed, []), a, universe, "table")
    fn, handed = stage._fn, []

    def revalidated(s):
        handed.append(s)
        return fn(s)

    stage._fn = revalidated
    for op in ops:
        try:
            _apply(stage, op)
        except Exception:
            pass
    for s in handed:
        assert ExactlyLargeSet(s.elems) == s


def test_a_row_never_serves_a_stored_color_to_a_malformed_tuple():
    # The rank of (6, 4, 7) is that of (5, 6, 7): a row of the heads
    # _Subsets((6, 4), 2) = [(6, 4)] must fail as the call does, not
    # serve the stored color.
    stage = ExactColoring(lambda s: sum(s.elems) % 2).at_min(3, FinSet(range(4, 9)))
    assert stage((5, 6, 7)) == 1
    for read in (lambda: stage((6, 4, 7)), lambda: tuple(stage.row(_Subsets((6, 4), 2))((7,))),
                 lambda: stage.row(_Subsets((6, 4), 2))((7,), color=1)):
        with pytest.raises(ValueError, match="^elements must be strictly increasing$"):
            read()
    # A candidate not above every head: with every stage tuple stored, the
    # row of (4, 5), (4, 6) and (5, 6) at 6 fails at (4, 6, 6), whose rank
    # is that of (4, 5, 7), as the call does.
    list(stage.colors(combinations(range(4, 9), 3)))
    for read in (lambda: stage((4, 6, 6)), lambda: tuple(stage.row(_Subsets((4, 5, 6), 2))((6,)))):
        with pytest.raises(ValueError, match="^elements must be strictly increasing$"):
            read()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subsets_rank_as_their_heads_one_by_one(data):
    # The suffix-first ranks of k-subsets followed by a tail are the
    # per-head ranks of the same heads in combinations order.  With an
    # element outside the universe the row falls back to tuple rows: it
    # reads as the tuple memo's row of the same heads does.
    k, t = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 2))
    a = k + t + 1  # the heads fill k + t slots, the candidate the last
    universe = sorted(data.draw(st.sets(st.integers(a + 1, a + 14), min_size=a + 1, max_size=11)))
    chosen = set(data.draw(st.sets(st.sampled_from(universe[:-1]), min_size=t)))
    if data.draw(st.booleans()):
        chosen.add(data.draw(st.integers(0, a + 16).filter(lambda x: x not in universe)))
    chosen = sorted(chosen)
    elems, tail = chosen[:len(chosen) - t], tuple(chosen[len(chosen) - t:])
    heads = _Subsets(elems, k, tail)

    def table():
        return ExactColoring(lambda s: sum(s.elems) % 3, palette=3).at_min(a, universe)

    if {x for h in heads for x in h} <= set(universe):
        want = [sum(map(getitem, table().slots, sub + tail)) for sub in combinations(elems, k)]
        assert table().ranks(heads) == want
        return
    with pytest.raises(KeyError):
        table().ranks(heads)
    outcomes = []
    for row in (table().row(heads), table().row(list(heads))):
        try:
            outcomes.append(tuple(row((universe[-1],))))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@st.composite
def split_rows(draw):
    """A stage (arity 1 to 5, palette 2 or 3) and one row of it split at
    slot d, for d from 0 to a - 1: _Subsets heads that fill the first d
    slots (at d = 0 the single empty head) and reads of ends that fill
    the other a - d, with malformed heads and ends mixed in, now and then
    after every good tuple is stored."""
    a, palette = draw(st.integers(1, 5)), draw(st.integers(2, 3))
    elems = sorted(draw(st.sets(st.integers(a + 1, a + 12), min_size=a, max_size=9)))
    wider = list(range(a + 1, a + 15))  # the universe and elements outside it
    d = draw(st.integers(0, a - 1))
    t = draw(st.integers(0, min(d, 2)))  # the heads' tail fills t of the d slots
    source = draw(st.sampled_from([elems, elems, wider]))
    chosen = sorted(draw(st.sets(st.sampled_from(source), min_size=t, max_size=d + 3)))
    top = chosen[-1] if chosen else a
    k, tail = d - t, tuple(chosen[len(chosen) - t:])
    flaw = draw(st.sampled_from([None, None, "decreasing", "bool", "low tail", "width"]))
    if flaw == "decreasing":
        chosen.reverse()
    elif flaw == "bool" and chosen:
        chosen[0] = True
    elif flaw == "low tail" and t:
        tail = tuple(chosen[:t])
        chosen = chosen[t:] + chosen[:t]
    elif flaw == "width":
        k = max(0, k + draw(st.sampled_from([-1, 1])))
    heads = _Subsets(chosen[:len(chosen) - len(tail)], k, tail)
    n = a - d
    above = [x for x in draw(st.sampled_from([elems, elems, wider])) if x > top]
    good = st.lists(st.sampled_from(above if len(above) >= n else wider), min_size=n,
                    max_size=n, unique=True).map(lambda xs: tuple(sorted(xs)))
    end = st.one_of(
        good, good, good,
        good.map(lambda e: e[::-1]),                                    # not increasing
        good.map(lambda e: e[:-1]),                                     # too short
        good.map(lambda e: e + (e[-1] + 1,)),                           # too long
        good.map(lambda e: e[:-1] + (True,)),                           # a bool entry
        good.map(lambda e: (-e[0],) + e[1:]),                           # a negative entry
        good.map(lambda e: (top,) + e[1:]),                             # not above the heads
    )
    reads = draw(st.lists(st.tuples(end, st.none() | st.integers(0, palette - 1)),
                          min_size=1, max_size=4))
    kind = draw(st.sampled_from(["plain", "fn raises", "palette breach", "regressive breach",
                                 "float color", "bool color"]))
    return a, palette, FinSet(elems), kind, draw(st.integers(0, 99)), draw(st.booleans()), \
        heads, reads


@settings(max_examples=200, deadline=None)
@given(split_rows())
def test_a_row_reads_every_split_as_tuple_rows_do(case):
    # Whatever slots the heads fill and the end fills, a row read of a
    # table or a tuple memo gives the colors and exceptions of the tuple
    # memo's row over the heads as a list, and evaluates the same sets in
    # the same order.
    a, palette, universe, kind, seed, fill, heads, reads = case
    runs = []
    for store in ("tuple", "table"):
        for by_rank in (True, False):
            log = []
            stage = _stage(_logged_source(kind, palette, seed, log), a, universe, store)
            results = [_apply(stage, ("stream", list(combinations(universe.elems, a))))
                       if fill else None]
            row = stage.row(heads) if by_rank else stage.row(list(heads))
            for end, color in reads:
                try:
                    v = row(end, color)
                    results.append(tuple(v) if color is None else v)
                except Exception as exc:
                    results.append((type(exc), str(exc)))
            runs.append((results, log))
    assert runs[1:] == runs[:1] * 3


def test_greedy_row_keeps_its_heads_as_subsets():
    # One row read over the C(40, 4) = 91,390 heads of a greedy step, every
    # tuple a miss, peaks at about 4.1 MB (the ranks, the row's colors);
    # with the heads made a list of tuples it peaks at about 11.3 MB.
    stage = ExactColoring(lambda s: 0).at_min(5, FinSet(range(6, 47)))
    heads = _Subsets(range(6, 46), 4)
    tracemalloc.start()
    try:
        assert stage.row(heads)((46,), color=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stage.store.count(0) == comb(40, 4)
    assert peak < 6_000_000


def test_colors_are_integers():
    # A bool reads as its int and any other non-integer color is refused,
    # by every memo alike.
    makers = [(lambda fn: FiniteColoring(2, fn), (3, 4)), (ExactColoring, (1, 5))] + [
        (lambda fn, store=store: _stage(ExactColoring(fn), 2, FinSet(range(3, 9)), store),
         (3, 4)) for store in ("tuple", "table")]
    for v, want in ((True, 1), (False, 0), (1.0, None), ("1", None)):
        for make, t in makers:
            c = make(lambda _: v)
            if want is None:
                with pytest.raises(ValueError, match=rf"color {v!r} is not an integer"):
                    c(t)
            else:
                got = c(t)
                assert got == want and type(got) is int and c(t) == want


def test_a_call_never_serves_a_stored_color_to_a_bad_entry():
    # 9.0 and True hash and compare as 9 and 1 do: once the plain tuple is
    # stored, a call still refuses them with the message of a fresh miss.
    def plain():
        return ExactColoring(lambda s: s.min() % 2)

    def stage(store):
        return lambda: _stage(plain(), 3, FinSet(range(4, 10)), store)

    def finite():
        return FiniteColoring(2, lambda t: int(t[0]) % 2)

    cases = [(make, (1, 9), [(1, 9.0), [1, 9.0], (True, 9)]) for make in (plain, finite)]
    cases += [(stage(store), (4, 5, 6), [(4, 5, 6.0), (4.0, 5, 6), [4, 5, 6.0]])
              for store in ("tuple", "table")]
    for make, good, bads in cases:
        c = make()
        assert c(good) == c(list(good)) == 1
        for bad in bads:
            with pytest.raises(ValueError) as fresh:
                make()(bad)
            assert "not a natural number" in str(fresh.value)
            with pytest.raises(ValueError) as hit:
                c(bad)
            assert str(hit.value) == str(fresh.value)


def test_a_finite_miss_refuses_an_entry_that_is_not_a_plain_int():
    # The miss path, a call's or a stream's, refuses a float or bool entry
    # before it evaluates, and stores nothing.
    for bad, name in (((3.0, 4), "3.0"), ((3, 4.5), "4.5"), ((True, 4), "True")):
        c = FiniteColoring(2, lambda t: int(t[0]) % 2)
        for read in (c, lambda t: next(c.colors([t]))):
            with pytest.raises(ValueError, match=rf"^not a natural number: {name}$"):
                read(bad)
        assert len(c) == 0


def test_a_sparse_stage_allocates_one_table():
    # Reading 1 in 40 of the C(24, 7) = 346,104 stage tuples peaks at about
    # one byte per stage tuple: the table, allocated once, and nothing
    # that grows with the reads.
    tracemalloc.start()
    try:
        stage = ExactColoring(lambda s: sum(s.elems) % 2).at_min(7, FinSet(range(8, 32)))
        for _ in stage.colors(islice(combinations(range(8, 32), 7), 0, None, 40)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = stage.store
    assert len(table) - table.count(_UNREAD) == -(-comb(24, 7) // 40)
    assert peak < 1.25 * comb(24, 7)


def test_stage_table_never_serves_a_bad_tuple():
    # The color of (5, 6, 7) is stored first; a tuple that is not a plain
    # increasing 3-tuple still fails as its exactly large set does.
    stage = ExactColoring(lambda s: sum(s.elems) % 2).at_min(3, FinSet(range(4, 12)))
    assert stage((5, 6, 7)) == 1 and list(stage.colors([(5, 6, 7)])) == [1]
    for bad in [(7, 6, 5), (5, 7, 6), (5, 6), (5, 6, 7, 8), (5, 6, True), (5, 6, 7.0),
                (5.0, 6, 7), (-5, 6, 7), (3, 6, 7), (5, 5, 7)]:
        with pytest.raises(ValueError) as want:
            ExactlyLargeSet((3,) + bad)
        for read in (stage, lambda t: next(stage.colors([t]))):
            with pytest.raises(ValueError) as got:
                read(bad)
            assert str(got.value) == str(want.value)
    for outside in [(5, 6, 12), (12, 13, 14), (4, 5, 40)]:
        with pytest.raises(ValueError, match=r"stage universe \{4,5,6,7,8,9,10,11\}"):
            stage(outside)


def test_oversize_stage_and_wide_palette_keep_the_tuple_memo():
    # C(40, 30) = 847,660,528 tuples: a table would take 848 MB.
    assert comb(40, 30) > colorings.MAX_STAGE_TABLE
    tracemalloc.start()
    try:
        stage = ExactColoring(lambda s: s.min() % 2).at_min(30, FinSet(range(31, 71)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000 and type(stage) is ExactColoring
    assert stage(tuple(range(31, 61))) == 0
    with pytest.raises(ValueError, match="stage universe"):
        stage(tuple(range(31, 60)) + (80,))
    wide = ExactColoring(lambda s: 299, palette=300).at_min(3, FinSet(range(4, 12)))
    assert type(wide) is ExactColoring and wide((4, 5, 6)) == 299
    # colors 0 to 254 fit below the unread byte
    edge = _stage(ExactColoring(lambda s: 254, palette=255), 3, FinSet(range(4, 12)), "table")
    assert edge((4, 5, 6)) == 254 and edge((4, 5, 6)) == 254
    assert isinstance(edge.store, bytearray)


def test_stage_universe_lies_above_the_minimum():
    with pytest.raises(ValueError, match="must lie above 3"):
        ExactColoring(lambda s: 0).at_min(3, FinSet(range(3, 9)))


def test_only_a_coloring_with_a_check_runs_it_on_a_miss():
    assert ExactColoring._check is None
    checked = []

    class Checked(ExactColoring):
        _check = staticmethod(lambda s, v: checked.append((s.elems, v)))

    for store in ("tuple", "table"):
        checked.clear()
        stage = _stage(Checked(lambda s: 1), 2, FinSet(range(3, 8)), store)
        assert stage((3, 4)) == 1 and stage((3, 4)) == 1
        assert checked == [((2, 3, 4), 1)]


_TO_FREE = {
    "finite": (lambda: FiniteColoring(2, lambda t: t[0] % 2), (4, 5)),
    "exact": (lambda: ExactColoring(lambda s: s.min() % 2), (2, 3, 4)),
    "exact stage": (lambda: ExactColoring(lambda s: s.min() % 2).at_min(3, range(4, 9)),
                    (4, 5, 6)),
    "regressive": (lambda: RegressiveColoring(lambda s: s.min() // 2), (2, 3, 4)),
    "regressive stage": (lambda: RegressiveColoring(lambda s: s.min() // 2).at_min(
        3, range(4, 9)), (4, 5, 6)),
}


@pytest.mark.parametrize("kind", sorted(_TO_FREE))
def test_no_memo_keeps_its_coloring_alive(kind):
    # A memo that held its coloring (say, a bound method of it) would
    # make a reference cycle, freed only by a cycle collection.
    make, t = _TO_FREE[kind]
    gc.disable()
    try:
        c = make()
        assert list(c.colors([t])) == [c(t)] and len(_stored(c)) == 1
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        gc.enable()


def test_regressive_coloring_guard():
    good = RegressiveColoring(lambda s: max(s.min() - 1, 0))
    assert good(els(3, 4, 5, 6)) == 2
    assert good(els(0)) == 0
    bad = RegressiveColoring(lambda s: s.min())
    with pytest.raises(ValueError):
        bad(els(2, 3, 4))


def test_colorings_are_pure():
    rng = random.Random(1)
    c = dh_coloring(ExplicitOracle([3]))
    for _ in range(50):
        m = rng.randrange(2, 5)
        tail = sorted(rng.sample(range(m + 1, 25), m))
        s = els(m, *tail)
        v = c(s)
        assert all(c(s) == v for _ in range(20))


# ---------------------------------------------------------------------------
# stage-comparison colorings

def test_c2_literal_is_constant_one():
    rng = random.Random(2)
    c = c2_coloring(EMPTY, "literal")
    for _ in range(200):
        k = rng.randrange(0, 30)
        y = k + 1 + rng.randrange(0, 30)
        z = y + 1 + rng.randrange(0, 30)
        assert c((k, y, z)) == 1


def test_c2_capture_vacuous_below_halters():
    # guard 0 admits only the empty program, which diverges
    assert c2_coloring(EMPTY, "capture")((0, 5, 9)) == 1


def test_c2_capture_constant_under_this_numbering():
    # halting thresholds never exceed the index by more than the run
    # itself, so with the guard below both stages the capture clause
    # cannot fail for explicit oracles; recorded as observed behavior
    rng = random.Random(3)
    c = c2_coloring(ExplicitOracle([1, 4, 6]), "capture")
    for _ in range(200):
        k = rng.randrange(0, 25)
        y = k + 1 + rng.randrange(0, 25)
        z = y + 1 + rng.randrange(0, 25)
        assert c((k, y, z)) == 1
    with pytest.raises(ValueError):
        c2_coloring(EMPTY, "sideways")


def test_cn_from_rejects_non_homogeneous_tuples():
    # synthetic previous level with a planted color split
    prev = FiniteColoring(3, lambda t: 1 if t[0] >= 4 else 0)
    c4 = cn_from(prev, EMPTY)
    assert c4.dimension == 4
    assert c4((3, 5, 7, 9)) == 0  # mixes colors at the previous level
    assert c4((4, 5, 7, 9)) == 1


def test_c3_matches_hand_unrolled_evaluation():
    A = ExplicitOracle([0, 2])
    c3 = cn_coloring(3, A)
    tpl = (3, 9, 15, 21)

    # by hand: previous-level homogeneity, then the capture clause
    c2 = c2_coloring(A, "capture")
    sub_colors = {c2(sub) for sub in combinations(tpl, 3)}
    assert len(sub_colors) == 1
    y_members = FinSet([i for i in range(tpl[1] + 1)
                        if mn_raw(2, i, tpl[1:], A)])
    oracle = ExplicitOracle(y_members.elems)
    expected = 1
    for e in range(tpl[0] + 1):
        tz = halt_threshold(e, oracle, 0, tpl[2])
        ty = halt_threshold(e, oracle, 0, tpl[1])
        hz = tz is not None and tz <= tpl[2]
        hy = ty is not None and ty <= tpl[1]
        if hz and not hy:
            expected = 0
    assert c3(tpl) == expected


def capture_reference(k, oracle, lo, hi):
    # Two uncached runs per index: no e <= k halts under hi but not lo.
    return all(not (run_bounded(e, oracle, 0, hi).halted
                    and not run_bounded(e, oracle, 0, lo).halted)
               for e in range(k + 1))


oracles_st = st.builds(
    lambda members, keyed: ExplicitOracle(members) if keyed else UnkeyedOracle(members.__contains__),
    st.frozensets(st.integers(0, 150), max_size=6),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(0, 120), lo=st.integers(0, 150), width=st.integers(1, 40),
       A=oracles_st)
def test_capture_loop_matches_two_call_reference(k, lo, width, A):
    assert _no_threshold_in(k, A, lo, lo + width) == capture_reference(k, A, lo, lo + width)


def _counting_runs(monkeypatch):
    # The indices whose runs a capture check consults.
    runs = []
    real = decoders.halt_threshold
    monkeypatch.setattr(decoders, "halt_threshold",
                        lambda e, oracle, x, cap: runs.append(e) or real(e, oracle, x, cap))
    return runs


def test_capture_loop_skips_the_indices_no_oracle_can_move(monkeypatch):
    # Below the late bound (46) an index halts with threshold e + 1 or
    # never, so the loop starts at the lesser of the bound and lo.
    runs, late = _counting_runs(monkeypatch), machines._least_late_index()
    for k, lo, hi in ((3, 5, 9), (45, 44, 45), (50, 60, 61), (60, 70, 90), (40, 60, 61)):
        runs.clear()
        assert _no_threshold_in(k, ExplicitOracle([1]), lo, hi)
        assert runs == list(range(min(late, lo), k + 1))


@contextmanager
def _program_10_halting_late():
    # Program 10 (HALT; HALT; HALT) halts at once; made to halt after 19
    # steps, its threshold is 20, and the late bound drops to 10.
    late, real = machines.decode_program(10).instructions, machines._simulate

    def simulate(instructions, oracle, x, step_cap):
        if instructions != late:
            return real(instructions, oracle, x, step_cap)
        return ("halt", 19, 0, 0) if step_cap >= 19 else ("cap", step_cap, 0, None)

    machines._simulate = simulate
    clear_caches()
    try:
        yield
    finally:
        machines._simulate = real
        clear_caches()


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 60), lo=st.integers(0, 60), width=st.integers(1, 30), A=oracles_st)
@example(k=15, lo=12, width=13, A=EMPTY)
def test_capture_loop_matches_the_reference_under_a_lower_late_bound(k, lo, width, A):
    # With index 10 late, a guard k >= 10 must still consult it when lo
    # lies above 10: its threshold 20 may lie in (lo, lo + width].
    with _program_10_halting_late():
        assert machines._least_late_index() == 10
        assert _no_threshold_in(k, A, lo, lo + width) == capture_reference(k, A, lo, lo + width)


@settings(max_examples=40, deadline=None)
@given(start=st.integers(2, 80), gaps=st.lists(st.integers(1, 25), min_size=3, max_size=3),
       A=oracles_st)
def test_stage_comparisons_match_two_call_reference(start, gaps, A):
    # Minima past 46 make the capture loops run querying programs.
    tpl = (start, start + gaps[0], start + gaps[0] + gaps[1], start + sum(gaps))
    c2, c3 = c2_coloring(A, "capture"), cn_coloring(3, A)
    sub_colors = set()
    for k, y, z in combinations(tpl, 3):
        want = int(capture_reference(k, A, y, z))
        assert c2((k, y, z)) == want
        sub_colors.add(want)
    # The level-3 oracle: indices up to tpl[1] that halt under tpl[2].
    approx = ExplicitOracle([i for i in range(tpl[1] + 1)
                             if run_bounded(i, A, 0, tpl[2]).halted])
    want = int(len(sub_colors) == 1 and capture_reference(tpl[0], approx, tpl[1], tpl[2]))
    assert c3(tpl) == want


def test_cn_vacuous_guard_colors_one():
    A = EMPTY
    c3 = cn_coloring(3, A)
    assert c3((0, 5, 9, 14)) == 1
    with pytest.raises(ValueError):
        cn_coloring(1, A)


def test_comega_dispatches_to_level_two():
    A = ExplicitOracle([1])
    cw = comega_coloring(A)
    c2 = c2_coloring(A, "capture")
    for tail in ((5, 9), (6, 11), (9, 15)):
        assert cw(els(2, *tail)) == c2((2,) + tail)
    assert cw(els(1, 5)) == 0  # minimum below 2


def test_comega_chain_elements_are_level_homogeneous():
    A = EMPTY
    cw = comega_coloring(A)
    res = exact_homog_search(cw, FinSet(range(2, 10)), 5)
    assert res.witness is not None
    H = res.witness.set
    for n in H.elems:
        if n < 2:
            continue
        cn = cn_coloring(n, A)
        cands = [x for x in H.elems if x >= n]
        colors = {
            cn(t) for t in combinations(cands, n + 1)
        }
        assert len(colors) <= 1


def loop_chain(n, A):
    # Every level above 2 runs the capture loop against the approximation.
    c = c2_coloring(A, "capture")
    for _ in range(n - 2):
        c = cn_from(c, A)
    return c


tower_queries = st.lists(
    st.tuples(st.integers(2, 5), st.integers(0, 60),
              st.lists(st.integers(1, 12), min_size=5, max_size=5)),
    min_size=1, max_size=6,
)


@settings(max_examples=30, deadline=None)
@given(A=oracles_st, queries=tower_queries, cleared=st.booleans())
def test_shared_tower_matches_fresh_levels(A, queries, cleared):
    # First entries past 46 make the capture checks run querying programs.
    if cleared:
        clear_caches()
    level = cn_tower(A)
    for n, start, gaps in queries:
        tpl = tuple(accumulate([start] + gaps[:n]))
        got = level(n)(tpl)
        assert got == cn_coloring(n, A)(tpl)
        assert got == loop_chain(n, A)(tpl)


def _counting_capture_loops(monkeypatch):
    calls = []
    real = colorings._no_threshold_in
    monkeypatch.setattr(colorings, "_no_threshold_in",
                        lambda k, oracle, lo, hi: calls.append((k, lo, hi))
                        or real(k, oracle, lo, hi))
    return calls


def _recorded_towers(monkeypatch):
    towers = []
    real = colorings.cn_tower
    monkeypatch.setattr(colorings, "cn_tower", lambda A: towers.append(real(A)) or towers[-1])
    return towers


def test_comega_evaluates_shared_lower_levels_once(monkeypatch):
    # The last entries reach 46, so both sets go through the tower.
    calls, towers = _counting_capture_loops(monkeypatch), _recorded_towers(monkeypatch)
    runs = _counting_runs(monkeypatch)
    sets = ((3, 5, 7, 49), (4, 5, 7, 49, 51))
    cw = comega_coloring(ExplicitOracle([1]))
    assert [cw(els(*s)) for s in sets] == [1, 1]
    level, = towers
    # Level 2 holds every 3-subset of the two sets ((5, 7, 49) is shared)
    # and level 3 the 4-subsets of the second; each set itself is its top
    # level's, stored by the caller alone.
    triples = {t for s in sets for t in combinations(s, 3)}
    quads = set(combinations(sets[1], 4))
    assert set(level(2)) == triples and len(triples) == 13
    assert set(level(3)) == quads and len(quads) == 5 and not len(level(4))
    # Every color is 1, so each evaluation runs its capture check once.
    assert len(calls) == len(triples) + len(quads) + len(sets)
    # Every guard lies below 46 and below its tuple's second entry, so
    # no check consults a run.
    assert runs == []


def test_comega_below_the_bound_builds_no_tower(monkeypatch):
    calls = _counting_capture_loops(monkeypatch)
    towers = _recorded_towers(monkeypatch)
    cw = comega_coloring(ExplicitOracle([1]))
    assert cw(els(3, 5, 7, 9)) == cw(els(4, 5, 7, 9, 11)) == cw(els(2, 44, 45)) == 1
    level, = towers
    assert calls == [] and not any(len(level(n)) for n in (2, 3, 4))


def test_comega_stores_a_stage_tuple_once(monkeypatch):
    # The stage table holds each set's color; the tower keeps only the
    # levels below, so none of the stage tuples.  The sets that hold 46
    # reach the tower, and each of its levels holds every subset of
    # its size of those sets.
    universe = (5, 6, 7, 8, 9, 10, 11, 12, 46)
    tuples = list(combinations(universe, 4))
    c4, towers = cn_coloring(4, EMPTY), _recorded_towers(monkeypatch)
    want = [c4((4,) + t) for t in tuples]
    stage = comega_coloring(EMPTY).at_min(4, FinSet(universe))
    assert list(stage.colors(tuples)) == want
    level, = towers
    assert len(level(2)) and len(level(3)) and not len(level(4))
    assert not {(4,) + t for t in tuples} & {t for n in (2, 3, 4) for t in level(n)}
    crossing = [(4,) + t for t in tuples if t[-1] == 46]
    for n in (2, 3):
        assert set(level(n)) == {u for s in crossing for u in combinations(s, n + 1)}
    # Every triple of the 10 elements lies in such a set; a 4-subset
    # does unless it misses both 4 and 46.
    assert len(level(2)) == comb(10, 3) and len(level(3)) == comb(10, 4) - comb(8, 4)


def test_comega_stage_below_the_bound_builds_no_tower(monkeypatch):
    tuples = list(combinations(range(5, 14), 4))
    towers = _recorded_towers(monkeypatch)
    stage = comega_coloring(EMPTY).at_min(4, FinSet(range(5, 14)))
    assert list(stage.colors(tuples)) == [1] * len(tuples)
    level, = towers
    assert not any(len(level(n)) for n in (2, 3, 4))


below_the_bound = st.integers(2, 7).flatmap(
    lambda m: st.sets(st.integers(m + 1, 45), min_size=m, max_size=m).map(
        lambda tail: (m,) + tuple(sorted(tail))))


@settings(max_examples=25, deadline=None)
@given(A=oracles_st, elems=below_the_bound)
def test_comega_below_the_bound_is_the_level_color(A, elems):
    clear_caches()
    assert elems[-1] < machines._least_late_index()
    assert comega_coloring(A)(FinSet(elems)) == cn_coloring(elems[0], A)(elems) == 1


def test_a_late_low_program_lowers_the_bound():
    # A capture check with guard k >= 10 and stages y < 20 <= z fails
    # once program 10's threshold is 20.  The bound drops to 10, and a set
    # that reaches it is colored by the tower.
    elems = (3, 10, 11, 20)
    clear_caches()
    assert machines._least_late_index() == 46 and comega_coloring(EMPTY)(FinSet(elems)) == 1
    with _program_10_halting_late():
        assert machines._least_late_index() == 10
        assert halt_threshold(10, EMPTY, 0, 20) == 20
        assert comega_coloring(EMPTY)(FinSet(elems)) == cn_coloring(3, EMPTY)(elems) == 0
        assert comega_coloring(EMPTY)(FinSet((3, 4, 5, 9))) == 1


comega_reads = st.tuples(st.integers(2, 5), st.integers(1, 44),
                         st.lists(st.integers(1, 9), min_size=5, max_size=5))


@settings(max_examples=25, deadline=None)
@given(A=oracles_st, read=comega_reads)
def test_comega_color_is_the_level_color(A, read):
    # Entries past 46 make the checks below the top run querying programs.
    clear_caches()
    m, lift, gaps = read
    elems = (m,) + tuple(accumulate([46 + lift] + gaps[:m - 1]))
    want = cn_coloring(m, A)(elems)
    called = comega_coloring(A)
    assert called(FinSet(elems)) == called(FinSet(elems)) == want
    assert list(comega_coloring(A).colors([elems])) == [want]
    stage = comega_coloring(A).at_min(m, FinSet(elems[1:]))
    assert stage.row(_Subsets(elems[1:-1], m - 1))(elems[-1:]) == bytes([want])
    assert stage(elems[1:]) == want


# ---------------------------------------------------------------------------
# disagreement-hardness colorings

def test_dh_odd_minimum_colors_zero():
    c = dh_coloring(EMPTY)
    assert c(els(3, 4, 5, 6)) == 0
    assert c(els(5, 7, 9, 11, 13, 15)) == 0


def test_dh_no_halters_colors_zero():
    c = dh_coloring(EMPTY, programs=DIVERGERS)
    for s in enumerate_exactly_large(FinSet(range(2, 12, 2))):
        assert c(s) == 0
    # the restricted staged jumps really are empty
    assert staged_jump(EMPTY, (16,), DIVERGERS) == FinSet()


def test_dh_would_be_disagreement_tuple():
    # the tuple ordering forces every bounded code to stabilize before
    # the stages are read, so both staged jumps agree; recorded as
    # observed behavior of this numbering
    X = EMPTY
    elems = (4, 6, 8, 20, 40)
    n = 2
    for i in (1, 2):
        bound = elems[n - i]
        first = staged_jump(X, tuple(reversed(elems[n - i + 1: n + 1])))
        second = staged_jump(X, tuple(reversed(elems[2 * n - i + 1: 2 * n + 1])))
        assert first.below(bound) == second.below(bound)
    assert dh_coloring(X)(els(*elems)) == 0


def test_dh_oracle_use_locality():
    # adding oracle elements above every stage cannot change colors
    base = ExplicitOracle([3])
    shifted = ExplicitOracle([3, 10 ** 6])
    c1 = dh_coloring(base)
    c2 = dh_coloring(shifted)
    for s in enumerate_exactly_large(FinSet(range(2, 13))):
        assert c1(s) == c2(s)


def staged_jump_reference(X, stages, programs):
    # A plain fold of the whole stage tuple, with no staged-jump memo.
    current = X
    for u in stages:
        result = jump_pairs_approx(current, u, programs)
        current = ExplicitOracle(result.elems)
    return result


def least_disagreement_reference(X, elems, programs):
    a0 = elems[0]
    if a0 % 2 or a0 == 0:
        return 0
    n = a0 // 2
    for i in range(1, n + 1):
        bound = elems[n - i]
        first = staged_jump_reference(X, tuple(reversed(elems[n - i + 1: n + 1])), programs)
        second = staged_jump_reference(X, tuple(reversed(elems[2 * n - i + 1: 2 * n + 1])),
                                       programs)
        if first.below(bound) != second.below(bound):
            return i
    return 0


dh_oracles = st.sampled_from([
    EMPTY, ExplicitOracle([3]), ExplicitOracle([0, 2]), UnkeyedOracle({0, 2}.__contains__),
])


@settings(max_examples=40, deadline=None)
@given(X=dh_oracles, n=st.integers(1, 4), start=st.integers(1, 30),
       gaps=st.lists(st.integers(1, 8), min_size=8, max_size=8),
       programs=st.none() | st.just([46, 57, 80, 124, 6894]) | st.lists(st.integers(0, 60)),
       cleared=st.booleans())
def test_dh_colors_match_full_fold_reference(X, n, start, gaps, programs, cleared):
    if cleared:
        clear_caches()
    elems = tuple(accumulate([2 * n, start + 2 * n] + gaps[:2 * n - 1]))
    want = least_disagreement_reference(X, elems, programs)
    s = els(*elems)
    assert km_dh_coloring(X, programs)(s) == want
    assert dh_coloring(X, programs)(s) == (1 if want else 0)


def test_dh_folds_one_stage_per_level(monkeypatch):
    clear_caches()
    stages = []
    real = machines.jump_pairs_approx
    monkeypatch.setattr(machines, "jump_pairs_approx",
                        lambda oracle, s, programs=None: stages.append(s)
                        or real(oracle, s, programs))
    # Every entry is at most 46, so all three levels agree and are folded.
    assert dh_coloring(EMPTY)(els(6, 8, 10, 12, 14, 16, 18)) == 0
    assert sorted(stages) == [8, 10, 12, 14, 16, 18]


def _parity_fold(pulled):
    # A stand-in for staged_jump_levels: level i is {u_i % 2}, so two
    # folds agree at a level iff their stages there have one parity.
    def levels(oracle, stages, programs=None):
        for u in stages:
            pulled.append((oracle, u))
            yield FinSet([u % 2])

    return levels


def test_dh_fold_memo_reads_no_level_past_a_disagreement(monkeypatch):
    pulled = []
    monkeypatch.setattr(colorings, "staged_jump_levels", _parity_fold(pulled))
    c = km_dh_coloring(EMPTY)
    e = EMPTY.key
    # Folds (9, 8) and (12, 11) disagree at level 1: one level each.
    assert c(els(4, 8, 9, 11, 12)) == 1
    assert [(o.key, u) for o, u in pulled] == [(e, 9), (e, 12)]
    # A repeated read, and the fold (9, 8) paired anew, pull no stored level.
    assert c.evaluate((4, 8, 9, 11, 12)) == 1
    assert c(els(4, 5, 6, 8, 9)) == 1
    assert [(o.key, u) for o, u in pulled] == [(e, 9), (e, 12), (e, 6)]
    # (6, 5) and (8, 7) agree at level 1; (6, 5) is extended from its
    # stored level, as the oracle of its jump set.
    del pulled[:]
    assert c(els(4, 5, 6, 7, 8)) == 0
    assert [(o.key, u) for o, u in pulled] == [(e, 8), (ExplicitOracle([0]).key, 5), (e, 7)]


def _stage_sharing_sets(n, pool, count):
    # Sets (2n, ...) drawn from one small pool share their stage tuples.
    return [(2 * n,) + t for t in islice(combinations(pool, 2 * n), count)]


@settings(max_examples=25, deadline=None)
@given(X=dh_oracles, n=st.integers(1, 3),
       pool=st.sets(st.integers(7, 52), min_size=7, max_size=9),
       programs=st.none() | st.just([46, 50, 51]) | st.lists(st.integers(0, 52)),
       cleared=st.booleans())
def test_dh_fold_memo_matches_full_fold_reference(X, n, pool, programs, cleared):
    if cleared:
        clear_caches()
    dh, km_dh = dh_coloring(X, programs), km_dh_coloring(X, programs)
    for elems in _stage_sharing_sets(n, sorted(pool), 12):
        want = least_disagreement_reference(X, elems, programs)
        assert km_dh(els(*elems)) == want
        assert dh(els(*elems)) == (1 if want else 0)


def _toy_step(level, u):
    # One fold step of a toy jump whose levels disagree often.
    return FinSet(sorted({(sum(level) + u * k) % 11 for k in (1, 2, 3)}))


def _toy_levels(oracle, stages, programs=None):
    # A stand-in for staged_jump_levels that folds _toy_step.
    level = oracle.elems
    for u in stages:
        level = _toy_step(level, u).elems
        yield FinSet(level)


def _toy_reference(members, elems):
    # least_disagreement_reference for the toy jump.
    n = elems[0] // 2
    for i in range(1, n + 1):
        first = second = members
        for u in elems[n:n - i:-1]:
            first = _toy_step(first, u)
        for u in elems[2 * n:2 * n - i:-1]:
            second = _toy_step(second, u)
        bound = elems[n - i]
        if set(first) & set(range(bound)) != set(second) & set(range(bound)):
            return i
    return 0


@settings(max_examples=40, deadline=None)
@given(members=st.frozensets(st.integers(0, 10), max_size=4), n=st.integers(1, 4),
       pool=st.sets(st.integers(9, 30), min_size=8, max_size=10))
def test_dh_fold_memo_matches_a_plain_fold_of_a_toy_jump(members, n, pool):
    sets = _stage_sharing_sets(n, sorted(pool), 40)
    wants = [_toy_reference(members, elems) for elems in sets]
    real = colorings.staged_jump_levels
    colorings.staged_jump_levels = _toy_levels
    try:
        c = km_dh_coloring(ExplicitOracle(members))
        assert [c(els(*elems)) for elems in sets] == wants
    finally:
        colorings.staged_jump_levels = real


def test_dh_fold_memo_agrees_under_thread_switching(monkeypatch):
    # Racing threads may lose a memo write, which only costs a fold
    # again: no color changes.
    monkeypatch.setattr(colorings, "staged_jump_levels", _toy_levels)
    members = frozenset({1, 4})
    pool = (9, 11, 14, 17, 20, 23, 25, 28, 30)
    sets = [s for n in (2, 3) for s in _stage_sharing_sets(n, pool, 60)]
    want = [_toy_reference(members, elems) for elems in sets]
    assert len(set(want)) > 2
    c = km_dh_coloring(ExplicitOracle(members))
    results = {}

    def work(slot):
        order = sets if slot % 2 == 0 else sets[::-1]
        got = {elems: c.evaluate(elems) for elems in order}
        results[slot] = [got[elems] for elems in sets]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(results[i] == want for i in range(8))


def test_km_dh_regressive_on_random_tuples():
    rng = random.Random(9)
    c = km_dh_coloring(EMPTY)
    for _ in range(1000):
        m = rng.randrange(2, 7)
        tail = sorted(rng.sample(range(m + 1, 40), m))
        s = els(m, *tail)
        v = c(s)
        assert v < m
    assert c(els(3, 5, 7, 9)) == 0  # odd minimum


# ---------------------------------------------------------------------------
# regressive <-> two-color reductions

def test_km_to_rt_constant_zero():
    red = km_to_rt(RegressiveColoring(lambda s: 0))
    for s in enumerate_exactly_large(FinSet(range(1, 8))):
        assert red.coloring(s) == 1
    assert red.coloring(els(0)) == 0


def test_km_to_rt_min_dependent():
    red = km_to_rt(RegressiveColoring(lambda s: max(s.min() - 1, 0)))
    for s in enumerate_exactly_large(FinSet(range(1, 9))):
        if s.min() >= 1:
            assert red.coloring(s) == 1


def test_km_to_rt_transform_shifts_down():
    red = km_to_rt(RegressiveColoring(lambda s: 0))
    assert red.transform(FinSet([3, 5, 9])) == FinSet([2, 4, 8])


def test_km_to_rt_roundtrip_on_seeded_family():
    universe = FinSet(range(1, 10))
    for seed in range(6):
        c = random_regressive_coloring(seed)
        red = km_to_rt(c)
        res = exact_homog_search(red.coloring, universe, 5)
        if res.witness is None:
            continue
        shifted = red.transform(res.witness.set)
        report = verify_min_homogeneous(shifted, c)
        assert report.passed


def test_rt_via_km_uniform_color_keeps_everything():
    c = ExactColoring(lambda s: 0)
    H = FinSet([2, 5, 9])
    assert rt_via_km(c, H) == H


def test_rt_via_km_alternating_classes():
    c = ExactColoring(lambda s: s.min() % 2, name="parity-of-min")
    H = FinSet(range(2, 14))
    out = rt_via_km(c, H)
    # defined induced colors live on 2..6; evens win, the silent tail stays
    assert out == FinSet([2, 4, 6, 7, 8, 9, 10, 11, 12, 13])
    from xlramsey.ramsey import verify_exact_homogeneous

    assert verify_exact_homogeneous(out, c).passed


def test_rt_via_km_reverifies_searched_witness():
    c = ExactColoring(lambda s: (s.elems[1] - s.min()) % 2)
    from xlramsey.ramsey import min_homog_search, verify_exact_homogeneous

    found = min_homog_search(c, FinSet(range(2, 14)), 7)
    assert found.witness is not None
    assert found.witness.set == FinSet([2, 3, 5, 7, 9, 11, 12])
    out = rt_via_km(c, found.witness.set)
    assert out == FinSet([3, 5, 7, 9, 11, 12])
    assert verify_exact_homogeneous(out, c).passed


def test_rt_via_km_rejects_non_min_homogeneous():
    c = ExactColoring(lambda s: (s.elems[1] - s.min()) % 2)
    bad = FinSet([2, 3, 4, 5, 6])
    from xlramsey.ramsey import verify_min_homogeneous as vmh

    if vmh(bad, c).passed:
        pytest.skip("universe unexpectedly min-homogeneous")
    with pytest.raises(ValueError):
        rt_via_km(c, bad)
