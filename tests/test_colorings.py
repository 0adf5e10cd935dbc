import gc
import random
import weakref
from itertools import accumulate, combinations, repeat
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UnkeyedOracle, random_regressive_coloring

from xlramsey import colorings, machines
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
    ExplicitOracle,
    clear_caches,
    halt_threshold,
    jump_pairs_approx,
    run_bounded,
    staged_jump,
)
from xlramsey.ramsey import exact_homog_search, verify_min_homogeneous

DIVERGERS = (0, 2, 4, 7, 9)  # indices that never halt on any input


def els(*elems):
    return ExactlyLargeSet(FinSet(elems))


# ---------------------------------------------------------------------------
# wrappers

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


def test_exact_coloring_rejects_bad_input_on_every_call():
    # The memo is consulted before validation; a rejected input is never
    # stored, so a repeat raises again, whatever its shape.
    c = ExactColoring(lambda s: s.min() % 2)
    stage = c.at_min(2)
    off_palette = ExactColoring(lambda s: 2)
    not_regressive = RegressiveColoring(lambda s: s.min())
    for bad, coloring in [((3, 4), c), ([3, 4], c), (FinSet([3, 4]), c), ((2, 1), c),
                          ((), c), ((4,), stage), ((5, 4), stage), ((1, 9), off_palette),
                          (els(2, 3, 4), not_regressive)]:
        for _ in range(3):
            with pytest.raises(ValueError):
                coloring(bad)
    assert c((1, 9)) == 1 and c(FinSet([1, 9])) == 1 and c(els(1, 9)) == 1
    assert len(c._memo) == 1


def test_stage_miss_builds_its_set_with_one_validation(monkeypatch):
    runs = []
    init = FinSet.__init__

    def counting_init(self, elems=()):
        runs.append(type(self))
        init(self, elems)

    monkeypatch.setattr(FinSet, "__init__", counting_init)
    seen = []
    stage = ExactColoring(lambda s: seen.append(s) or 0).at_min(2)
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
    return colors, list(stage._memo.items()), error


def _read_by_calls(stage, reads):
    colors, error = [], None
    for t in reads:
        try:
            colors.append(stage(t))
        except Exception as exc:
            error = (type(exc), str(exc))
            break
    return colors, list(stage._memo.items()), error


def _read_by_contract(stage, reads):
    # The read contract spelled out: memo first; a miss builds the
    # validated set, evaluates, checks, checks the palette, then stores.
    colors, memo = [], {}
    for t in reads:
        try:
            v = memo.get(t)
            if v is None:
                s = ExactlyLargeSet(FinSet(stage._prefix + t))
                v = stage._fn(s)
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
    a, kind, reads = case
    c = _STAGE_SOURCES[kind]()
    expected = _read_by_contract(c.at_min(a), reads)
    assert _read_by_stream(c.at_min(a), reads) == expected
    assert _read_by_calls(c.at_min(a), reads) == expected


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
    )
    reads = draw(st.lists(st.one_of(good, good, good, bad), max_size=30))
    return dim, draw(st.sampled_from(sorted(_FINITE_SOURCES))), reads


def _read_finite_by_contract(c, reads):
    # The read contract spelled out: memo first; a miss checks the
    # length, then that the tuple increases, evaluates, checks the
    # palette, then stores.
    colors, memo = [], {}
    for t in reads:
        try:
            v = memo.get(t)
            if v is None:
                if len(t) != c.dimension:
                    raise ValueError(f"expected {c.dimension}-tuple, got {t}")
                if any(a >= b for a, b in zip(t, t[1:])):
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
    # the written-out contract store, return and raise the same.
    dim, kind, reads = case
    make = _FINITE_SOURCES[kind]
    expected = _read_finite_by_contract(make(dim), reads)
    assert _read_by_stream(make(dim), reads) == expected
    assert _read_by_calls(make(dim), reads) == expected


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
    # fourth tuple, pull nothing past it and have stored the four misses.
    if kind == "stage":
        c = ExactColoring(lambda s: int(s.elems[1] == 6)).at_min(1)
    else:
        c = FiniteColoring(1, lambda t: int(t[0] == 6))
    reads = [(x,) for x in range(3, 12)]
    tuples = _CountingIter(reads)
    assert not all(map(eq, c.colors(tuples), repeat(0)))
    assert tuples.pulled == 4
    assert list(c._memo.items()) == [((3,), 0), ((4,), 0), ((5,), 0), ((6,), 1)]


_TO_FREE = {
    "finite": (lambda: FiniteColoring(2, lambda t: t[0] % 2), (4, 5)),
    "exact": (lambda: ExactColoring(lambda s: s.min() % 2), (2, 3, 4)),
    "exact stage": (lambda: ExactColoring(lambda s: s.min() % 2).at_min(3), (4, 5, 6)),
    "regressive": (lambda: RegressiveColoring(lambda s: s.min() // 2), (2, 3, 4)),
    "regressive stage": (lambda: RegressiveColoring(lambda s: s.min() // 2).at_min(3),
                         (4, 5, 6)),
}


@pytest.mark.parametrize("kind", sorted(_TO_FREE))
def test_no_memo_keeps_its_coloring_alive(kind):
    # A memo that held its coloring (say, a bound method of it) would
    # make a reference cycle, freed only by a cycle collection.
    make, t = _TO_FREE[kind]
    gc.disable()
    try:
        c = make()
        assert list(c.colors([t])) == [c(t)] and len(c._memo) == 1
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


def test_cn_from_reads_capture_check_from_c2_below_first_query():
    # A planted level 2 shows which path runs: its color below the least
    # querying index, the capture loop (which passes here) from it on.
    q = machines._least_querying_index()
    prev = FiniteColoring(3, lambda t: 1)
    planted = FiniteColoring(3, lambda t: 0)
    shortcut, loop = cn_from(prev, EMPTY, planted), cn_from(prev, EMPTY)
    below, at = (q - 1, q + 4, q + 14, q + 24), (q, q + 4, q + 14, q + 24)
    assert shortcut(below) == 0 and loop(below) == 1
    assert shortcut(at) == loop(at) == 1


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


def test_comega_evaluates_shared_lower_levels_once(monkeypatch):
    calls = []
    real = colorings._no_threshold_in
    monkeypatch.setattr(colorings, "_no_threshold_in",
                        lambda k, oracle, lo, hi: calls.append((k, lo, hi))
                        or real(k, oracle, lo, hi))
    cw = comega_coloring(ExplicitOracle([1]))
    cw(els(3, 5, 7, 9))
    cw(els(4, 5, 7, 9, 11))
    # Only level-2 tuples run the loop: the 4 of the first set, then the 9
    # new ones of the second ((5, 7, 9) is shared).  A fresh chain per
    # minimum with a loop at every level makes 21 runs.
    assert calls.count((5, 7, 9)) == 1
    assert len(calls) == len(set(calls)) == 13


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
