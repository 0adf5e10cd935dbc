import gc
import inspect
import json
import random
import sys
import tracemalloc
import weakref
from bisect import bisect_right
from itertools import combinations, count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    crc_bit,
    random_exact_coloring,
    random_finite_coloring,
    random_regressive_coloring,
)
import reference_extract

from xlramsey import colorings
from xlramsey.colorings import _UNREAD, ExactColoring, FiniteColoring, _pigeonhole
from xlramsey.largesets import FinSet
from xlramsey.ramsey import (
    DEFAULT_BUDGET,
    PathResult,
    _Restricted,
    _Subsets,
    SearchBudget,
    Witness,
    brute_homogeneous,
    er_children,
    exact_homog_search,
    f_a_extract,
    iterate_rtomega,
    leftmost_path,
    min_homog_search,
    verify_exact_homogeneous,
    verify_min_homogeneous,
)


def pentagon(t):
    u, v = t
    return 1 if (v - u) % 5 in (1, 4) else 0


def bitmask_homogeneous(c, universe, k):
    """Independent second implementation: bitmask subset enumeration."""
    elems = universe.elems
    n = len(elems)
    for mask in range(1 << n):
        if bin(mask).count("1") != k:
            continue
        cand = tuple(elems[i] for i in range(n) if mask >> i & 1)
        colors = {c(sub) for sub in combinations(cand, c.dimension)}
        if len(colors) == 1:
            return cand
    return None


# ---------------------------------------------------------------------------
# brute search

def test_brute_constant_coloring():
    c = FiniteColoring(3, lambda t: 0)
    res = brute_homogeneous(c, FinSet(range(1, 7)), 3)
    assert res.witness.set == FinSet([1, 2, 3])
    assert res.witness.color == 0 and res.witness.verified


def test_brute_pentagon_has_no_triangle():
    res = brute_homogeneous(FiniteColoring(2, pentagon), FinSet(range(5)), 3)
    assert res.witness is None
    assert res.exhaustive and res.examined == 10


def test_brute_agrees_with_bitmask_oracle():
    rng = random.Random(31)
    for seed in range(40):
        n = rng.randrange(4, 9)
        universe = FinSet(range(n))
        k = rng.randrange(2, min(5, n) + 1)
        dim = rng.randrange(1, min(3, k) + 1)
        c = random_finite_coloring(seed, dim)
        ours = brute_homogeneous(c, universe, k)
        other = bitmask_homogeneous(c, universe, k)
        assert (ours.witness is None) == (other is None)


def test_brute_validates_k():
    with pytest.raises(ValueError):
        brute_homogeneous(FiniteColoring(3, lambda t: 0), FinSet(range(6)), 2)


# ---------------------------------------------------------------------------
# the pruned searches against plain lexicographic scans

def reference_scan(universe, k, accept):
    """The plain scan the searches replace: every k-subset in
    lexicographic order, each checked from scratch by accept, which
    returns the candidate's colors or None.  Gives (witness set, colors,
    examined, exhaustive)."""
    examined = 0
    for cand in combinations(universe.elems, k):
        examined += 1
        colors = accept(cand)
        if colors is not None:
            return cand, colors, examined, False
    return None, None, examined, True


def reference_exact(c, universe, k, verify):
    def accept(cand):
        report = verify(FinSet(cand), c)
        return (report.color, report.per_min) if report.passed else None

    return reference_scan(universe, k, accept)


def reference_brute(c, universe, k):
    def accept(cand):
        colors = [c(sub) for sub in combinations(cand, c.dimension)]
        return colors[0] if len(set(colors)) == 1 else None

    return reference_scan(universe, k, accept)


def search_outcome(res, colors):
    w = res.witness
    if w is not None:
        assert w.verified and w.budget_used["examined"] == res.examined
    return (None if w is None else w.set.elems, None if w is None else colors(w),
            res.examined, res.exhaustive)


# Universes that start at 0 and 1 hold the exactly large sets {0} and {1, x}.
tiny_universes = st.sets(st.integers(0, 11), max_size=9).map(sorted).map(FinSet)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6), palette=st.integers(2, 3), regressive=st.booleans(),
       universe=tiny_universes, k=st.integers(-1, 7), by_min=st.booleans())
@example(seed=0, palette=2, regressive=True, universe=FinSet(range(2, 10)), k=6, by_min=True)
@example(seed=5, palette=3, regressive=False, universe=FinSet(range(0, 9)), k=4, by_min=False)
@example(seed=5, palette=2, regressive=False, universe=FinSet(range(0, 9)), k=7, by_min=False)
def test_exact_searches_match_plain_scan(seed, palette, regressive, universe, k, by_min):
    c = random_regressive_coloring(seed) if regressive else random_exact_coloring(seed, palette)
    search, verify = ((min_homog_search, verify_min_homogeneous) if by_min
                      else (exact_homog_search, verify_exact_homogeneous))
    if k < (2 if by_min else 0):
        with pytest.raises(ValueError):
            search(c, universe, k)
        return
    got = search_outcome(search(c, universe, k),
                         lambda w: (w.color, w.per_min_colors))
    assert got == reference_exact(c, universe, k, verify)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6), dim=st.integers(2, 4), palette=st.integers(2, 3),
       universe=st.sets(st.integers(0, 15), max_size=10).map(sorted).map(FinSet),
       k=st.integers(2, 7))
def test_brute_homogeneous_matches_plain_scan(seed, dim, palette, universe, k):
    c = random_finite_coloring(seed, dim, palette)
    if k < dim:
        with pytest.raises(ValueError):
            brute_homogeneous(c, universe, k)
        return
    got = search_outcome(brute_homogeneous(c, universe, k), lambda w: w.color)
    assert got == reference_brute(c, universe, k)


# ---------------------------------------------------------------------------
# tree children

def reference_er_children(node, c, universe, budget=DEFAULT_BUDGET):
    """The full-signature tree step: every candidate's colors on all of
    C(node, a) are recomputed at every node."""
    node = tuple(node)
    a = c.dimension - 1
    lo = node[-1] if node else -1
    candidates = universe.elems[bisect_right(universe.elems, lo):]
    subsets = list(combinations(node, a)) if len(node) >= a else []
    committed = {}
    for sub in subsets:
        i = bisect_right(node, sub[-1])
        if i < len(node):
            committed[sub] = c(sub + (node[i],))
    seen = {}
    complete = True
    scanned = 0
    for j in candidates:
        if scanned >= budget.max_candidates:
            complete = False
            break
        scanned += 1
        sig = []
        ok = True
        for sub in subsets:
            v = c(sub + (j,))
            want = committed.get(sub)
            if want is not None and v != want:
                ok = False
                break
            sig.append(v)
        if ok:
            key = tuple(sig)
            if key not in seen:
                seen[key] = j
    return tuple(sorted(seen.values())), complete


def reference_leftmost_path(c, universe, length, budget=DEFAULT_BUDGET):
    """First-child depth-first search driven by the reference step.  The
    node budget does not cut the first descent, and when no branch
    reaches `length` the node that ends it is the result."""
    truncated = False
    expanded = 0
    end = None

    def extend(node):
        nonlocal truncated, expanded, end
        if len(node) == length:
            return node
        if end is not None and expanded >= budget.max_candidates:
            truncated = True
            return None
        values, complete = reference_er_children(node, c, universe, budget)
        expanded += 1
        if not complete:
            truncated = True
        if end is None and not values:
            end = node
        for j in values:
            found = extend(node + (j,))
            if found is not None:
                return found
        return None

    best = extend(())
    if best is None:
        return PathResult(FinSet(end), False)
    return PathResult(FinSet(best), not truncated)


budgets = st.sampled_from(
    [SearchBudget(max_candidates=m) for m in (1, 2, 3)] + [DEFAULT_BUDGET]
)
small_universes = st.sets(st.integers(0, 15), max_size=12).map(sorted).map(FinSet)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), dim=st.integers(2, 4), palette=st.integers(2, 3),
       universe=small_universes, node=st.sets(st.integers(0, 15), max_size=5),
       budget=budgets)
def test_er_children_matches_reference(seed, dim, palette, universe, node, budget):
    # Arbitrary increasing nodes, including ones that are no tree branch
    # and ones with entries outside the universe.
    node = tuple(sorted(node))
    c = random_finite_coloring(seed, dim, palette)
    ch = er_children(node, c, universe, budget)
    assert (ch.values, ch.complete) == reference_er_children(node, c, universe, budget)
    # Each child's carried class is what a fresh replay finds at the child.
    for j, carried in zip(ch.values, ch.classes):
        again = er_children(node + (j,), c, universe, budget)
        assert er_children(node + (j,), c, universe, budget, carried) == again


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), dim=st.integers(2, 4), palette=st.integers(2, 3),
       universe=small_universes, length=st.integers(1, 8), budget=budgets)
def test_leftmost_path_matches_reference(seed, dim, palette, universe, length, budget):
    c = random_finite_coloring(seed, dim, palette)
    got = leftmost_path(c, universe, length, budget)
    assert len(got.path) <= length
    assert got == reference_leftmost_path(c, universe, length, budget)


def test_leftmost_path_is_never_longer_than_asked():
    # The node budget cuts the search after the root, but not the first
    # descent, which stops at the requested length.
    c = FiniteColoring(2, lambda t: 0)
    got = leftmost_path(c, FinSet(range(10)), 3, SearchBudget(max_candidates=1))
    assert got == PathResult(FinSet((0, 1, 2)), False)


def test_leftmost_path_expands_no_node_twice(monkeypatch):
    # No stage of this chain has a branch as long as its universe, so
    # each stage's search ends by returning its first descent's end.
    import xlramsey.ramsey as ramsey
    from xlramsey.cli import parse_coloring
    from xlramsey.machines import EMPTY

    expanded = []

    def recording(node, c, *args):
        expanded.append((c, tuple(node)))  # keeps c alive, so its id stays its own
        return er_children(node, c, *args)

    monkeypatch.setattr(ramsey, "er_children", recording)
    iterate_rtomega(parse_coloring("random:1", EMPTY), FinSet(range(8, 37)))
    keys = [(id(c), node) for c, node in expanded]
    assert len(keys) == len(set(keys)) == 76


def test_er_children_empty_node():
    c = FiniteColoring(2, lambda t: 0)
    ch = er_children((), c, FinSet([4, 7, 9]))
    assert ch.values == (4,) and ch.complete


def test_er_children_constant_single_chain():
    c = FiniteColoring(2, lambda t: 0)
    u = FinSet(range(10))
    node = ()
    for expected in range(5):
        ch = er_children(node, c, u)
        assert ch.values == (expected,)
        node = node + ch.values


def test_er_children_parity_classes():
    c = FiniteColoring(2, lambda t: t[1] % 2)
    ch = er_children((0,), c, FinSet(range(10)))
    assert ch.values == (1, 2)  # least odd and least even candidate


def test_er_children_class_minimality():
    rng = random.Random(37)
    for seed in range(20):
        c = random_finite_coloring(seed, 3)
        u = FinSet(range(12))
        node = (0, 1, 2)
        ch = er_children(node, c, u)
        for j in ch.values:
            sig = tuple(c(sub + (j,)) for sub in combinations(node, 2))
            for j2 in u.elems:
                if j2 <= node[-1] or j2 >= j:
                    continue
                sig2 = tuple(c(sub + (j2,)) for sub in combinations(node, 2))
                assert sig2 != sig  # nothing smaller shares the class


def test_er_children_budget_truncation():
    c = random_finite_coloring(5, 2)
    budget = SearchBudget(max_candidates=3)
    ch = er_children((0,), c, FinSet(range(30)), budget)
    assert not ch.complete


def test_leftmost_path_node_budget_terminates():
    c = random_finite_coloring(8, 3)
    budget = SearchBudget(max_candidates=5)
    pr = leftmost_path(c, FinSet(range(40)), 12, budget)
    assert not pr.stable  # budget cut the search short


# ---------------------------------------------------------------------------
# leftmost path

def test_leftmost_path_constant():
    c = FiniteColoring(2, lambda t: 0)
    pr = leftmost_path(c, FinSet(range(21)), 5)
    assert pr.path == FinSet([0, 1, 2, 3, 4]) and pr.stable


def test_leftmost_path_is_deeper_than_the_recursion_limit():
    # The branch search is a loop: a path longer than the interpreter's
    # recursion limit allows is still found.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        pr = leftmost_path(FiniteColoring(2, lambda t: 0), FinSet(range(300)), 250)
    finally:
        sys.setrecursionlimit(limit)
    assert pr.path == FinSet(range(250)) and pr.stable


def test_leftmost_path_flip_coloring():
    # color flips once at a threshold; the path keeps the surviving class
    c = FiniteColoring(2, lambda t: 1 if t[1] >= 5 else 0)
    pr = leftmost_path(c, FinSet(range(10)), 4)
    assert pr.stable
    # first two entries fix the branch; later entries must agree in color
    p = pr.path.elems
    for (x, y) in combinations(p, 2):
        for y2 in p:
            if y2 > y and y != p[-1] and y2 != y:
                assert c((x, y)) == c((x, y2)) or x != p[0]


def test_leftmost_path_exhaustion_flags_unstable():
    c = FiniteColoring(2, lambda t: 0)
    pr = leftmost_path(c, FinSet([3, 5]), 6)
    assert len(pr.path) == 2 and not pr.stable


def test_leftmost_path_last_element_independence():
    rng = random.Random(41)
    for seed in range(10):
        c = random_finite_coloring(seed, 3)
        pr = leftmost_path(c, FinSet(range(30)), 7)
        p = pr.path.elems
        assert len(p) == 7
        for (x, y) in combinations(p, 2):
            later = [z for z in p if z > y]
            colors = {c((x, y, z)) for z in later}
            assert len(colors) <= 1


def end_homogeneous(c, branch) -> bool:
    """Each (a-1)-subset t of the branch is finished with one color by
    every branch element above t[-1], for a = c.dimension."""
    return all(len(set(c.colors(t + (y,) for y in branch if y > t[-1]))) <= 1
               for t in combinations(branch, c.dimension - 1))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), dim=st.integers(2, 4), palette=st.integers(2, 3),
       kind=st.sampled_from(["finite", "exact", "view", "view of a view"]),
       elems=st.sets(st.integers(0, 15), max_size=12), length=st.integers(1, 14),
       max_candidates=st.sampled_from([1, 2, 3, 10 ** 6]))
def test_every_branch_leftmost_path_returns_is_end_homogeneous(
        seed, dim, palette, kind, elems, length, max_candidates):
    # The extraction reads no tuple of its set again on this property:
    # unstable branches (budget cuts) and shorter ones (the longest
    # prefix fallback) included.
    budget = SearchBudget(max_candidates=max_candidates)
    depth = {"view": 1, "view of a view": 2}.get(kind, 0)
    exact = kind == "exact"
    universe = FinSet(sorted(x + dim + 1 if exact else x for x in elems))
    c = extraction_coloring(seed, dim + depth, palette, exact, None, universe)
    for _ in range(depth):
        path = leftmost_path(c, universe, len(universe), budget).path.elems if universe else ()
        c, universe = _Restricted(c, path), FinSet(path[:-1])
    assert c.dimension == dim
    branch = leftmost_path(c, universe, length, budget).path.elems
    assert end_homogeneous(c, branch)


def test_end_homogeneity_check_sees_a_defect():
    c = FiniteColoring(2, lambda t: t[1] % 2)
    assert not end_homogeneous(c, (0, 1, 2))
    assert end_homogeneous(c, (0, 1, 3))


# ---------------------------------------------------------------------------
# extraction

def test_f1_parity_takes_zero_class_first():
    c = FiniteColoring(1, lambda t: t[0] % 2)
    w = f_a_extract(c, FinSet(range(31)), 10)
    assert w.set == FinSet(range(0, 20, 2))
    assert w.color == 0 and w.verified


def test_f2_constant_first_five():
    c = FiniteColoring(2, lambda t: 0)
    w = f_a_extract(c, FinSet(range(40)), 5)
    assert w.set == FinSet([0, 1, 2, 3, 4])
    assert w.verified


def test_f2_pentagon_extended_witness_verifies():
    c = FiniteColoring(2, lambda t: pentagon((t[0] % 5, t[1] % 5)) if (t[0] % 5) != (t[1] % 5) else 0)
    w = f_a_extract(c, FinSet(range(41)), 4)
    assert len(w.set) >= 4
    colors = {c(sub) for sub in combinations(w.set.elems, 2)}
    assert len(colors) == 1


def test_f3_random_witnesses_verify():
    for seed in range(15):
        c = random_finite_coloring(seed, 3)
        w = f_a_extract(c, FinSet(range(45)), 4)
        if w.color is None:
            continue
        colors = {c(sub) for sub in combinations(w.set.elems, 3)}
        assert len(colors) <= 1
        if w.verified:
            assert len(w.set) >= 4


def test_f_a_budget_shortfall_is_flagged():
    c = random_finite_coloring(3, 2)
    w = f_a_extract(c, FinSet(range(6)), 6)
    if len(w.set) < 6:
        assert not w.verified


def test_f_a_budget_cut_branch_still_verifies():
    # Only a shortfall leaves the witness unverified: the node budget
    # cuts this branch search, and the unstable branch it returns is
    # end-homogeneous all the same.
    c = FiniteColoring(2, lambda t: 0)
    budget = SearchBudget(max_candidates=1)
    assert leftmost_path(c, FinSet(range(10)), 3, budget) == PathResult(FinSet((0, 1, 2)), False)
    w = f_a_extract(c, FinSet(range(10)), 2, budget)
    assert (w.set, w.color, w.verified) == (FinSet((0, 1)), 0, True)


@settings(max_examples=200, deadline=None)
@given(palette=st.integers(2, 4), data=st.data())
def test_arity_one_and_pigeonhole_take_a_maximal_class(palette, data):
    colors = data.draw(st.lists(st.integers(0, palette - 1), max_size=12))
    target = data.draw(st.integers(1, 8))
    c = FiniteColoring(1, lambda t: colors[t[0]], palette=palette)
    w = f_a_extract(c, FinSet(range(len(colors))), target)
    sizes = [colors.count(v) for v in range(palette)]
    reaching = [v for v in range(palette) if sizes[v] >= target]
    if reaching:
        # the first class in color order that reaches the target
        assert w.color == reaching[0] and w.verified
    else:
        # else the largest class, ties to the least color
        assert sizes[w.color] == max(sizes) and not w.verified
        assert all(sizes[v] < sizes[w.color] for v in range(w.color))
    assert w.set == FinSet([x for x, v in enumerate(colors) if v == w.color][:target])

    induced = dict(enumerate(colors))
    elems = list(range(len(colors) + 2))  # the last two induce nothing
    kept, chosen = _pigeonhole(elems, induced)
    assert sizes[chosen] == max(sizes)
    assert all(sizes[v] < sizes[chosen] for v in range(chosen))
    assert kept == [x for x in elems if induced.get(x, chosen) == chosen]

    if set(colors) <= {0, 1}:
        # the two-color formulas these rules replace
        class0 = [x for x, v in enumerate(colors) if v == 0]
        class1 = [x for x, v in enumerate(colors) if v == 1]
        if len(class0) >= target:
            old = (class0[:target], 0)
        elif len(class1) >= target:
            old = (class1[:target], 1)
        elif len(class0) >= len(class1):
            old = (class0, 0)
        else:
            old = (class1, 1)
        assert (list(w.set), w.color) == old
        count0 = sum(1 for v in induced.values() if v == 0)
        assert chosen == (0 if count0 >= len(induced) - count0 else 1)


class Poisoned(Exception):
    pass


def extraction_coloring(seed, dim, palette, exact, poison, universe, log=None):
    """A fresh random coloring whose evaluation number ``poison`` raises,
    appending every tuple it evaluates to ``log`` if one is given: a
    FiniteColoring, or the stage coloring at minimum dim of an exact one
    over ``universe`` (which must lie above dim)."""
    evaluations = count()

    def color(elems):
        if log is not None:
            log.append(elems)
        if next(evaluations) == poison:
            raise Poisoned(elems)
        return crc_bit(seed, elems, palette)

    if exact:
        return ExactColoring(lambda s: color(s.elems), palette=palette).at_min(dim, universe)
    return FiniteColoring(dim, color, palette=palette)


def run_extraction(extract, c, universe, target, budget):
    try:
        return extract(c, universe, target, budget), None
    except Poisoned as exc:
        return None, exc.args


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), dim=st.integers(2, 4), palette=st.integers(2, 3),
       exact=st.booleans(), elems=st.sets(st.integers(0, 20), max_size=14),
       target=st.integers(1, 14), poison=st.none() | st.integers(0, 400),
       budget=budgets)
def test_extraction_matches_per_call_reference(seed, dim, palette, exact, elems, target,
                                               poison, budget):
    # The row reads (rank rows of the stage table for an exact stage)
    # return the same witness, evaluate the same tuples in the same
    # order and raise the same exception as one call per tuple.
    universe = FinSet(sorted(x + dim + 1 if exact else x for x in elems))
    got_log, want_log = [], []
    got_c = extraction_coloring(seed, dim, palette, exact, poison, universe, got_log)
    want_c = extraction_coloring(seed, dim, palette, exact, poison, universe, want_log)
    got = run_extraction(f_a_extract, got_c, universe, target, budget)
    want = run_extraction(reference_extract.f_a_extract, want_c, universe, target, budget)
    assert got == want
    assert got_log == want_log


def test_extraction_raises_where_the_reference_raises():
    # evaluation 100 of the 171 (finite) or 165 (stage) a full run makes
    # raises
    for exact in (False, True):
        universe = FinSet(range(5, 19) if exact else range(14))
        runs = []
        for extract in (f_a_extract, reference_extract.f_a_extract):
            log = []
            c = extraction_coloring(1, 4, 2, exact, 100, universe, log)
            runs.append((run_extraction(extract, c, universe, 14, DEFAULT_BUDGET), log))
        (got, got_log), (want, want_log) = runs
        assert got[1] is not None and got == want
        assert len(got_log) == 101 and got_log == want_log


def test_extraction_beyond_the_stage_universe_names_it(monkeypatch):
    # Heads, candidates and view tails outside the stage's universe fail
    # as their first tuple read does, whatever the stage's store: a table,
    # or a dict keyed by tuple once no stage fits a table.
    for store in ("table", "tuple"):
        if store == "tuple":
            monkeypatch.setattr(colorings, "MAX_STAGE_TABLE", -1)
        stage = ExactColoring(lambda s: s.min() % 2).at_min(3, FinSet(range(4, 12)))
        assert (type(stage) is ExactColoring) == (store == "tuple")
        with pytest.raises(ValueError, match=r"\(4, 5, 12\) is not a tuple of the stage universe"):
            f_a_extract(stage, FinSet(range(4, 14)), 9)


def test_memo_hits_make_no_calls(monkeypatch):
    c = ExactColoring(lambda s: s.min() % 2, name="parity-of-min")
    stage = c.at_min(5, FinSet(range(6, 20)))
    evaluations = calls = 0
    fn, call = stage._fn, type(stage).__call__

    def counting_fn(s):
        nonlocal evaluations
        evaluations += 1
        return fn(s)

    def counting_call(self, s):
        nonlocal calls
        calls += 1
        return call(self, s)

    stage._fn = counting_fn
    monkeypatch.setattr(type(stage), "__call__", counting_call)
    w = f_a_extract(stage, FinSet(range(6, 20)), 14)
    assert w.verified and evaluations == len(stage.store) == 2002
    assert _UNREAD not in stage.store
    assert calls == 0


def test_subsets_read_as_combinations():
    elems = (2, 3, 5, 8, 13, 21, 34)
    for k in range(len(elems) + 1):
        for tail in ((), (40,), (40, 55)):
            subsets = _Subsets(list(elems), k, tail)
            want = [sub + tail for sub in combinations(elems, k)]
            assert list(subsets) == want == list(subsets)  # each iteration starts over


def test_view_over_a_view_is_flat():
    c = random_finite_coloring(7, 4)
    p, q = (1, 3, 4, 6, 8, 9, 11), (3, 6, 8, 9)
    inner = _Restricted(c, p)
    view = _Restricted(inner, q)
    assert view.c is c and view.dimension == 2
    for t in combinations(q[:-1], 2):
        y = q[bisect_right(q, t[-1])]
        z = p[bisect_right(p, y)]
        assert list(view.colors([t])) == [c(t + (y, z))]
        assert list(inner.colors([t + (y,)])) == [c(t + (y, z))]


# ---------------------------------------------------------------------------
# chains

def test_chain_parity_of_min():
    c = ExactColoring(lambda s: s.min() % 2, name="parity-of-min")
    w = iterate_rtomega(c, FinSet(range(2, 30)))
    assert w.kind == "chain" and w.verified
    assert len(w.set) >= 5
    assert verify_exact_homogeneous(w.set, c).passed


def test_chain_constant_is_greedy_prefix():
    c = ExactColoring(lambda s: 0)
    u = FinSet(range(2, 20))
    w = iterate_rtomega(c, u)
    # every universe element enters until the tail cannot host a stage
    assert w.set.elems[:5] == (2, 3, 4, 5, 6)
    assert w.verified


def test_chain_stages_record_colors_above_one():
    # every stage of a constant-2 coloring is homogeneous in color 2
    c = ExactColoring(lambda s: 2, palette=3, name="constant:2")
    w = iterate_rtomega(c, FinSet(range(2, 17)))
    assert w.set == FinSet(range(2, 10)) and w.color == 2 and w.verified
    stages = w.budget_used["stages"]
    assert len(stages) == 7
    assert all(stage["color"] == 2 and stage["verified"] for stage in stages)
    assert set(w.per_min_colors.values()) == {2}
    assert w.budget_used["pigeonhole_color"] == 2


def test_chain_sum_parity_verifies():
    c = ExactColoring(lambda s: sum(s.elems) % 2, name="parity-of-sum")
    w = iterate_rtomega(c, FinSet(range(2, 41)))
    assert w.verified
    assert verify_exact_homogeneous(w.set, c).passed


def test_finished_stages_are_freed_without_gc(monkeypatch):
    # Each stage coloring, memo and all, must die when its extraction
    # returns, not wait for a cycle collection.
    stages = []
    at_min = ExactColoring.at_min

    def recording_at_min(self, *args):
        stage = at_min(self, *args)
        stages.append(weakref.ref(stage))
        return stage

    monkeypatch.setattr(ExactColoring, "at_min", recording_at_min)
    c = ExactColoring(lambda s: s.min() % 2, name="parity-of-min")
    gc.disable()
    try:
        iterate_rtomega(c, FinSet(range(2, 17)))
        alive = [ref for ref in stages if ref() is not None]
    finally:
        gc.enable()
    assert len(stages) == 7 and alive == []


def test_parity_of_min_chain_memory_bound():
    # Each stage keeps one byte per stage tuple, not a dict entry per
    # tuple read: the traced peak is about 0.9 MB, where a tuple memo
    # peaks at 3.2 MB (the stage at minimum 7 holds C(17, 7) = 19,448
    # 7-tuples).
    c = ExactColoring(lambda s: s.min() % 2, name="parity-of-min")
    tracemalloc.start()
    try:
        w = iterate_rtomega(c, FinSet(range(2, 25)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.verified and w.set == FinSet([2, 4, 6, 8, 10, 12, 13])
    assert peak < 2_000_000


def test_chain_start_override():
    c = ExactColoring(lambda s: 0)
    w = iterate_rtomega(c, FinSet(range(2, 20)), start=4)
    assert w.set.min() == 4
    assert w.budget_used["start"] == 4


@pytest.mark.parametrize("start", [0, 3, 40])
def test_chain_start_must_be_a_universe_element(start):
    with pytest.raises(ValueError, match="not an element of the universe"):
        iterate_rtomega(ExactColoring(lambda s: 0), FinSet(range(5, 13)), start=start)


def test_chain_rejects_low_universe():
    with pytest.raises(ValueError):
        iterate_rtomega(ExactColoring(lambda s: 0), FinSet([1, 2, 3]))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), palette=st.integers(2, 4), regressive=st.booleans(),
       universe=st.sets(st.integers(2, 24), min_size=1, max_size=14).map(sorted).map(FinSet),
       max_universe=st.sampled_from((1, 2, 3, 5, 8, 128)),
       max_candidates=st.sampled_from((1, 2, 3, 10, 10 ** 6)))
def test_every_chain_stops_at_its_universe(seed, palette, regressive, universe,
                                          max_universe, max_candidates):
    # No stage extraction comes back empty or without a color, whatever
    # the budget: a chain stops only when the universe left is shorter
    # than its last element.
    c = random_regressive_coloring(seed) if regressive else random_exact_coloring(seed, palette)
    budget = SearchBudget(max_universe, max_candidates)
    w = iterate_rtomega(c, universe, budget)
    stages, chain = w.budget_used["stages"], w.budget_used["chain_before_thinning"]
    assert all(s["color"] is not None and s["size"] >= 1 for s in stages)
    if stages:
        assert stages[-1]["size"] - 1 < chain[-1]
    else:
        assert len(universe.above(chain[0]).elems[:max_universe]) < chain[0]


def test_chain_nesting_invariant():
    c = ExactColoring(lambda s: (s.elems[1] + s.min()) % 2)
    w = iterate_rtomega(c, FinSet(range(2, 26)))
    stages = w.budget_used["stages"]
    chain = w.budget_used["chain_before_thinning"]
    assert chain[0] == 2
    assert all(a < b for a, b in zip(chain, chain[1:]))
    assert len(stages) in (len(chain) - 1, len(chain))


# ---------------------------------------------------------------------------
# min-homogeneous search

def test_min_homog_min_dependent_takes_prefix():
    c = ExactColoring(lambda s: max(s.min() - 1, 0), palette=None)
    res = min_homog_search(c, FinSet(range(2, 17)), 5)
    assert res.witness.set == FinSet([2, 3, 4, 5, 6])
    assert res.witness.verified


def test_min_homog_second_mod_min():
    c = ExactColoring(lambda s: s.elems[1] % s.min() if s.min() else 0, palette=None)
    res = min_homog_search(c, FinSet(range(2, 17)), 5)
    assert res.witness is not None
    assert verify_min_homogeneous(res.witness.set, c).passed


def test_min_homog_adversarial_none_certificate():
    # seeded family member with no size-6 witness in {2..9}; every
    # 6-subset here has exactly large subsets, so nothing passes vacuously
    c = random_regressive_coloring(0)
    res = min_homog_search(c, FinSet(range(2, 10)), 6)
    assert res.witness is None
    assert res.exhaustive and res.examined == 28


def test_min_homog_validates_k():
    with pytest.raises(ValueError):
        min_homog_search(ExactColoring(lambda s: 0), FinSet(range(2, 9)), 1)


# ---------------------------------------------------------------------------
# verifiers

def test_verify_vacuous_and_constant():
    c = ExactColoring(lambda s: 1)
    assert verify_exact_homogeneous(FinSet([5, 6]), c).passed
    report = verify_exact_homogeneous(FinSet(range(2, 9)), c)
    assert report.passed and report.color == 1
    assert verify_min_homogeneous(FinSet(range(2, 9)), c).passed


def test_verify_reports_planted_defect():
    flipped = (2, 4, 6)

    def fn(s):
        return 1 if s.elems == flipped else 0

    c = ExactColoring(fn)
    report = verify_exact_homogeneous(FinSet([2, 3, 4, 6]), c)
    assert not report.passed
    a, ca, b, cb = report.counterexample
    assert {ca, cb} == {0, 1}
    assert flipped in (a, b)


def test_verify_min_homog_counterexample_shares_minimum():
    def fn(s):
        return s.elems[1] % 2

    c = ExactColoring(fn)
    report = verify_min_homogeneous(FinSet([2, 3, 4, 5]), c)
    assert not report.passed
    a, ca, b, cb = report.counterexample
    assert a[0] == b[0] and ca != cb


# ---------------------------------------------------------------------------
# witnesses

def test_witness_json_roundtrip():
    w = Witness(
        FinSet([2, 4, 6]), "min-homogeneous",
        per_min_colors={2: 1}, verified=True,
        budget_used={"examined": 3},
    )
    again = Witness.from_dict(json.loads(json.dumps(w.to_dict())))
    assert again.set == w.set and again.kind == w.kind
    assert again.per_min_colors == {2: 1} and again.verified


@pytest.mark.parametrize("bounds", [(0, 1), (1, 0), (-3, 5)])
def test_search_budget_bounds_must_be_positive(bounds):
    with pytest.raises(ValueError, match="budget bounds must be positive"):
        SearchBudget(*bounds)
    with pytest.raises(ValueError, match="budget bounds must be positive"):
        SearchBudget(max_universe=bounds[0], max_candidates=bounds[1])


def test_witnesses_built_without_budget_share_no_dict():
    a = Witness(FinSet([2, 3, 4]), "homogeneous")
    b = Witness(FinSet([2, 3, 4]), "homogeneous")
    assert a.budget_used == {} and a.budget_used is not b.budget_used
    a.budget_used["examined"] = 1
    assert b.budget_used == {} and Witness(FinSet(), "chain").budget_used == {}


def test_exact_homog_search_finds_verified_witness():
    c = ExactColoring(lambda s: s.min() % 2)
    res = exact_homog_search(c, FinSet(range(2, 10)), 4)
    assert res.witness is not None and res.witness.verified
    assert verify_exact_homogeneous(res.witness.set, c).passed
